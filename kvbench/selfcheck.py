#!/usr/bin/env python3
"""Self-checks of the churnstore KV benchmark.

    python3 kvbench/selfcheck.py digest
    python3 kvbench/selfcheck.py regression [--workload kv_light] [--pairs 10]

digest: every workload's outcome digest (puts ok, gets located and fetched,
the locate-round histogram, total bits, tokens alive) must be identical for
one seed across repeats, across shards=1 vs shards=4, and between untraced
and traced runs; and no fetched value may differ from the bytes put. Runs
at a small n so it takes about two minutes.

regression: checks that the benchmark's comparison can see a slowdown the
size of its rounds_per_s bound. Each pair runs one seed three ways, in a
rotating order: A (the code as is), A2 (the same again) and B (a calibrated
spin after every timed round, so B's rounds/s is A's times 1 - bound). B
must be flagged: it loses at least 9 of 10 pairs to A and the medians
differ by more than the spread of A's own runs (quartile distance). A2 must
not be flagged by that rule, nor by the acceptance rule (median worse than
A's by more than the bound).
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build, paths and spec)


def kvbench(binary, **opts):
    cmd = [str(binary)]
    for k, v in opts.items():
        cmd += ["--" + k.replace("_", "-"), str(v)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_LIMIT_S)
    if proc.returncode not in (0, 3):
        sys.exit(f"selfcheck: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_digest(args):
    binary = run.build(args.jobs)
    trace = run.BUILD / "selfcheck_trace.json"
    ok = True
    for workload in run.WORKLOADS:
        base = dict(workload=workload, seed=args.seed, n=args.n,
                    rounds=args.rounds, obs_file=trace)
        variants = {
            "shards=1": dict(base, shards=1),
            "shards=4": dict(base, shards=4),
            "shards=4 repeat": dict(base, shards=4),
            "shards=4 traced": dict(base, shards=4, trace=1),
        }
        digests = {}
        for label, opts in variants.items():
            r = kvbench(binary, **opts)
            digests[label] = r["digest"]
            mism = int(r["outcome"]["mismatches"])
            if mism:
                ok = False
                print(f"FAIL {workload} {label}: {mism} fetched values differ "
                      "from the bytes put")
            print(f"{workload:15s} {label:16s} {r['digest']}  "
                  f"{r['outcome']['canonical']}")
        if len(set(digests.values())) != 1:
            ok = False
            print(f"FAIL {workload}: digests differ: {digests}")
    print("digest self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def rounds_per_s(workload, seed, seconds, spin):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if spin > 0:
        cmd += ["--spin-frac", repr(spin)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"selfcheck: {' '.join(cmd)} exited {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line["metrics"]["rounds_per_s"]["value"]


def flagged(base, other, bound):
    """(pairs rule, acceptance rule) verdicts for `other` being slower."""
    losses = sum(o < b for b, o in zip(base, other))
    q = statistics.quantiles(base, n=4)
    gap = statistics.median(base) - statistics.median(other)
    by_pairs = losses >= 0.9 * len(base) and gap > q[2] - q[0]
    by_bound = statistics.median(other) < statistics.median(base) * (1 - bound)
    return by_pairs, by_bound, losses


def check_regression(args):
    bound = next(m["bound"] for m in run.SPEC["end_to_end"]
                 if m["name"] == "rounds_per_s")
    seconds = args.seconds or run.SPEC["run_seconds"]
    spin = bound / (1.0 - bound)  # rounds take 1/(1-bound) as long
    run.build(args.jobs)
    runs = {"A": [], "A2": [], "B": []}
    order = ["A", "A2", "B"]
    for i in range(args.pairs):
        seed = args.seed + i
        for label in order[i % 3:] + order[:i % 3]:
            runs[label].append(rounds_per_s(args.workload, seed, seconds,
                                            spin if label == "B" else 0.0))
        print(f"pair {i}: seed {seed} " + " ".join(
            f"{k}={v[-1]:.3f}" for k, v in runs.items()), flush=True)
    a = runs["A"]
    q = statistics.quantiles(a, n=4)
    print(f"A median {statistics.median(a):.3f} spread "
          f"{(q[2] - q[0]) / statistics.median(a):.4f}; bound {bound}")
    b_pairs, b_bound, b_losses = flagged(a, runs["B"], bound)
    a_pairs, a_bound, a_losses = flagged(a, runs["A2"], bound)
    print(f"B  (planted -{bound:.0%}): median "
          f"{statistics.median(runs['B']):.3f}, slower in {b_losses}/"
          f"{args.pairs} pairs; flagged by pairs rule={b_pairs}, "
          f"by bound rule={b_bound}")
    print(f"A2 (identical):    median {statistics.median(runs['A2']):.3f}, "
          f"slower in {a_losses}/{args.pairs} pairs; flagged by pairs "
          f"rule={a_pairs}, by bound rule={a_bound}")
    ok = b_pairs and not a_pairs and not a_bound
    print("regression self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="check", required=True)
    d = sub.add_parser("digest")
    d.add_argument("--seed", type=int, default=7)
    d.add_argument("--n", type=int, default=4096)
    d.add_argument("--rounds", type=int, default=40)
    r = sub.add_parser("regression")
    r.add_argument("--workload", default="kv_light", choices=run.WORKLOADS)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seed", type=int, default=100)
    r.add_argument("--seconds", type=float, default=0,
                   help="default: BENCHMARK.json run_seconds")
    for p in (d, r):
        p.add_argument("--jobs", type=int, default=4)
    args = ap.parse_args()
    return check_digest(args) if args.check == "digest" else check_regression(args)


if __name__ == "__main__":
    sys.exit(main())
