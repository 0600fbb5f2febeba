#!/usr/bin/env python3
"""Run one churnstore KV benchmark workload and print its result line.

    python3 kvbench/run.py --workload kv_light --seed 1 --seconds 20 --trace 0

Builds kvbench (and the churnstore library it links) from the sources of
this checkout into .bench_build/kvbench, runs the workload in its own
process, and prints:

  * a "host" line: the host fingerprint the numbers belong to,
  * one line per metric: name, value, unit,
  * last, one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 reports
the per-layer metrics from a run with phase timing and an ObsSession chrome
trace attached (written to .bench_build/kvbench/trace_<workload>.json).

Exit codes: 0 = result printed and correct; 1 = result printed, correctness
gate failed; 2 = no result (build failed, sources missing, bad arguments).
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "kvbench"
RUN_LIMIT_S = 175.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def fail(msg):
    print(f"kvbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(jobs):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"churnstore sources not found under {ROOT}")
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (BUILD / "Makefile").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(BUILD), "--target", "kvbench",
                 "-j", str(jobs)]):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return BUILD / "kvbench"


def read_text(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def source_digest():
    """sha256 over the library and benchmark sources (the checkout is not
    always a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", HERE.name) for p in (ROOT / d).rglob("*")
                   if p.is_file())
    files.append(ROOT / "CMakeLists.txt")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_fingerprint(result):
    cpu = None
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    l3 = None
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        if read_text(idx / "level") == "3":
            l3 = read_text(idx / "size")
    thp = read_text("/sys/kernel/mm/transparent_hugepage/enabled")
    if thp and "[" in thp:
        thp = thp.split("[", 1)[1].split("]", 1)[0]
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        sha = proc.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "l3": l3,
        "thp": thp,
        "kernel": platform.release(),
        "compiler": result.get("compiler"),
        "build_type": result.get("build_type"),
        "git_sha": sha,
        "source_digest": source_digest(),
        "affinity": sorted(os.sched_getaffinity(0)),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spin-frac", type=float, default=0.0,
                    help="planted slowdown per timed round (self-check only)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build(os.cpu_count() or 1)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--obs-file", str(BUILD / f"trace_{args.workload}.json")]
    if args.spin_frac > 0:
        cmd += ["--spin-frac", str(args.spin_frac)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload ran past {RUN_LIMIT_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        fail(f"kvbench exited with {proc.returncode}")
    result = json.loads(lines[-1])

    print("host " + json.dumps(host_fingerprint(result), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} n {result['n']} "
          f"shards {result['shards']} window {result['window_rounds']} rounds "
          f"({result['traced_rounds']} traced) wall {time.monotonic() - t0:.1f} s")
    print(f"outcome digest {result['digest']}: {result['outcome']['canonical']}")
    wanted = SPEC["per_layer" if args.trace else "end_to_end"]
    source = result["layers"] if args.trace else result["e2e"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": source[name], "unit": unit}
        print(f"  {name:28s} {source[name]!s:>24} {unit}")
    if args.trace:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in result["shares"].items())
        print(f"  round shares: {shares}")
    else:
        # Printed, not a result metric: the open loop makes it 0 by
        # construction, and result metrics must never read 0.
        print(f"  {'generator_lateness_rounds':28s} "
              f"{result['e2e']['generator_lateness_rounds']!s:>24} rounds")
    print(json.dumps({"correct": result["correct"],
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
