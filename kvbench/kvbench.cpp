// kvbench — churnstore's KV benchmark program.
//
// Drives the paper stack (protocol=churnstore) through the downstream API
// only: build_stack, KvStore::put/get/result, P2PSystem::search_status and
// P2PSystem::run_round. One workload per process, so the peak RSS belongs
// to that workload alone.
//
//   kvbench --workload kv_light --seed 1 --seconds 10 [--trace 1]
//
// Traffic is an open loop in simulated time: puts and gets are issued on a
// fixed per-round schedule whether or not earlier requests have completed,
// so the generator is never late. Set-up runs the same stream for one
// search timeout before the timed window opens, so the gets in flight are
// already at their steady-state count.
//
// The timed window is a fixed number of rounds, seconds x the workload's
// nominal rounds/s on the reference host (a 4-core Sapphire Rapids VM).
// Fixing rounds rather than wall time keeps every protocol outcome a pure
// function of (workload, seed, seconds, n): the outcome digest printed with
// each run is identical across repeats, shard counts, and traced vs
// untraced runs.
//
// With --trace 1 the first half of the window runs untraced and the second
// half runs with phase timing and an ObsSession chrome trace attached; the
// per-layer numbers come from the traced half, and obs.overhead_frac
// compares the two halves' rounds/s.
//
// Prints one JSON object as the last line of stdout (kvbench/run.py turns
// it into the benchmark's result line).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/kv_store.h"
#include "core/stacks.h"
#include "core/system.h"
#include "obs/export.h"
#include "util/heap_sentinel.h"
#include "util/resource.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#ifndef KVBENCH_BUILD_TYPE
#define KVBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define KVBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define KVBENCH_COMPILER "gcc " __VERSION__
#else
#define KVBENCH_COMPILER "unknown"
#endif

namespace {

using namespace churnstore;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-16-round rates keep every schedule integral: op counts for stream
/// round i are floor((i+1)k/16) - floor(ik/16).
struct Workload {
  const char* name;
  std::uint32_t initial_keys;  ///< stored during set-up
  std::uint32_t gets_per16;
  std::uint32_t puts_per16;
  double nominal_rps;          ///< reference-host rounds/s; sizes the window
};

/// Correctness floor on get_located_frac: a broken search reads ~0, while
/// seed-to-seed sampling noise stays within a few percent of ~0.9.
constexpr double kMinLocatedFrac = 0.5;

// Each workload puts a different layer on top of the round (see
// kvbench/README.md for the traced shares):
//   kv_light       — the walk soup dominates; storage/search are idle.
//   kv_read_heavy  — ~110 gets in flight: search, deliver and dispatch.
//   kv_store_heavy — 2048+ stored items: committee upkeep and landmarks.
constexpr Workload kWorkloads[] = {
    {"kv_light", 64, 16, 1, 15.0},
    {"kv_read_heavy", 64, 128, 1, 5.3},
    {"kv_store_heavy", 2048, 32, 32, 4.75},
};

std::uint32_t ops_at(std::uint64_t i, std::uint32_t per16) {
  return static_cast<std::uint32_t>((i + 1) * per16 / 16 - i * per16 / 16);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint32_t n = 16384;
  std::uint32_t shards = 4;
  std::int64_t rounds = -1;   ///< timed-window override (tests)
  double spin_frac = 0.0;     ///< planted slowdown, for the regression self-check
  std::string obs_file = "kvbench_trace.json";
};

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got " + key);
    }
    kv[key.substr(2)] = argv[++i];
  }
  auto take = [&](const char* k) -> std::optional<std::string> {
    const auto it = kv.find(k);
    if (it == kv.end()) return std::nullopt;
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  if (auto v = take("workload")) a.workload = *v;
  if (auto v = take("seed")) a.seed = std::stoull(*v);
  if (auto v = take("seconds")) a.seconds = std::stod(*v);
  if (auto v = take("trace")) a.trace = std::stoi(*v) != 0;
  if (auto v = take("n")) a.n = static_cast<std::uint32_t>(std::stoul(*v));
  if (auto v = take("shards")) a.shards = static_cast<std::uint32_t>(std::stoul(*v));
  if (auto v = take("rounds")) a.rounds = std::stoll(*v);
  if (auto v = take("spin-frac")) a.spin_frac = std::stod(*v);
  if (auto v = take("obs-file")) a.obs_file = *v;
  if (!kv.empty()) throw std::invalid_argument("unknown option --" + kv.begin()->first);
  if (a.shards == 0 || a.seconds <= 0.0 || a.spin_frac < 0.0) {
    throw std::invalid_argument("shards and seconds must be > 0, spin-frac >= 0");
  }
  return a;
}

std::string key_name(std::uint64_t seed, std::uint32_t i) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "kv/%016llx/%u",
                static_cast<unsigned long long>(seed), i);
  return buf;
}

/// Value stored under key i: 128 seeded bytes (the configured item size).
std::vector<std::uint8_t> value_bytes(std::uint64_t seed, std::uint32_t i) {
  std::vector<std::uint8_t> v(128);
  std::uint64_t s = mix64(seed ^ (0x76616c7565ULL + i));
  for (std::size_t b = 0; b < v.size(); b += 8) {
    const std::uint64_t w = splitmix64(s);
    std::memcpy(v.data() + b, &w, 8);
  }
  return v;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Smallest r with at least q of the histogram's mass at or below r.
double hist_quantile(const std::vector<std::uint64_t>& h, double q) {
  std::uint64_t total = 0;
  for (const auto c : h) total += c;
  if (total == 0) return std::nan("");
  const auto need = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  std::uint64_t acc = 0;
  for (std::size_t r = 0; r < h.size(); ++r) {
    acc += h[r];
    if (acc >= need) return static_cast<double>(r);
  }
  return static_cast<double>(h.size() - 1);
}

/// Minimal JSON object writer: numbers keep all their digits, NaN -> null.
class Json {
 public:
  Json& num(const char* k, double v) {
    key(k);
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    } else {
      out_ += "null";
    }
    return *this;
  }
  Json& str(const char* k, const std::string& v) {
    key(k);
    out_ += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out_ += c;
    }
    out_ += '"';
    return *this;
  }
  Json& boolean(const char* k, bool v) {
    key(k);
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& raw(const char* k, const std::string& v) {
    key(k);
    out_ += v;
    return *this;
  }
  [[nodiscard]] std::string done() const { return "{" + out_ + "}"; }

 private:
  void key(const char* k) {
    if (!out_.empty()) out_ += ',';
    out_ += '"';
    out_ += k;
    out_ += "\":";
  }
  std::string out_;
};

/// Counter snapshot at a window boundary (deltas give per-round rates).
struct Counters {
  std::uint64_t bits = 0, messages = 0, dropped = 0;
  std::uint64_t spawned = 0, lost = 0;
  std::uint64_t formed = 0, committees_lost = 0;
  std::uint64_t lm_created = 0, lm_collisions = 0;

  static Counters read(const Metrics& m) {
    return Counters{m.total_bits(),        m.total_messages(),
                    m.dropped_messages(),  m.tokens_spawned(),
                    m.tokens_lost(),       m.committees_formed(),
                    m.committees_lost(),   m.landmarks_created(),
                    m.landmark_collisions()};
  }
};

/// Outcomes of the gets decided (finished) inside the timed window, and of
/// the puts attempted there. A get's fate is decided within one search
/// timeout of its issue, and set-up prefills the stream for exactly one
/// timeout, so the gets decided in the window are a steady-state sample.
struct Outcome {
  std::uint64_t puts_attempted = 0, puts_ok = 0;
  std::uint64_t gets_decided = 0, located = 0, fetched = 0, censored = 0;
  std::uint64_t mismatched = 0;  ///< fetched bytes differ from the bytes put
  std::vector<std::uint64_t> locate_hist;  ///< rounds from issue to locate
  std::uint64_t bits = 0;
  std::uint64_t tokens_alive = 0;

  [[nodiscard]] std::string canonical() const {
    std::string s = "puts_attempted=" + std::to_string(puts_attempted) +
                    " puts_ok=" + std::to_string(puts_ok) +
                    " gets_decided=" + std::to_string(gets_decided) +
                    " located=" + std::to_string(located) +
                    " fetched=" + std::to_string(fetched) +
                    " censored=" + std::to_string(censored) +
                    " bits=" + std::to_string(bits) +
                    " tokens_alive=" + std::to_string(tokens_alive) + " hist=";
    for (std::size_t r = 0; r < locate_hist.size(); ++r) {
      if (locate_hist[r] != 0) {
        s += std::to_string(r) + ":" + std::to_string(locate_hist[r]) + ",";
      }
    }
    return s;
  }
  [[nodiscard]] std::string digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : canonical()) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

struct InFlight {
  std::uint64_t handle;
  std::uint32_t key;
};

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) throw std::invalid_argument("unknown workload " + args.workload);

  const auto t_setup0 = Clock::now();
  SystemConfig cfg;
  cfg.sim.n = args.n;
  cfg.sim.seed = mix64(args.seed ^ 0x6b7662656e6368ULL);
  cfg.sim.churn = ChurnSpec{.kind = AdversaryKind::kUniform, .k = 1.5, .multiplier = 0.5};
  cfg.sim.shards = args.shards;

  // shards - 1 pool workers plus the calling thread, which helps run shards.
  std::optional<ThreadPool> pool;  // outlives the system (declared first)
  if (args.shards > 1) pool.emplace(args.shards - 1);
  BuiltSystem built = build_stack("churnstore", cfg);
  P2PSystem& sys = *built.system;
  if (pool) sys.set_shard_pool(&*pool);
  KvStore kv(sys);
  const double build_s = secs_since(t_setup0);

  Rng rng(mix64(args.seed ^ 0x776f726b6c6f6164ULL));
  const std::uint32_t tau = sys.tau();
  std::vector<double> put_us, get_us;
  std::vector<Round> put_round;            // per key; -1 = not stored
  std::vector<std::uint32_t> settled;      // keys aged >= tau: get targets
  std::size_t settle_cursor = 0;           // into put order
  std::vector<std::uint32_t> put_order;
  std::vector<InFlight> inflight;
  std::uint64_t mismatches = 0;

  auto put = [&](std::uint32_t tries) -> bool {
    const auto key = static_cast<std::uint32_t>(put_round.size());
    put_round.push_back(-1);
    const std::string name = key_name(args.seed, key);
    for (std::uint32_t t = 0; t < tries; ++t) {
      const auto creator = static_cast<Vertex>(rng.next_below(sys.n()));
      auto value = value_bytes(args.seed, key);
      const auto t0 = Clock::now();
      const bool ok = kv.put(creator, name, std::move(value));
      put_us.push_back(secs_since(t0) * 1e6);
      if (ok) {
        put_round[key] = sys.round();
        put_order.push_back(key);
        return true;
      }
    }
    return false;
  };
  auto settle = [&] {
    while (settle_cursor < put_order.size() &&
           put_round[put_order[settle_cursor]] + tau <= sys.round()) {
      settled.push_back(put_order[settle_cursor++]);
    }
  };
  auto get = [&] {
    if (settled.empty()) return;
    const std::uint32_t key = settled[rng.next_below(settled.size())];
    const auto initiator = static_cast<Vertex>(rng.next_below(sys.n()));
    const std::string name = key_name(args.seed, key);
    const auto t0 = Clock::now();
    const std::uint64_t h = kv.get(initiator, name);
    get_us.push_back(secs_since(t0) * 1e6);
    inflight.push_back({h, key});
  };

  Outcome out;
  out.locate_hist.assign(sys.search_timeout() + 2, 0);
  // Decide every finished get; tally it when `counting` (timed window).
  // The byte-equality gate applies to every fetched value, set-up included.
  auto poll = [&](bool counting) {
    std::size_t keep = 0;
    for (const InFlight& f : inflight) {
      const SearchStatus* st = sys.search_status(f.handle);
      if (st == nullptr) throw std::runtime_error("search_status lost a handle");
      if (!st->finished) {
        inflight[keep++] = f;
        continue;
      }
      const auto r = kv.result(f.handle);
      const bool equal = r && r->found && r->value == value_bytes(args.seed, f.key);
      const bool mismatch = r && r->found && !equal;
      mismatches += mismatch;
      if (!counting) continue;
      ++out.gets_decided;
      out.mismatched += mismatch;
      if (st->located >= 0) {
        ++out.located;
        const auto lat = static_cast<std::size_t>(st->located - st->start);
        ++out.locate_hist[std::min(lat, out.locate_hist.size() - 1)];
      }
      if (equal) ++out.fetched;
      if (st->initiator_churned) ++out.censored;
    }
    inflight.resize(keep);
  };

  // Stream round i of the open-loop schedule (prefill and window share i).
  std::uint64_t stream_i = 0;
  auto issue = [&](bool counting) {
    settle();
    for (std::uint32_t p = ops_at(stream_i, wl->puts_per16); p > 0; --p) {
      const bool ok = put(1);
      if (counting) {
        ++out.puts_attempted;
        out.puts_ok += ok;
      }
    }
    for (std::uint32_t g = ops_at(stream_i, wl->gets_per16); g > 0; --g) get();
    ++stream_i;
  };

  // Warm-up: fill the sample buffers; the initial keys go in over its
  // second tau (creators' samples are warm by then), so they are settled
  // by the time the prefill starts.
  const auto t_warm0 = Clock::now();
  const std::uint32_t warmup = sys.warmup_rounds();
  for (std::uint32_t w = 0; w < warmup; ++w) {
    if (w >= tau && w < 2 * tau) {
      const std::uint32_t j = w - tau;
      const std::uint32_t k = (j + 1) * wl->initial_keys / tau - j * wl->initial_keys / tau;
      for (std::uint32_t i = 0; i < k; ++i) put(8);
    }
    sys.run_round();
  }
  const double warmup_s = secs_since(t_warm0);

  // Prefill: one search timeout of the request stream, untimed.
  for (std::uint32_t r = 0; r < sys.search_timeout(); ++r) {
    issue(false);
    sys.run_round();
    poll(false);
  }
  const double setup_s = secs_since(t_setup0);

  const std::uint32_t window = args.rounds > 0
      ? static_cast<std::uint32_t>(args.rounds)
      : static_cast<std::uint32_t>(std::max(8.0, std::round(args.seconds * wl->nominal_rps)));
  const std::uint32_t traced_from = args.trace ? window / 2 : window;

  const Counters c0 = Counters::read(sys.metrics());
  Counters ct{};
  std::vector<double> step_ms;
  step_ms.reserve(window);
  double tokens_alive_sum = 0.0, search_active_sum = 0.0;  // traced rounds
  std::optional<ObsSession> session;
  double untraced_s = 0.0, traced_s = 0.0;
  const std::size_t arenas = sys.network().shards().count();

  for (std::uint32_t r = 0; r < window; ++r) {
    if (r == traced_from) {
      ct = Counters::read(sys.metrics());
      sys.enable_phase_timing(true);
      sys.reset_phase_timers();
      sys.reset_heap_stats();
      ObsConfig obs;
      obs.mode = ObsConfig::Mode::kChrome;
      obs.path = args.obs_file;
      obs.sample_every = 16;
      session.emplace(sys, obs);
    }
    const auto t0 = Clock::now();
    issue(true);
    sys.run_round();
    poll(true);
    double dt = secs_since(t0);
    if (args.spin_frac > 0.0) {
      const auto until = Clock::now() + std::chrono::duration<double>(dt * args.spin_frac);
      while (Clock::now() < until) {
      }
      dt = secs_since(t0);
    }
    if (r >= traced_from) {
      traced_s += dt;
      step_ms.push_back(dt * 1e3);
      tokens_alive_sum += static_cast<double>(sys.soup().tokens_alive());
      search_active_sum += static_cast<double>(sys.searches().active_searches());
    } else {
      untraced_s += dt;
    }
  }
  if (session) session->finalize();
  sys.enable_phase_timing(false);

  const Counters c1 = Counters::read(sys.metrics());
  out.bits = c1.bits - c0.bits;
  out.tokens_alive = sys.soup().tokens_alive();

  const double located_frac = out.gets_decided == 0 ? 0.0
      : static_cast<double>(out.located) / static_cast<double>(out.gets_decided);
  const double fetched_frac = out.gets_decided == 0 ? 0.0
      : static_cast<double>(out.fetched) / static_cast<double>(out.gets_decided);
  const double put_ok_frac = out.puts_attempted == 0 ? 1.0
      : static_cast<double>(out.puts_ok) / static_cast<double>(out.puts_attempted);
  const bool correct = mismatches == 0 && out.gets_decided > 0 &&
                       located_frac >= kMinLocatedFrac;

  Json e2e;
  e2e.num("setup_s", setup_s)
      .num("rounds_per_s", untraced_s > 0.0 ? traced_from / untraced_s : std::nan(""))
      .num("maxrss_mb", static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0))
      .num("get_located_frac", located_frac)
      .num("get_fetched_frac", fetched_frac)
      .num("put_ok_frac", put_ok_frac)
      .num("locate_rounds_p50", hist_quantile(out.locate_hist, 0.5))
      .num("locate_rounds_p90", hist_quantile(out.locate_hist, 0.9))
      .num("bits_per_node_round", static_cast<double>(out.bits) /
                                      (static_cast<double>(sys.n()) * window))
      .num("generator_lateness_rounds", 0.0);

  Json layers;
  std::map<std::string, double> share;
  if (args.trace) {
    const double rt = window - traced_from;
    const RoundPhaseTimers& ph = sys.phase_timers();
    std::map<std::string, double> proto_ms;
    for (std::size_t i = 0; i < sys.protocols().size(); ++i) {
      proto_ms[std::string(sys.protocols()[i]->name())] = sys.protocol_secs()[i] * 1e3 / rt;
    }
    const double step_mean = traced_s * 1e3 / rt;
    const double phases_ms = (ph.churn_secs + ph.soup_secs + ph.handler_secs +
                              ph.deliver_secs + ph.dispatch_secs) * 1e3 / rt;
    std::size_t reserved = 0, high_water = 0;
    for (std::size_t s = 0; s < arenas; ++s) {
      reserved += sys.network().shard_arena(static_cast<std::uint32_t>(s)).bytes_reserved();
      high_water += sys.network().shard_arena(static_cast<std::uint32_t>(s)).high_water();
    }
    const auto per_round = [rt](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a) / rt;
    };
    const auto frac = [](std::uint64_t num, std::uint64_t den) {
      return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
    };
    const double rps_untraced = traced_from / untraced_s;
    const double rps_traced = rt / traced_s;
    layers.num("core.dispatch_ms", ph.dispatch_secs * 1e3 / rt)
        .num("core.round_other_ms", step_mean - phases_ms)
        .num("core.round_ms_p50", quantile(step_ms, 0.5))
        .num("core.round_ms_p95", quantile(step_ms, 0.95))
        .num("core.put_call_us", quantile(put_us, 0.5))
        .num("core.get_call_us", quantile(get_us, 0.5))
        .num("core.build_s", build_s)
        .num("core.warmup_s", warmup_s)
        .num("net.churn_ms", ph.churn_secs * 1e3 / rt)
        .num("net.deliver_ms", ph.deliver_secs * 1e3 / rt)
        .num("net.messages_per_round", per_round(ct.messages, c1.messages))
        .num("net.dropped_frac", frac(c1.dropped - ct.dropped, c1.messages - ct.messages))
        .num("walk.ms", ph.soup_secs * 1e3 / rt)
        .num("walk.ns_per_token", ph.soup_secs * 1e9 / tokens_alive_sum)
        .num("walk.tokens_alive", tokens_alive_sum / rt)
        .num("walk.lost_frac", frac(c1.lost - ct.lost, c1.spawned - ct.spawned))
        .num("committee.ms", proto_ms["committee"])
        .num("committee.formed_per_round", per_round(ct.formed, c1.formed))
        .num("committee.lost_per_round", per_round(ct.committees_lost, c1.committees_lost))
        .num("landmark.ms", proto_ms["landmark"])
        .num("landmark.created_per_round", per_round(ct.lm_created, c1.lm_created))
        .num("landmark.collision_frac",
             frac(c1.lm_collisions - ct.lm_collisions, c1.lm_created - ct.lm_created))
        .num("search.ms", proto_ms["search"])
        .num("search.active", search_active_sum / rt)
        .num("store.ms", proto_ms["store"])
        .num("store.items", static_cast<double>(sys.store().item_count()))
        .num("util.heap_allocs_per_round",
             HeapSentinel::available()
                 ? static_cast<double>(sys.heap_stats().allocs) / rt
                 : std::nan(""))
        .num("util.arena_reserved_mb", static_cast<double>(reserved) / (1024.0 * 1024.0))
        .num("util.arena_high_water_mb", static_cast<double>(high_water) / (1024.0 * 1024.0))
        .num("obs.overhead_frac", 1.0 - rps_traced / rps_untraced);
    share["walk"] = ph.soup_secs * 1e3 / rt / step_mean;
    share["net.churn"] = ph.churn_secs * 1e3 / rt / step_mean;
    share["net.deliver"] = ph.deliver_secs * 1e3 / rt / step_mean;
    share["core.dispatch"] = ph.dispatch_secs * 1e3 / rt / step_mean;
    share["core.other"] = (step_mean - phases_ms) / step_mean;
    for (const char* p : {"committee", "landmark", "store", "search"}) {
      share[p] = proto_ms[p] / step_mean;
    }
  }
  Json shares;
  for (const auto& [k, v] : share) shares.num(k.c_str(), v);

  Json outcome;
  outcome.num("mismatches", static_cast<double>(mismatches))
      .str("canonical", out.canonical());

  Json top;
  top.str("workload", wl->name)
      .num("seed", static_cast<double>(args.seed))
      .num("n", sys.n())
      .num("shards", args.shards)
      .num("window_rounds", window)
      .num("traced_rounds", window - traced_from)
      .str("digest", out.digest())
      .boolean("correct", correct)
      .num("attempted", static_cast<double>(out.puts_attempted + out.gets_decided))
      .num("failed", static_cast<double>(out.mismatched))
      .raw("e2e", e2e.done())
      .raw("layers", layers.done())
      .raw("shares", shares.done())
      .raw("outcome", outcome.done())
      .str("compiler", KVBENCH_COMPILER)
      .str("build_type", KVBENCH_BUILD_TYPE);
  std::printf("%s\n", top.done().c_str());
  return correct ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kvbench: %s\n", e.what());
    return 2;
  }
}
