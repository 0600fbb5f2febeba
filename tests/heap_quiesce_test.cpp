// The heap-quiet steady state, proven end to end: after warm-up, the
// soup_step kernel (begin_round / TokenSoup::step / deliver — exactly the
// loop the M2 bench times) performs ZERO global-heap allocations per
// round, at S=1 and S=16 alike. This is the runtime cross-check of
// shardcheck R6/R7: the linter says hot regions *lexically* cannot
// allocate, the HeapQuiesceScope says the executed rounds *actually*
// didn't. The full paper stack is measured honestly too — its committee /
// landmark / search control planes allocate by design (every such site
// carries a reasoned R6 suppression), so the full-stack test records the
// traffic instead of asserting silence.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/system.h"
#include "net/network.h"
#include "obs/trace.h"
#include "shardcheck/shardcheck.h"
#include "util/heap_sentinel.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "walk/token_soup.h"

namespace {

using churnstore::HeapQuiesceScope;
using churnstore::HeapSentinel;
using churnstore::Network;
using churnstore::P2PSystem;
using churnstore::SystemConfig;
using churnstore::ThreadPool;
using churnstore::TokenSoup;

void run_soup_rounds(Network& net, TokenSoup& soup, std::uint32_t rounds) {
  for (std::uint32_t i = 0; i < rounds; ++i) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
}

class HeapQuiesceSoup : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(HeapQuiesceSoup, SteadyStateSoupRoundsAreHeapQuiet) {
  if (!HeapQuiesceScope::supported()) {
    GTEST_SKIP() << "sentinel unavailable: quiet() would be vacuous";
  }
  const std::uint32_t shards = GetParam();
  SystemConfig cfg;
  cfg.sim.n = 1024;
  cfg.sim.seed = 7;
  cfg.sim.shards = shards;

  ThreadPool pool(0);
  Network net(cfg.sim);
  if (shards != 1) net.set_worker_pool(&pool);
  TokenSoup soup(net, cfg.walk);

  // Fill the pipeline past the mixing horizon, plus slack so every lane,
  // queue, and sample buffer has seen its high-water mark.
  run_soup_rounds(net, soup, 2 * soup.tau() + 8);
  ASSERT_GT(soup.tokens_alive(), 0u);

  const HeapQuiesceScope probe;
  constexpr std::uint32_t kRounds = 32;
  run_soup_rounds(net, soup, kRounds);
  const auto d = probe.delta();
  EXPECT_TRUE(probe.quiet())
      << "steady-state soup rounds allocated: " << d.allocs << " allocs / "
      << d.bytes << " bytes over " << kRounds << " rounds at S=" << shards;
}

/// Instance suffix "S<shards>". Built by append: GCC 12's -Wrestrict
/// misfires on the `"S" + std::to_string(...)` temporary in Release builds.
std::string shard_param_name(
    const ::testing::TestParamInfo<std::uint32_t>& info) {
  std::string name(1, 'S');
  name.append(std::to_string(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(Shards, HeapQuiesceSoup,
                         ::testing::Values(1u, 16u), shard_param_name);

TEST(HeapQuiesceTracing, InstalledAndSampledTracingStaysHeapQuiet) {
  // The PR-9 heap-quiet contract with the tracer in the loop: a bound
  // TraceCollector — first idle (installed, no spans crossing), then with
  // a sampled event burst through BOTH the sharded lanes and the serial
  // path every round — adds zero steady-state global-heap allocations.
  // Lanes are arena-backed, the merged log keeps its capacity across
  // rounds, and histogram adds are O(1) in preallocated bins.
  if (!HeapQuiesceScope::supported()) {
    GTEST_SKIP() << "sentinel unavailable: quiet() would be vacuous";
  }
  using churnstore::make_trace_event;
  using churnstore::mix64;
  using churnstore::RequestClass;
  using churnstore::Round;
  using churnstore::TraceCollector;
  using churnstore::TraceEv;
  using churnstore::TraceEvent;
  using churnstore::Vertex;

  for (const std::uint32_t shards : {1u, 16u}) {
    SystemConfig cfg;
    cfg.sim.n = 1024;
    cfg.sim.seed = 7;
    cfg.sim.shards = shards;
    ThreadPool pool(0);
    Network net(cfg.sim);
    if (shards != 1) net.set_worker_pool(&pool);
    TokenSoup soup(net, cfg.walk);

    TraceCollector tc(cfg.sim.seed, /*sample_every=*/2);
    tc.bind(net);
    net.set_trace_collector(&tc);
    std::uint64_t consumed = 0;
    tc.set_consumer([&consumed](Round, const TraceEvent*, std::size_t count) {
      consumed += count;  // deliberately allocation-free consumer
    });

    const auto traced_round = [&](std::uint64_t salt, bool emit) {
      net.begin_round();
      soup.step();
      if (emit) {
        for (std::uint64_t i = 0; i < 8; ++i) {
          const std::uint64_t id = mix64(salt * 64 + i) | 1;
          if (!tc.sampled(id)) continue;
          net.trace_sharded(
              static_cast<std::uint32_t>(i % net.shards().count()),
              make_trace_event(id, net.round(), static_cast<Vertex>(i), 0, i,
                               RequestClass::kWalkerProbe, TraceEv::kBegin));
          net.trace_serial(
              make_trace_event(id, net.round(), static_cast<Vertex>(i), 3, i,
                               RequestClass::kWalkerProbe, TraceEv::kEndOk));
        }
      }
      net.deliver();
      tc.end_round(net.round());
    };

    // Warm-up: high-water marks for lanes, merged log, and soup queues.
    for (std::uint32_t r = 0; r < 2 * soup.tau() + 8; ++r) {
      traced_round(r, true);
    }

    {
      const HeapQuiesceScope probe;
      for (std::uint32_t r = 0; r < 32; ++r) traced_round(0, false);
      EXPECT_TRUE(probe.quiet())
          << "idle installed tracer allocated " << probe.delta().allocs
          << " times at S=" << shards;
    }
    {
      const std::uint64_t before = consumed;
      const HeapQuiesceScope probe;
      for (std::uint32_t r = 0; r < 32; ++r) traced_round(100 + r, true);
      EXPECT_TRUE(probe.quiet())
          << "sampled tracing allocated " << probe.delta().allocs
          << " times at S=" << shards;
      EXPECT_GT(consumed, before) << "no events crossed; the claim is vacuous";
    }
    net.set_trace_collector(nullptr);
  }
}

TEST(HeapQuiesceStack, FullStackTrafficIsMeasuredNotAsserted) {
  // The paper stack's control plane (committee elections, landmark tree
  // waves, search bookkeeping) allocates by design; the honest claim is a
  // measured allocs/round figure (EXPERIMENTS.md), not silence. This test
  // pins the P2PSystem::run_round accounting plumbing itself.
  SystemConfig cfg;
  cfg.sim.n = 512;
  cfg.sim.seed = 11;
  P2PSystem sys(cfg);
  sys.run_rounds(4);
  EXPECT_EQ(sys.heap_stats().rounds, 4u);
  sys.reset_heap_stats();
  EXPECT_EQ(sys.heap_stats().rounds, 0u);
  constexpr std::uint32_t kRounds = 8;
  sys.run_rounds(kRounds);
  const churnstore::RoundHeapStats& hs = sys.heap_stats();
  EXPECT_EQ(hs.rounds, kRounds);
  if (HeapSentinel::available()) {
    ::testing::Test::RecordProperty(
        "full_stack_allocs_per_round",
        static_cast<int>(hs.allocs / hs.rounds));
  } else {
    // Degraded sentinel: the fields must read zero (unknown), never junk.
    EXPECT_EQ(hs.allocs, 0u);
    EXPECT_EQ(hs.bytes, 0u);
  }
}

TEST(HeapQuiesceBothWays, UnannotatedGrowthIsCaughtStaticallyAndAtRuntime) {
  // The acceptance pin for the R6 <-> sentinel cross-validation: the same
  // mistake — push_back on an un-annotated member inside a sharded hook —
  // is caught lexically by shardcheck AND observed at runtime by a
  // HeapQuiesceScope around the equivalent execution.
  const auto ds = shardcheck::check_source("src/demo.cpp", R"fix(
struct Demo {
  std::vector<int> items_;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) {
    items_.push_back(1);
  }
};
)fix");
  int r6 = 0;
  for (const auto& d : ds) {
    if (d.rule == "R6") ++r6;
  }
  EXPECT_EQ(r6, 1);

  if (HeapQuiesceScope::supported()) {
    std::vector<int> items;  // no reserve: the member the fixture models
    const HeapQuiesceScope probe;
    items.push_back(1);
    EXPECT_FALSE(probe.quiet()) << "runtime sentinel missed the growth";
    EXPECT_GE(probe.delta().allocs, 1u);
  }
}

}  // namespace
