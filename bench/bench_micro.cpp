// Microbenchmarks (google-benchmark) for the hot kernels underneath the
// simulation: PRNG, GF(256) fused multiply-accumulate, IDA encode/decode,
// graph generation and rewiring, spectral estimation, and a full soup step.
#include <benchmark/benchmark.h>

#include "coding/gf256.h"
#include "coding/ida.h"
#include "graph/regular_generator.h"
#include "graph/rewirer.h"
#include "graph/spectral.h"
#include "net/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "walk/token_soup.h"

using namespace churnstore;

namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngNextBelow(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(8));
}
BENCHMARK(BM_RngNextBelow);

void BM_Gf256MulAcc(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> src(len, 0x5a), dst(len, 0x11);
  gf256::ensure_tables();
  for (auto _ : state) {
    gf256::mul_acc(dst.data(), src.data(), 0x37, len);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_Gf256MulAcc)->Arg(256)->Arg(4096);

void BM_IdaEncode(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(size, 0xab);
  IdaCodec codec(6, 12);
  for (auto _ : state) {
    auto pieces = codec.encode(data);
    benchmark::DoNotOptimize(pieces.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_IdaEncode)->Arg(1024)->Arg(16384);

void BM_IdaDecode(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(size, 0xab);
  IdaCodec codec(6, 12);
  const auto pieces = codec.encode(data);
  std::vector<IdaPiece> subset(pieces.begin() + 3, pieces.begin() + 9);
  for (auto _ : state) {
    auto out = codec.decode(subset, size);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_IdaDecode)->Arg(1024)->Arg(16384);

void BM_RandomRegularGraph(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    auto g = random_regular_graph(n, 8, rng);
    benchmark::DoNotOptimize(g.slot_count());
  }
}
BENCHMARK(BM_RandomRegularGraph)->Arg(1024)->Arg(8192);

void BM_RewireRound(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  Rng rng(7);
  auto g = random_regular_graph(n, 8, rng);
  Rewirer rw(Rewirer::Options{.swaps_per_round = n / 8,
                              .connectivity_check_period = 0},
             rng.fork(1));
  for (auto _ : state) benchmark::DoNotOptimize(rw.apply(g));
}
BENCHMARK(BM_RewireRound)->Arg(1024)->Arg(8192);

void BM_SpectralEstimate(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  Rng rng(7);
  const auto g = random_regular_graph(n, 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(second_eigenvalue_estimate(g, rng));
  }
}
BENCHMARK(BM_SpectralEstimate)->Arg(1024)->Arg(4096);

void BM_SoupStep(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  SimConfig cfg;
  cfg.n = n;
  cfg.seed = 3;
  cfg.churn.kind = AdversaryKind::kUniform;
  cfg.churn.k = 1.5;
  cfg.churn.multiplier = 0.5;
  Network net(cfg);
  TokenSoup soup(net, WalkConfig{});
  // Fill the pipeline so we measure the steady state.
  for (std::uint32_t i = 0; i < 2 * soup.tau(); ++i) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
  for (auto _ : state) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(soup.tokens_alive()));
}
BENCHMARK(BM_SoupStep)->Arg(1024)->Arg(4096);

void BM_SoupStepSharded(benchmark::State& state) {
  // The sharded engine at S shards on a worker pool; bit-identical to the
  // serial run, so any throughput difference is pure execution. Compare
  // S=1 vs S=4/16 rows for the speedup (>= 2x at 4+ shards on a multi-core
  // host is the acceptance bar; a single-core host pins all rows at ~1x).
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto shards = static_cast<std::uint32_t>(state.range(1));
  SimConfig cfg;
  cfg.n = n;
  cfg.seed = 3;
  cfg.churn.kind = AdversaryKind::kUniform;
  cfg.churn.k = 1.5;
  cfg.churn.multiplier = 0.5;
  cfg.shards = shards;
  ThreadPool pool;
  Network net(cfg);
  if (shards != 1) net.set_worker_pool(&pool);
  TokenSoup soup(net, WalkConfig{});
  for (std::uint32_t i = 0; i < 2 * soup.tau(); ++i) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
  for (auto _ : state) {
    net.begin_round();
    soup.step();
    net.deliver();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(soup.tokens_alive()));
}
BENCHMARK(BM_SoupStepSharded)
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({4096, 16})
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({100000, 16})
    ->Unit(benchmark::kMillisecond);

/// --- walk-forward inner loop, isolated ------------------------------------
/// The exact per-token work of TokenSoup phase 1 (read token, decrement the
/// hop counter, pick a uniform neighbor, stage the handoff) over a synthetic
/// soup, in the shipped design: flat SoA columns (8-byte src + 2-byte packed
/// meta) plus stream_fill_below, which generates the whole per-vertex draw
/// batch up front so neighbors are gathered off the buffer. items/sec is
/// tokens forwarded per second.

constexpr std::uint32_t kWalkV = 4096;  ///< vertices
constexpr std::uint32_t kWalkK = 24;    ///< tokens per vertex
constexpr std::uint32_t kWalkD = 16;    ///< degree

std::vector<Vertex> walk_neighbor_table() {
  std::vector<Vertex> nbr(static_cast<std::size_t>(kWalkV) * kWalkD);
  Rng rng(77);
  for (auto& u : nbr) u = static_cast<Vertex>(rng.next_below(kWalkV));
  return nbr;
}

void BM_WalkInnerSoaBatched(benchmark::State& state) {
  const std::vector<Vertex> nbr = walk_neighbor_table();
  const std::size_t total = static_cast<std::size_t>(kWalkV) * kWalkK;
  std::vector<std::uint64_t> qsrc(total);
  std::vector<std::uint16_t> qmeta(total, 40);
  for (std::size_t i = 0; i < total; ++i) qsrc[i] = i;
  std::vector<std::uint64_t> osrc(total);
  std::vector<Vertex> odst(total);
  std::vector<std::uint16_t> ometa(total);
  std::vector<std::uint32_t> draws(kWalkK);
  std::uint64_t key = 1;
  for (auto _ : state) {
    std::size_t w = 0;
    for (Vertex v = 0; v < kWalkV; ++v) {
      stream_fill_below(key, v, kWalkD, draws.data(), kWalkK);
      const Vertex* row = nbr.data() + static_cast<std::size_t>(v) * kWalkD;
      const std::size_t base = static_cast<std::size_t>(v) * kWalkK;
      for (std::uint32_t j = 0; j < kWalkK; ++j, ++w) {
        osrc[w] = qsrc[base + j];
        odst[w] = row[draws[j]];
        ometa[w] = static_cast<std::uint16_t>(qmeta[base + j] - 2);
      }
    }
    benchmark::DoNotOptimize(osrc.data());
    benchmark::DoNotOptimize(odst.data());
    ++key;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_WalkInnerSoaBatched);

}  // namespace

BENCHMARK_MAIN();
