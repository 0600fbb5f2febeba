// Software write-combining for the radix scatter (the classic in-memory
// partitioning technique: Satish et al., Wassenberg & Sanders, Polychroniou
// & Ross).
//
// The forward loop scatters tokens into hundreds of per-(src shard, dst
// page) SoA buckets. Pushing directly means every token dirties three
// far-apart cache lines (one per column tail), and with hundreds of open
// write streams the hardware gives up: each push is a read-for-ownership
// DRAM round-trip plus a dTLB walk. A WcScatter keeps one 64-byte staging
// line per bucket column in a compact table that DOES fit in L1/L2; pushes
// land in the staging line, and only a FULL line is written to the real
// bucket tail — one line-sized burst per 8/16/32 tokens instead of three
// touches per token.
//
// Full lines are written with non-temporal stores wherever SSE2 exists: the
// bucket tails are not re-read until a later phase, so bypassing the cache
// skips the RFO read entirely (measured: without streaming, staging loses to
// direct pushes — EXPERIMENTS.md "Scatter modes re-measured"). Targets
// without SSE2 fall back to plain memcpy. flush_all() ends with one sfence;
// the engine's pool barrier would also order the stores, but the fence
// makes the handoff self-contained.
//
// Determinism contract: per-bucket element order under WC buffering is
// byte-identical to direct push_back order — elements enter the staging
// line in push order and lines are flushed in order, so this is pure
// plumbing under the engine's S-invariance (golden baselines do not move).
//
// Bucket interface (see TokenSoup::HandoffBucket, tests/wc_buffer_test.cpp):
//   std::uint64_t* src();  std::uint32_t* dst();  std::uint16_t* meta();
//   void wc_reserve(n);   // cap >= n; growth may copy garbage tails
//   void wc_commit(n);    // size = n (absolute), after tails are in place
// Alignment contract: the bucket block is 64-byte aligned and its capacity
// is a multiple of 16, so all three column bases are 64-byte aligned and
// every full-line flush targets an aligned line.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace churnstore {

/// One full cache line, non-temporal where SSE2 is available (dst must be
/// 16-byte aligned — the WC alignment contract gives 64).
inline void wc_stream_line(std::byte* dst, const std::byte* line) noexcept {
#if defined(__SSE2__)
  auto* d = reinterpret_cast<__m128i*>(dst);
  const auto* s = reinterpret_cast<const __m128i*>(line);
  _mm_stream_si128(d + 0, _mm_load_si128(s + 0));
  _mm_stream_si128(d + 1, _mm_load_si128(s + 1));
  _mm_stream_si128(d + 2, _mm_load_si128(s + 2));
  _mm_stream_si128(d + 3, _mm_load_si128(s + 3));
#else
  std::memcpy(dst, line, 64);
#endif
}

/// Orders prior non-temporal stores before subsequent reads (no-op in the
/// memcpy fallback).
inline void wc_stream_fence() noexcept {
#if defined(__SSE2__)
  _mm_sfence();
#endif
}

/// Write-combining front end for a contiguous array of SoA buckets with the
/// engine's token record shape: (u64 src, u32 dst, u16 meta). Hard-coding
/// the shape keeps push() at three masked stores — the hot loop runs this
/// tens of millions of times per round. Full-line flushes stream past the
/// cache, so the fronted buckets should not be re-read before a later phase.
///
/// Not thread-safe: one WcScatter per shard, touched only by that shard's
/// task — the same contract as the buckets it fronts.
template <class Bucket>
class WcScatter {
 public:
  /// Line quanta per column: 8 x u64 / 16 x u32 / 32 x u16 fill 64 bytes.
  static constexpr std::uint32_t kLine0 = 8;
  static constexpr std::uint32_t kLine1 = 16;
  static constexpr std::uint32_t kLine2 = 32;

  /// Point at `count` buckets (must outlive the scatter or be re-attached).
  /// Staging state is reset; bucket sizes are untouched.
  void attach(Bucket* buckets, std::uint32_t count) {
    buckets_ = buckets;
    count_ = count;
    slots_.assign(count, Slot{});
    counts_.assign(count, 0u);
  }

  [[nodiscard]] std::uint32_t bucket_count() const noexcept { return count_; }
  /// Staged-but-unflushed elements of bucket b (testing / introspection).
  [[nodiscard]] std::uint32_t pending(std::uint32_t b) const noexcept {
    return counts_[b];
  }

  void push(std::uint32_t b, std::uint64_t src, std::uint32_t dst,
            std::uint16_t meta) {
    Slot& sl = slots_[b];
    const std::uint32_t c = counts_[b];
    reinterpret_cast<std::uint64_t*>(sl.line[0])[c & (kLine0 - 1)] = src;
    reinterpret_cast<std::uint32_t*>(sl.line[1])[c & (kLine1 - 1)] = dst;
    reinterpret_cast<std::uint16_t*>(sl.line[2])[c & (kLine2 - 1)] = meta;
    const std::uint32_t n = c + 1;
    counts_[b] = n;
    if ((n & (kLine0 - 1)) == 0) spill(b, n);
  }

  /// Deterministic epilogue: copy every partial staging tail to its column,
  /// commit bucket sizes, reset staging. After this the buckets read exactly
  /// as if every element had been push_back'd directly.
  void flush_all() {
    for (std::uint32_t b = 0; b < count_; ++b) {
      const std::uint32_t n = counts_[b];
      if (n == 0) continue;
      Bucket& bk = buckets_[b];
      bk.wc_reserve(n);
      Slot& sl = slots_[b];
      // Full lines already hit the columns at spill time; each partial tail
      // sits at the front of its staging line (indices wrap at the line
      // quantum), destined for the last committed line boundary.
      const std::uint32_t t0 = n & (kLine0 - 1);
      const std::uint32_t t1 = n & (kLine1 - 1);
      const std::uint32_t t2 = n & (kLine2 - 1);
      if (t0 != 0) {
        std::memcpy(reinterpret_cast<std::byte*>(bk.src()) +
                        std::size_t{n - t0} * 8,
                    sl.line[0], std::size_t{t0} * 8);
      }
      if (t1 != 0) {
        std::memcpy(reinterpret_cast<std::byte*>(bk.dst()) +
                        std::size_t{n - t1} * 4,
                    sl.line[1], std::size_t{t1} * 4);
      }
      if (t2 != 0) {
        std::memcpy(reinterpret_cast<std::byte*>(bk.meta()) +
                        std::size_t{n - t2} * 2,
                    sl.line[2], std::size_t{t2} * 2);
      }
      bk.wc_commit(n);
      counts_[b] = 0;
    }
    wc_stream_fence();
  }

 private:
  struct Slot {
    alignas(64) std::byte line[3][64];
  };

  /// Write the just-completed col-0 line (and col-1/col-2 lines when their
  /// larger quanta also completed) to the bucket tails. n is a multiple of 8.
  void spill(std::uint32_t b, std::uint32_t n) {
    Bucket& bk = buckets_[b];
    bk.wc_reserve(n);
    assert((reinterpret_cast<std::uintptr_t>(bk.src()) & 63) == 0 &&
           "WC bucket block must be 64-byte aligned");
    Slot& sl = slots_[b];
    wc_stream_line(reinterpret_cast<std::byte*>(bk.src()) +
                       std::size_t{n - kLine0} * 8,
                   sl.line[0]);
    if ((n & (kLine1 - 1)) == 0) {
      wc_stream_line(reinterpret_cast<std::byte*>(bk.dst()) +
                         std::size_t{n - kLine1} * 4,
                     sl.line[1]);
    }
    if ((n & (kLine2 - 1)) == 0) {
      wc_stream_line(reinterpret_cast<std::byte*>(bk.meta()) +
                         std::size_t{n - kLine2} * 2,
                     sl.line[2]);
    }
  }

  Bucket* buckets_ = nullptr;
  std::uint32_t count_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> counts_;
};

}  // namespace churnstore
