// Per-node buffer of random-walk samples.
//
// When a walk completes its T steps at a node, the node records the walk's
// source id: by the Soup Theorem these sources are near-uniform samples of
// the network, and every protocol building block (committee creation,
// leader re-formation, landmark child selection, search inquiries) draws
// from this buffer. Samples are grouped by arrival round because Algorithm 1
// counts and consumes "the random walks received in round r" specifically.
//
// Representation: cohort groups on the per-shard arena. The n=1M profile
// showed the former deque<Group{vector<PeerId>}> costing ~2 GB in pure
// container overhead (512-byte deque chunks, one malloc per round-group).
// Now every (round, vertex) cohort — all tokens that completed in the same
// round at the same vertex — shares ONE arena block sized exactly to the
// cohort (ShardedArrivals announces the count before filling), and the
// group directory itself is a single compacting arena array. A buffer is
// bound to the arena of the shard owning its vertex (set_arena), so the
// engine's growth (dst-shard task), pruning (dst-shard task) and churn
// clears (serial context) all follow the arena ownership discipline.
// Unbound buffers (unit tests, copies) use the global heap.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "net/types.h"
#include "util/arena.h"
#include "util/sharding.h"

namespace churnstore {

/// Non-owning view of one round-cohort's source list.
using SampleView = std::span<const PeerId>;

class SampleBuffer {
 public:
  SampleBuffer() noexcept = default;
  ~SampleBuffer() { destroy(); }

  /// Deep copies are heap-backed (arena unbound): tests snapshot buffers
  /// past the owning Network's lifetime.
  SampleBuffer(const SampleBuffer& o) { copy_from(o); }
  SampleBuffer& operator=(const SampleBuffer& o) {
    if (this != &o) {
      destroy();
      copy_from(o);
    }
    return *this;
  }
  SampleBuffer(SampleBuffer&& o) noexcept { steal(o); }
  SampleBuffer& operator=(SampleBuffer&& o) noexcept {
    if (this != &o) {
      destroy();
      steal(o);
    }
    return *this;
  }

  /// Bind the arena all groups allocate from (the owning shard's arena).
  /// Only valid while the buffer is empty.
  void set_arena(Arena* arena) noexcept;

  /// Pre-announce `k` samples of the NEXT cohort: the first add() of a new
  /// round-group sizes its block to everything announced, so a cohort costs
  /// exactly one allocation (ShardedArrivals counts, then fills).
  void announce(std::uint32_t k) noexcept { pending_ += k; }

  /// Pre-size the group directory for a retention window of `rounds`
  /// groups in one exact allocation. Without it, every buffer grows its
  /// directory through the same doubling chain during warm-up — in
  /// lockstep across n vertices — stranding each abandoned size class in
  /// the freelists.
  void reserve_rounds(std::uint32_t rounds);

  void add(Round r, PeerId source);

  /// Drop groups with round < keep_from.
  void prune(Round keep_from);

  void clear() noexcept;

  /// Sources of walks that completed exactly in round r (empty if none).
  [[nodiscard]] SampleView at(Round r) const noexcept;

  [[nodiscard]] std::size_t count_at(Round r) const noexcept {
    return at(r).size();
  }

  /// Append to `out` up to `k` distinct most-recent sources (newest rounds
  /// first) that are in neither `out` nor `exclude`; k = 0 appends every
  /// such source. Returns the number appended. Allocation-free once `out`
  /// has the capacity: repeats are found by scanning `out` and `exclude`
  /// behind a stack bitmap that lets nearly every new source skip the scan,
  /// so large k (sqrt(n)-sized replica sets) stays cheap. `exclude` must
  /// not alias `out`.
  std::size_t recent_distinct(std::size_t k, std::span<const PeerId> exclude,
                              std::vector<PeerId>& out) const;

  [[nodiscard]] std::size_t total() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return gcount_ == 0; }

  /// Exact equality, including per-group insertion order — the determinism
  /// tests compare whole buffers across shard counts with this.
  [[nodiscard]] friend bool operator==(const SampleBuffer& a,
                                       const SampleBuffer& b) noexcept {
    return a.equals(b);
  }

 private:
  /// One arrival-round cohort: every source shares the single `sources`
  /// block (exact-size when announced, doubling otherwise).
  struct Group {
    Round round;
    PeerId* sources;
    std::uint32_t size;
    std::uint32_t cap;
  };

  [[nodiscard]] Group* groups() noexcept { return groups_ + ghead_; }
  [[nodiscard]] const Group* groups() const noexcept { return groups_ + ghead_; }

  [[nodiscard]] void* alloc(std::size_t bytes) const;
  void dealloc(void* p, std::size_t bytes) const noexcept;

  void push_group(Round r, std::uint32_t cap);
  void grow_group(Group& g);
  void destroy() noexcept;
  void copy_from(const SampleBuffer& o);
  void steal(SampleBuffer& o) noexcept;
  [[nodiscard]] bool equals(const SampleBuffer& o) const noexcept;

  Group* groups_ = nullptr;  ///< directory block: [ghead_, ghead_+gcount_)
  std::uint32_t ghead_ = 0;
  std::uint32_t gcount_ = 0;
  std::uint32_t gcap_ = 0;
  std::uint32_t pending_ = 0;  ///< announced size of the next cohort
  Arena* arena_ = nullptr;
};

/// Per-shard staging of walk completions for the sharded round engine.
//
// Shard tasks may not touch a destination vertex's SampleBuffer directly
// (the destination usually lives in another shard), so each SOURCE shard
// stages its completions here, bucketed by a caller-defined DESTINATION
// partition. After the barrier, each destination shard applies the
// buckets addressed to it in ascending (bucket, source-shard) order.
// Because shards are contiguous and scanned in ascending vertex order,
// that merge equals the ascending global source-vertex order per
// destination vertex — the buffers end up bit-identical for every shard
// count AND for every destination-bucket granularity.
//
// The destination partition is usually finer than a shard: TokenSoup
// buckets by destination PAGE (a power-of-two vertex range whose queues
// and sample state fit in L2), so the apply scatter — the header, the
// group directory, and the cohort block of random vertices — stays
// inside a cache-resident window instead of paying DRAM latency per
// completion across the whole shard span.
class ShardedArrivals {
 public:
  /// Size (or resize) the src_shards x dst_buckets grid and clear every
  /// bucket. Buckets keep their capacity across rounds.
  void reset(std::uint32_t src_shards, std::uint32_t dst_buckets);

  /// Stage a completion observed by `src_shard`: the walk from `source`
  /// finished at vertex `dst`, which maps to `dst_bucket` under the
  /// caller's partition. Only `src_shard`'s task may call this.
  void stage(std::uint32_t src_shard, std::uint32_t dst_bucket, Vertex dst,
             PeerId source);

  /// Apply buckets [first_bucket, last_bucket] into `buffers` (indexed by
  /// vertex) as round-`r` samples, in canonical source order, skipping
  /// arrivals outside [vbegin, vend) — a bucket that straddles a shard
  /// boundary is applied by BOTH neighboring shards, each filing only its
  /// own vertices (concurrent reads are safe). Each bucket runs two
  /// passes — announce per-vertex cohort sizes, then fill — so every
  /// cohort lands in one exact-size arena block and the scatter stays in
  /// the bucket's window. Only the owning dst task may pass a vertex
  /// range it owns.
  void apply_to(std::uint32_t first_bucket, std::uint32_t last_bucket,
                Vertex vbegin, Vertex vend, Round r,
                std::vector<SampleBuffer>& buffers) const;

  [[nodiscard]] std::size_t staged_total() const noexcept;

 private:
  struct Arrival {
    Vertex dst;
    PeerId source;
  };
  std::uint32_t src_shards_ = 0;
  std::uint32_t dst_buckets_ = 0;
  std::vector<std::vector<Arrival>> buckets_;  ///< [src * dst_buckets_ + b]
};

}  // namespace churnstore
