// The "soup of random walks" (paper section 3).
//
// Every node starts walks_per_round fresh walk tokens each round (the
// paper's alpha log n walks) and forwards up to forward_cap tokens per round
// (the paper's 2h log n cap); excess tokens queue at the node. A token moves
// to a uniformly random current neighbor each round; after T steps it is
// delivered to the node it landed on, which records the token's source id in
// its SampleBuffer. Tokens sitting at a churned-out node are destroyed —
// exactly the loss/bias mechanism the Soup Theorem bounds.
//
// Besides the steady-state soup, the class supports tagged probe walks whose
// completions are reported through a hook instead of sample buffers; the
// Soup-Theorem and mixing benches (E1-E3) use probes to measure the
// source->destination distribution directly.
//
// TokenSoup is a Protocol module: register it first in a stack (siblings
// read its tau() during their own on_attach).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/protocol.h"
#include "net/config.h"
#include "net/network.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/wc_buffer.h"
#include "walk/sampler.h"

namespace churnstore {

class TokenSoup final : public Protocol {
 public:
  explicit TokenSoup(const WalkConfig& config = {});
  /// Construct and attach in one step (standalone tests/benches).
  TokenSoup(Network& net, const WalkConfig& config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "token-soup";
  }
  void on_attach(Network& net) override;

  /// Sharded round hooks: the driver runs the serial prologue, fans the
  /// spawn/forward phase out per shard, then merges. Standalone benches
  /// call step(), which drives the same three stages inline.
  [[nodiscard]] bool sharded_round() const noexcept override { return true; }
  void on_round_begin() override;
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override;
  void on_round_merge() override;
  [[nodiscard]] bool sharded_dispatch() const noexcept override {
    return true;  // no on_message at all
  }
  void on_churn(Vertex v, PeerId old_peer, PeerId new_peer) override;

  /// Advance one round: spawn new walks, move tokens, deliver completions.
  /// Call once per round after Network::begin_round() (the driver does this
  /// through the round hooks).
  ///
  /// Sharded execution: the vertex range is partitioned by the Network's
  /// ShardPlan and each shard moves its own vertices' tokens concurrently,
  /// drawing from a counter-based per-(round, vertex) RNG stream. Cross-
  /// shard handoffs and sample deliveries are staged per (source, dest)
  /// shard and merged in canonical (shard, vertex) order behind a barrier,
  /// so the result is bit-identical for every shard count, serial or on a
  /// ThreadPool. Probe hooks fire after the merge, in ascending source-
  /// vertex order. Token queues and handoff buckets live in the per-shard
  /// arenas (util/arena.h), so the steady state performs no heap calls.
  void step();

  /// Turn automatic per-round spawning on/off (benches that only study
  /// probes disable the soup to isolate the measurement).
  void set_spawning(bool on) noexcept { spawning_ = on; }

  [[nodiscard]] const SampleBuffer& samples(Vertex v) const noexcept {
    return samples_[v];
  }

  /// --- probe interface ---------------------------------------------------
  /// Injects a tagged walk of `steps` steps starting at `v` (start counts as
  /// position before the first step). Completion calls the probe hook.
  void inject_probe(Vertex v, std::uint64_t tag, std::uint32_t steps);

  /// hook(tag, destination_vertex, completion_round)
  using ProbeHook = std::function<void(std::uint64_t, Vertex, Round)>;
  void set_probe_hook(ProbeHook hook) { probe_hook_ = std::move(hook); }

  /// --- introspection -------------------------------------------------------
  /// Live (queued) token count, maintained as per-shard counters that the
  /// round merge settles — O(shards), never a queue scan. Valid between
  /// rounds (mid-phase the queues are transiently drained into the
  /// staging buckets).
  [[nodiscard]] std::size_t tokens_alive() const noexcept;
  [[nodiscard]] std::uint32_t walks_per_round() const noexcept { return walks_; }
  [[nodiscard]] std::uint32_t walk_length() const noexcept { return length_; }
  [[nodiscard]] std::uint32_t cap() const noexcept { return cap_; }
  [[nodiscard]] std::uint32_t tau() const noexcept { return tau_; }
  [[nodiscard]] const WalkConfig& config() const noexcept { return config_; }

 private:
  /// --- structure-of-arrays token storage ----------------------------------
  /// Tokens are stored as parallel columns, not structs: an 8-byte
  /// src_or_tag column (source PeerId, or tag for probes) plus a 2-byte
  /// packed meta column holding `steps_left:15 | probe:1`
  /// (meta = steps_left << 1 | probe). Versus the former 16-byte
  /// array-of-structs element (12 bytes + padding) that is 10 bytes per
  /// queued token and 14 per staged handoff (which adds a 4-byte dst
  /// column) — a 25-37% cut of the two buffers that transiently hold every
  /// live token, and the phase-1 drain becomes pure streaming reads of
  /// flat arrays.
  ///
  /// Both containers pack ALL their columns into a SINGLE arena block
  /// (src first, then dst where present, then meta — alignment decreases,
  /// so every column is naturally aligned). One block per container keeps
  /// the bookkeeping at one size + one capacity branch per push (a
  /// vector-per-column design pays that per column), and capacity is
  /// derived from Arena::usable_size, so the size-class rounding slack
  /// becomes extra token capacity instead of waste. Allocation goes
  /// through the owning shard's arena exactly as before, preserving the
  /// zero-heap-calls steady state.

  /// meta packing: steps_left in the high 15 bits, probe flag in bit 0.
  /// Decrementing a step is `meta - 2`; "just completed" is `meta < 2`.
  static constexpr std::uint16_t kProbeBit = 1;
  static constexpr std::uint16_t kMaxSteps = 0x7fff;
  [[nodiscard]] static constexpr std::uint16_t pack_meta(
      std::uint32_t steps_left, bool probe) noexcept {
    return static_cast<std::uint16_t>((steps_left << 1) |
                                      (probe ? kProbeBit : 0));
  }

  /// Arena-backed queue: bound to the arena of the shard owning its vertex.
  /// Columns: src (8 B), meta (2 B) — 10 bytes per token in one block.
  struct TokenQueue {
    static constexpr std::size_t kTokenBytes =
        sizeof(std::uint64_t) + sizeof(std::uint16_t);

    explicit TokenQueue(Arena* a) noexcept : arena_(a) {}
    TokenQueue(TokenQueue&& o) noexcept
        : base_(o.base_), size_(o.size_), cap_(o.cap_), arena_(o.arena_) {
      o.base_ = nullptr;
      o.size_ = o.cap_ = 0;
    }
    TokenQueue(const TokenQueue&) = delete;
    TokenQueue& operator=(const TokenQueue&) = delete;
    ~TokenQueue() { free_block(arena_, base_, cap_ * kTokenBytes); }

    [[nodiscard]] std::uint64_t* src() const noexcept {
      return reinterpret_cast<std::uint64_t*>(base_);
    }
    [[nodiscard]] std::uint16_t* meta() const noexcept {
      return reinterpret_cast<std::uint16_t*>(base_ +
                                              std::size_t{cap_} * 8);
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    void push_back(std::uint64_t s, std::uint16_t m) {
      if (size_ == cap_) grow(size_ + 1);
      src()[size_] = s;
      meta()[size_] = m;
      ++size_;
    }
    /// Append k copies of (s, m) — the per-round spawn burst.
    void append_n(std::uint64_t s, std::uint16_t m, std::uint32_t k) {
      if (size_ + k > cap_) grow(size_ + k);
      std::uint64_t* sp = src() + size_;
      std::uint16_t* mp = meta() + size_;
      for (std::uint32_t i = 0; i < k; ++i) {
        sp[i] = s;
        mp[i] = m;
      }
      size_ += k;
    }
    void reserve(std::size_t k) {
      if (k > cap_) grow(k);
    }
    /// Counting-sort refill: make room for k more tokens and publish the
    /// new size up front, returning the previous size (the write offset).
    /// The merge fills the k slots immediately afterwards through a cursor
    /// array, single-threaded on the vertex's owner shard.
    std::uint32_t extend_for_refill(std::uint32_t k) {
      const std::uint32_t off = size_;
      if (off + k > cap_) grow(std::size_t{off} + k);
      size_ = off + k;
      return off;
    }
    void clear() noexcept { size_ = 0; }

   private:
    void grow(std::size_t min_cap);

    std::byte* base_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = 0;
    Arena* arena_ = nullptr;
  };

  /// Single-block alloc/free helpers shared by the SoA containers (null
  /// arena falls through to the global heap so standalone uses still work).
  static std::byte* alloc_block(Arena* a, std::size_t bytes);
  static void free_block(Arena* a, std::byte* p, std::size_t bytes) noexcept;

  WalkConfig config_;
  /// Salt of the per-(round, vertex) RNG streams; forked once at attach
  /// from the protocol RNG so sibling protocols keep their own streams.
  /// Rounds derive a key from (salt, round) and vertices fork counter-based
  /// streams off that key — see step().
  std::uint64_t stream_salt_ = 0;
  std::uint64_t round_key_ = 0;  ///< mix of (salt, round), set each prologue
  std::uint32_t walks_ = 0;
  std::uint32_t length_ = 0;
  std::uint32_t cap_ = 0;
  std::uint32_t tau_ = 0;
  Round window_ = 0;
  bool spawning_ = true;

  /// Single-buffered: phase 1 drains and clears each vertex's queue (its
  /// own shard's task), phase 2 refills it from the staged handoffs (the
  /// SAME shard's task, since the queue's vertex is the handoff target) —
  /// so no second queue array is needed. At n=1M that halves queue memory.
  // shardcheck:arena-backed(outer vector sized once at attach/churn in serial context; TokenQueue elements draw from their vertex's shard arena)
  std::vector<TokenQueue> cur_;
  // shardcheck:arena-backed(outer vector sized once at attach in serial context; SampleBuffer cohort groups draw from the owning shard's arena)
  std::vector<SampleBuffer> samples_;
  ProbeHook probe_hook_;

  /// --- per-round sharded staging (reused across rounds) -------------------
  /// Handoff buckets are the same SoA columns as the queues plus a dst
  /// column (14 bytes per staged token, was 16 packed / 24 padded): the
  /// buckets transiently hold every moving token, so every byte here is
  /// multiplied by the full in-flight population. Pre-sized at attach to
  /// the expected steady split so steady-state rounds never reallocate
  /// (the doubling of a hundreds-of-MB column kept old+new alive at once
  /// and showed up as a maxrss spike at n=1M).
  /// Columns: src (8 B), dst (4 B), meta (2 B) in one block.
  struct HandoffBucket {
    static constexpr std::size_t kTokenBytes =
        sizeof(std::uint64_t) + sizeof(Vertex) + sizeof(std::uint16_t);

    explicit HandoffBucket(Arena* a) noexcept : arena_(a) {}
    HandoffBucket(HandoffBucket&& o) noexcept
        : base_(o.base_), size_(o.size_), cap_(o.cap_), arena_(o.arena_) {
      o.base_ = nullptr;
      o.size_ = o.cap_ = 0;
    }
    HandoffBucket(const HandoffBucket&) = delete;
    HandoffBucket& operator=(const HandoffBucket&) = delete;
    ~HandoffBucket() { free_block(arena_, base_, cap_ * kTokenBytes); }

    [[nodiscard]] std::uint64_t* src() const noexcept {
      return reinterpret_cast<std::uint64_t*>(base_);
    }
    [[nodiscard]] Vertex* dst() const noexcept {
      return reinterpret_cast<Vertex*>(base_ + std::size_t{cap_} * 8);
    }
    [[nodiscard]] std::uint16_t* meta() const noexcept {
      return reinterpret_cast<std::uint16_t*>(base_ +
                                              std::size_t{cap_} * 12);
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    void reserve(std::size_t k) {
      if (k > cap_) grow(k);
    }
    void clear() noexcept { size_ = 0; }

    /// --- write-combining back end (util/wc_buffer.h contract) ------------
    /// WcScatter writes committed lines PAST size_ into capacity space and
    /// only publishes the element count at epilogue time via wc_commit.
    /// The alignment contract (64-byte block base, capacity a multiple of
    /// 16 so all three column bases are line-aligned) is upheld by grow().
    void wc_reserve(std::uint32_t min_cap) {
      if (min_cap > cap_) grow(min_cap);
    }
    void wc_commit(std::uint32_t n) noexcept { size_ = n; }

   private:
    void grow(std::size_t min_cap);

    std::byte* base_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = 0;
    Arena* arena_ = nullptr;
  };
  struct ProbeDone {
    std::uint64_t tag;
    Vertex dst;
  };
  struct ShardCounters {
    std::uint64_t completed = 0;
    std::uint64_t queued = 0;
  };

  /// Phase-2 refill of one destination shard's queues from the staged
  /// handoff buckets (hook-only helper, runs on the dst shard's task).
  void merge_shard(std::uint32_t dst, Round r, Round keep_from);

  /// Sharded merge task, built once: a fresh capturing lambda every round
  /// would re-wrap into std::function at the run_sharded call and heap-spill
  /// its closure (>16 bytes), breaking the heap-quiet steady state. The
  /// round parameters travel through the two members below instead.
  Round merge_round_ = 0;
  Round merge_keep_from_ = 0;
  std::function<void(std::uint32_t)> merge_task_ =
      [this](std::uint32_t dst) {
        merge_shard(dst, merge_round_, merge_keep_from_);
      };

  /// [src_shard * pages_ + dst_page]; each bucket allocates from its
  /// SOURCE shard's arena (the source task does all the growing).
  ///
  /// Buckets are keyed by destination PAGE, not destination shard: a page
  /// is a power-of-two vertex range (page_shift_) sized at attach so one
  /// page's token queues fit in L2 (~1.5 MB). The refill scatter is the
  /// engine's only data-dependent access pattern, and at n=1M the queue
  /// arena is hundreds of MB — scattering into it bucket-by-shard costs
  /// 2-3 DRAM misses per token. Merging page-by-page keeps every queue
  /// touch inside an L2-resident window. Dst-page bucketing also makes
  /// the phase-1 route computation a shift instead of a divide, and the
  /// canonical order is preserved: scanning (src shard ascending, bucket
  /// append order) within a page files each queue's tokens in exactly the
  /// ascending-global-source order the shard-keyed merge produced.
  // shardcheck:arena-backed(outer vector sized at attach in serial context; each HandoffBucket draws from its source shard's arena)
  std::vector<HandoffBucket> moves_;
  std::uint32_t page_shift_ = 0;  ///< log2 of the dst-page vertex span
  std::uint32_t pages_ = 1;       ///< total dst pages covering [0, n)
  ShardedArrivals arrivals_;
  /// Per source shard; each inner vector draws from its shard's arena
  /// (grown on that shard's task, cleared/read in the serial epilogue).
  std::vector<std::vector<ProbeDone, ArenaAllocator<ProbeDone>>> probes_;
  // shardcheck:cold-state(sized to the shard count at attach in serial context; hooks only increment elements in place)
  std::vector<ShardCounters> counters_;         ///< per source shard
  // shardcheck:cold-state(sized to n at attach in serial context; hooks store per-vertex counts in place)
  std::vector<std::uint32_t> fwd_count_;        ///< per vertex, for metrics
  /// Per-shard scratch for the batched neighbor draws (cap_ entries each):
  /// stream_fill_below writes a vertex's whole batch here, the forward
  /// loop gathers neighbors off it. Only shard s's task touches draws_[s].
  // shardcheck:cold-state(inner buffers pre-sized to cap_ at attach in serial context; stream_fill_below writes batches in place)
  std::vector<std::vector<std::uint32_t>> draws_;
  /// Per-shard live-token counters: settled by merge_shard (the merged
  /// handoffs are exactly the shard's queue contents), adjusted serially
  /// by inject_probe / on_churn. Replaces the former O(n) queue scan in
  /// tokens_alive().
  // shardcheck:cold-state(sized to the shard count at attach in serial context; merge_shard settles elements in place)
  std::vector<std::uint64_t> alive_;

  /// Per-shard write-combining front ends over that shard's row of moves_
  /// (util/wc_buffer.h): phase 1 stages every handoff here and the final
  /// bucket contents are byte-identical to direct pushes. Final buckets
  /// are read a whole phase later, so full-line flushes stream past the
  /// cache.
  // shardcheck:cold-state(WC tables allocated at attach in serial context; the hot path stores through pre-allocated lines)
  std::vector<WcScatter<HandoffBucket>> wc_;
};

}  // namespace churnstore
