#include "walk/sampler.h"

#include <algorithm>
#include <cstring>
#include <new>

namespace churnstore {

namespace {
/// Group block size when the cohort was not announced (serial add() path,
/// unit tests): grows by doubling, so the constant only matters for tiny
/// buffers.
constexpr std::uint32_t kUnannouncedCap = 4;
constexpr std::uint32_t kInitialDirectoryCap = 4;

/// recent_distinct's duplicate filter: a bitmap on the stack, indexed by a
/// Fibonacci hash of the id and sized to >= 8 bits per id it may hold
/// (512 bits .. 64 Kbit). A clear bit proves an id unseen; a set bit (a
/// true repeat, or a false hit at most ~1/8 of the time) sends the caller
/// to an exact scan.
class SeenFilter {
 public:
  explicit SeenFilter(std::size_t ids) noexcept {
    while (shift_ > 64 - kMaxLog &&
           (std::size_t{1} << (64 - shift_)) < 8 * ids) {
      --shift_;
    }
    std::fill_n(words_, (std::size_t{1} << (64 - shift_)) / 64, 0);
  }
  /// Marks `p`; true when its bit was already set.
  bool test_and_set(PeerId p) noexcept {
    const std::size_t h = (p * 0x9E3779B97F4A7C15ull) >> shift_;
    const std::uint64_t bit = std::uint64_t{1} << (h & 63);
    const bool was = (words_[h >> 6] & bit) != 0;
    words_[h >> 6] |= bit;
    return was;
  }

 private:
  static constexpr unsigned kMinLog = 9;
  static constexpr unsigned kMaxLog = 16;
  unsigned shift_ = 64 - kMinLog;
  std::uint64_t words_[(std::size_t{1} << kMaxLog) / 64];
};
}  // namespace

void SampleBuffer::set_arena(Arena* arena) noexcept {
  // Rebinding with live blocks would return them to the wrong allocator.
  assert(gcount_ == 0 && groups_ == nullptr &&
         "set_arena on a non-empty buffer");
  arena_ = arena;
}

void* SampleBuffer::alloc(std::size_t bytes) const {
  return arena_ != nullptr ? arena_->allocate(bytes) : ::operator new(bytes);
}

void SampleBuffer::dealloc(void* p, std::size_t bytes) const noexcept {
  if (p == nullptr) return;
  if (arena_ != nullptr) {
    arena_->deallocate(p, bytes);
  } else {
    ::operator delete(p);
  }
}

void SampleBuffer::push_group(Round r, std::uint32_t cap) {
  if (ghead_ + gcount_ == gcap_) {
    if (ghead_ > 0) {
      // Head space from pruned rounds: compact instead of growing. The
      // steady state (one new round in, one pruned out) stabilizes at a
      // directory of window-many slots, memmoved once per round.
      std::memmove(groups_, groups_ + ghead_, gcount_ * sizeof(Group));
      ghead_ = 0;
    } else {
      const std::uint32_t new_cap =
          gcap_ == 0 ? kInitialDirectoryCap : 2 * gcap_;
      auto* nd = static_cast<Group*>(alloc(new_cap * sizeof(Group)));
      if (gcount_ != 0) {
        std::memcpy(nd, groups_ + ghead_, gcount_ * sizeof(Group));
      }
      dealloc(groups_, gcap_ * sizeof(Group));
      groups_ = nd;
      ghead_ = 0;
      gcap_ = new_cap;
    }
  }
  Group& g = groups_[ghead_ + gcount_];
  g.round = r;
  g.cap = cap > 0 ? cap : 1;
  g.size = 0;
  g.sources = static_cast<PeerId*>(alloc(g.cap * sizeof(PeerId)));
  ++gcount_;
}

void SampleBuffer::reserve_rounds(std::uint32_t rounds) {
  if (rounds <= gcap_) return;
  auto* nd = static_cast<Group*>(alloc(rounds * sizeof(Group)));
  if (gcount_ != 0) {
    std::memcpy(nd, groups_ + ghead_, gcount_ * sizeof(Group));
  }
  dealloc(groups_, gcap_ * sizeof(Group));
  groups_ = nd;
  ghead_ = 0;
  gcap_ = rounds;
}

void SampleBuffer::grow_group(Group& g) {
  const std::uint32_t new_cap = 2 * g.cap;
  auto* nd = static_cast<PeerId*>(alloc(new_cap * sizeof(PeerId)));
  std::memcpy(nd, g.sources, g.size * sizeof(PeerId));
  dealloc(g.sources, g.cap * sizeof(PeerId));
  g.sources = nd;
  g.cap = new_cap;
}

void SampleBuffer::add(Round r, PeerId source) {
  Group* back = gcount_ != 0 ? &groups_[ghead_ + gcount_ - 1] : nullptr;
  if (back == nullptr || back->round != r) {
    // First sample of a new cohort: everything announced for this round
    // shares this one block.
    const std::uint32_t cap = pending_ > 0 ? pending_ : kUnannouncedCap;
    pending_ = 0;
    push_group(r, cap);
    back = &groups_[ghead_ + gcount_ - 1];
  }
  if (back->size == back->cap) grow_group(*back);
  back->sources[back->size++] = source;
}

void SampleBuffer::prune(Round keep_from) {
  while (gcount_ != 0 && groups_[ghead_].round < keep_from) {
    Group& g = groups_[ghead_];
    dealloc(g.sources, g.cap * sizeof(PeerId));
    ++ghead_;
    --gcount_;
  }
  if (gcount_ == 0) ghead_ = 0;
}

void SampleBuffer::clear() noexcept {
  for (std::uint32_t i = 0; i < gcount_; ++i) {
    Group& g = groups_[ghead_ + i];
    dealloc(g.sources, g.cap * sizeof(PeerId));
  }
  gcount_ = 0;
  ghead_ = 0;
  pending_ = 0;
}

void SampleBuffer::destroy() noexcept {
  clear();
  dealloc(groups_, gcap_ * sizeof(Group));
  groups_ = nullptr;
  gcap_ = 0;
}

void SampleBuffer::copy_from(const SampleBuffer& o) {
  // Heap-backed copy: snapshots must outlive the source's Network/arenas.
  arena_ = nullptr;
  groups_ = nullptr;
  ghead_ = gcount_ = gcap_ = 0;
  pending_ = 0;
  for (std::uint32_t i = 0; i < o.gcount_; ++i) {
    const Group& g = o.groups()[i];
    push_group(g.round, g.size != 0 ? g.size : 1);
    Group& mine = groups_[ghead_ + gcount_ - 1];
    std::memcpy(mine.sources, g.sources, g.size * sizeof(PeerId));
    mine.size = g.size;
  }
}

void SampleBuffer::steal(SampleBuffer& o) noexcept {
  groups_ = o.groups_;
  ghead_ = o.ghead_;
  gcount_ = o.gcount_;
  gcap_ = o.gcap_;
  pending_ = o.pending_;
  arena_ = o.arena_;
  o.groups_ = nullptr;
  o.ghead_ = o.gcount_ = o.gcap_ = 0;
  o.pending_ = 0;
}

SampleView SampleBuffer::at(Round r) const noexcept {
  // Groups are few (one per retained round); linear scan from the back is
  // cheap and the common query is the most recent round.
  for (std::uint32_t i = gcount_; i-- > 0;) {
    const Group& g = groups()[i];
    if (g.round == r) return SampleView{g.sources, g.size};
    if (g.round < r) break;
  }
  return SampleView{};
}

std::size_t SampleBuffer::recent_distinct(std::size_t k,
                                          std::span<const PeerId> exclude,
                                          std::vector<PeerId>& out) const {
  const std::size_t base = out.size();
  const std::size_t avail = total();
  const std::size_t want = k == 0 ? avail : std::min(k, avail);
  if (want == 0) return 0;
  SeenFilter seen(exclude.size() + base + want);
  for (const PeerId p : exclude) seen.test_and_set(p);
  for (const PeerId p : out) seen.test_and_set(p);
  const auto contains = [](std::span<const PeerId> ids, PeerId p) {
    return std::find(ids.begin(), ids.end(), p) != ids.end();
  };
  for (std::uint32_t i = gcount_; i-- > 0;) {
    const Group& g = groups()[i];
    for (std::uint32_t j = 0; j < g.size; ++j) {
      const PeerId s = g.sources[j];
      if (seen.test_and_set(s) &&
          (contains(out, s) || contains(exclude, s))) {
        continue;
      }
      out.push_back(s);
      if (out.size() - base == want) return want;
    }
  }
  return out.size() - base;
}

std::size_t SampleBuffer::total() const noexcept {
  std::size_t acc = 0;
  for (std::uint32_t i = 0; i < gcount_; ++i) acc += groups()[i].size;
  return acc;
}

bool SampleBuffer::equals(const SampleBuffer& o) const noexcept {
  if (gcount_ != o.gcount_) return false;
  for (std::uint32_t i = 0; i < gcount_; ++i) {
    const Group& a = groups()[i];
    const Group& b = o.groups()[i];
    if (a.round != b.round || a.size != b.size) return false;
    if (std::memcmp(a.sources, b.sources, a.size * sizeof(PeerId)) != 0) {
      return false;
    }
  }
  return true;
}

void ShardedArrivals::reset(std::uint32_t src_shards,
                            std::uint32_t dst_buckets) {
  src_shards_ = src_shards;
  dst_buckets_ = dst_buckets;
  buckets_.resize(static_cast<std::size_t>(src_shards) * dst_buckets);
  for (auto& b : buckets_) b.clear();
}

void ShardedArrivals::stage(std::uint32_t src_shard, std::uint32_t dst_bucket,
                            Vertex dst, PeerId source) {
  buckets_[static_cast<std::size_t>(src_shard) * dst_buckets_ + dst_bucket]
      .push_back(Arrival{dst, source});
}

void ShardedArrivals::apply_to(std::uint32_t first_bucket,
                               std::uint32_t last_bucket, Vertex vbegin,
                               Vertex vend, Round r,
                               std::vector<SampleBuffer>& buffers) const {
  // Bucket by bucket so the scatter stays inside one destination window;
  // within a bucket, pass 1 announces cohort sizes so pass 2 lands every
  // (round, vertex) cohort in a single exact-size block of the
  // destination shard's arena.
  for (std::uint32_t b = first_bucket; b <= last_bucket; ++b) {
    for (std::uint32_t src = 0; src < src_shards_; ++src) {
      const auto& bucket =
          buckets_[static_cast<std::size_t>(src) * dst_buckets_ + b];
      for (const Arrival& a : bucket) {
        if (a.dst < vbegin || a.dst >= vend) continue;
        buffers[a.dst].announce(1);
      }
    }
    for (std::uint32_t src = 0; src < src_shards_; ++src) {
      const auto& bucket =
          buckets_[static_cast<std::size_t>(src) * dst_buckets_ + b];
      for (const Arrival& a : bucket) {
        if (a.dst < vbegin || a.dst >= vend) continue;
        buffers[a.dst].add(r, a.source);
      }
    }
  }
}

std::size_t ShardedArrivals::staged_total() const noexcept {
  std::size_t acc = 0;
  for (const auto& b : buckets_) acc += b.size();
  return acc;
}

}  // namespace churnstore
