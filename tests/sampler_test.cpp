#include "walk/sampler.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace churnstore {
namespace {

TEST(SampleBuffer, GroupsByRound) {
  SampleBuffer buf;
  buf.add(1, 100);
  buf.add(1, 101);
  buf.add(3, 102);
  EXPECT_EQ(buf.count_at(1), 2u);
  EXPECT_EQ(buf.count_at(2), 0u);
  EXPECT_EQ(buf.count_at(3), 1u);
  EXPECT_EQ(buf.total(), 3u);
  EXPECT_EQ(buf.at(1)[0], 100u);
  EXPECT_EQ(buf.at(3)[0], 102u);
}

TEST(SampleBuffer, PruneDropsOldGroups) {
  SampleBuffer buf;
  for (Round r = 1; r <= 10; ++r) buf.add(r, static_cast<PeerId>(r));
  buf.prune(6);
  EXPECT_EQ(buf.count_at(5), 0u);
  EXPECT_EQ(buf.count_at(6), 1u);
  EXPECT_EQ(buf.total(), 5u);
}

TEST(SampleBuffer, RecentDistinctNewestFirst) {
  SampleBuffer buf;
  buf.add(1, 10);
  buf.add(2, 20);
  buf.add(3, 30);
  std::vector<PeerId> got;
  EXPECT_EQ(buf.recent_distinct(2, {}, got), 2u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 30u);
  EXPECT_EQ(got[1], 20u);
}

TEST(SampleBuffer, RecentDistinctDeduplicates) {
  SampleBuffer buf;
  buf.add(1, 7);
  buf.add(2, 7);
  buf.add(2, 8);
  buf.add(3, 7);
  std::vector<PeerId> got;
  buf.recent_distinct(0, {}, got);  // 0 = all
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 7u);
  EXPECT_EQ(got[1], 8u);
}

TEST(SampleBuffer, RecentDistinctHonorsExclusions) {
  SampleBuffer buf;
  buf.add(1, 1);
  buf.add(1, 2);
  buf.add(1, 3);
  std::vector<PeerId> got;
  const PeerId exclude[] = {2};
  buf.recent_distinct(0, exclude, got);
  ASSERT_EQ(got.size(), 2u);
  for (const auto p : got) EXPECT_NE(p, 2u);
}

/// The former set-based recent_distinct: up to k distinct sources, newest
/// rounds first, skipping `exclude` (k = 0: all).
std::vector<PeerId> reference_recent_distinct(
    const SampleBuffer& buf, Round first, Round last, std::size_t k,
    const std::vector<PeerId>& exclude) {
  std::vector<PeerId> out;
  std::unordered_set<PeerId> seen(exclude.begin(), exclude.end());
  for (Round r = last; r >= first; --r) {
    for (const PeerId s : buf.at(r)) {
      if (!seen.insert(s).second) continue;
      out.push_back(s);
      if (k != 0 && out.size() >= k) return out;
    }
  }
  return out;
}

TEST(SampleBuffer, RecentDistinctMatchesSetReference) {
  // Random buffers with heavy repetition (ids drawn from a small range),
  // random k including 0 and k past the distinct count, random exclusions,
  // and a non-empty output prefix that must act as an exclusion too.
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    SampleBuffer buf;
    const Round rounds = 1 + static_cast<Round>(rng.next_below(12));
    const bool big = trial % 4 == 0;
    const std::uint64_t id_range = 2 + rng.next_below(big ? 4000 : 40);
    for (Round r = 1; r <= rounds; ++r) {
      const std::uint64_t arrivals = rng.next_below(big ? 600 : 9);
      for (std::uint64_t a = 0; a < arrivals; ++a) {
        buf.add(r, 1 + rng.next_below(id_range));
      }
    }
    std::vector<PeerId> exclude;
    for (std::uint64_t e = rng.next_below(4); e > 0; --e) {
      exclude.push_back(1 + rng.next_below(id_range));
    }
    std::vector<PeerId> prefix;
    for (std::uint64_t e = rng.next_below(3); e > 0; --e) {
      prefix.push_back(1 + rng.next_below(id_range));
    }
    const std::size_t k =
        trial % 5 == 0
            ? 0
            : static_cast<std::size_t>(rng.next_below(2 * id_range));

    std::vector<PeerId> ref_exclude = exclude;
    ref_exclude.insert(ref_exclude.end(), prefix.begin(), prefix.end());
    std::vector<PeerId> want = prefix;
    const auto extra =
        reference_recent_distinct(buf, 1, rounds, k, ref_exclude);
    want.insert(want.end(), extra.begin(), extra.end());

    std::vector<PeerId> got = prefix;
    EXPECT_EQ(buf.recent_distinct(k, exclude, got), extra.size());
    EXPECT_EQ(got, want) << "trial " << trial << " k=" << k;
  }
}

TEST(SampleBuffer, ClearEmpties) {
  SampleBuffer buf;
  buf.add(1, 1);
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.total(), 0u);
  std::vector<PeerId> got;
  EXPECT_EQ(buf.recent_distinct(5, {}, got), 0u);
  EXPECT_TRUE(got.empty());
}

TEST(SampleBuffer, AnnouncedCohortEqualsUnannouncedAdds) {
  // The engine pre-announces cohort sizes (one exact-size block per round);
  // the serial add() path grows by doubling. Same observable buffer.
  SampleBuffer announced;
  announced.announce(5);
  for (PeerId p = 10; p < 15; ++p) announced.add(7, p);
  announced.announce(2);
  for (PeerId p = 20; p < 22; ++p) announced.add(8, p);

  SampleBuffer plain;
  for (PeerId p = 10; p < 15; ++p) plain.add(7, p);
  for (PeerId p = 20; p < 22; ++p) plain.add(8, p);

  EXPECT_TRUE(announced == plain);
  EXPECT_EQ(announced.count_at(7), 5u);
  EXPECT_EQ(announced.at(8)[1], 21u);
}

TEST(SampleBuffer, ArenaBoundBufferReturnsBlocksOnPruneAndClear) {
  Arena arena;
  {
    SampleBuffer buf;
    buf.set_arena(&arena);
    for (Round r = 1; r <= 8; ++r) {
      buf.announce(3);
      for (PeerId p = 0; p < 3; ++p) buf.add(r, 100 * r + p);
    }
    EXPECT_GT(arena.bytes_in_use(), 0u);
    buf.prune(5);
    EXPECT_EQ(buf.total(), 4 * 3u);
    buf.clear();
    EXPECT_TRUE(buf.empty());
    // Only the group directory block may remain live after clear().
  }
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_GT(arena.reused_blocks() + arena.fresh_blocks(), 0u);
}

TEST(SampleBuffer, CopiesAreHeapBackedDeepAndEqual) {
  Arena arena;
  SampleBuffer buf;
  buf.set_arena(&arena);
  for (Round r = 1; r <= 4; ++r) {
    for (PeerId p = 0; p < 4; ++p) buf.add(r, 10 * r + p);
  }
  const SampleBuffer copy(buf);  // deep, heap-backed: outlives the arena
  EXPECT_TRUE(copy == buf);
  buf.clear();
  EXPECT_FALSE(copy == buf);
  EXPECT_EQ(copy.count_at(3), 4u);
  EXPECT_EQ(copy.at(2)[1], 21u);
}

TEST(SampleBuffer, EqualityIsOrderSensitive) {
  SampleBuffer a, b;
  a.add(1, 5);
  a.add(1, 6);
  b.add(1, 6);
  b.add(1, 5);
  EXPECT_FALSE(a == b) << "per-group insertion order must be compared";
}

TEST(SampleBuffer, LongRunningWindowSteadyState) {
  // Rolling window: one round in, one pruned out, hundreds of times — the
  // compacting directory must keep every query exact throughout.
  SampleBuffer buf;
  const Round window = 16;
  for (Round r = 1; r <= 500; ++r) {
    buf.announce(2);
    buf.add(r, static_cast<PeerId>(2 * r));
    buf.add(r, static_cast<PeerId>(2 * r + 1));
    buf.prune(r - window + 1);
  }
  EXPECT_EQ(buf.total(), static_cast<std::size_t>(2 * window));
  EXPECT_EQ(buf.count_at(500), 2u);
  EXPECT_EQ(buf.count_at(500 - window), 0u);
  EXPECT_EQ(buf.at(490)[0], 980u);
}

TEST(ShardedArrivalsCohorts, ApplyMergesInCanonicalSourceOrder) {
  ShardedArrivals arr;
  arr.reset(/*src_shards=*/3, /*dst_buckets=*/1);
  std::vector<SampleBuffer> buffers(4);
  // Same destination vertex fed from three source shards; canonical order
  // is ascending source shard, staging order within a shard.
  arr.stage(2, 0, /*dst=*/1, /*source=*/300);
  arr.stage(0, 0, 1, 100);
  arr.stage(0, 0, 1, 101);
  arr.stage(1, 0, 1, 200);
  EXPECT_EQ(arr.staged_total(), 4u);
  arr.apply_to(0, 0, /*vbegin=*/0, /*vend=*/4, /*r=*/9, buffers);
  ASSERT_EQ(buffers[1].count_at(9), 4u);
  const SampleView got = buffers[1].at(9);
  EXPECT_EQ(got[0], 100u);
  EXPECT_EQ(got[1], 101u);
  EXPECT_EQ(got[2], 200u);
  EXPECT_EQ(got[3], 300u);
}

TEST(ShardedArrivalsCohorts, StraddleBucketAppliedByBothSidesFilesOnce) {
  // A destination bucket that straddles a shard boundary is applied by
  // both neighboring dst tasks; the [vbegin, vend) filter must give each
  // vertex to exactly one of them, preserving canonical order.
  ShardedArrivals arr;
  arr.reset(/*src_shards=*/2, /*dst_buckets=*/2);
  std::vector<SampleBuffer> buffers(8);
  // Bucket 0 covers vertices [0,4), bucket 1 covers [4,8); the shard
  // split is at vertex 2, mid-bucket-0.
  arr.stage(1, 0, /*dst=*/1, /*source=*/500);
  arr.stage(0, 0, 1, 400);
  arr.stage(0, 0, 3, 401);
  arr.stage(1, 1, 5, 501);
  EXPECT_EQ(arr.staged_total(), 4u);
  // Left shard owns [0,2): sees bucket 0 only, files vertex 1 only.
  arr.apply_to(0, 0, /*vbegin=*/0, /*vend=*/2, /*r=*/3, buffers);
  // Right shard owns [2,8): sees buckets 0 and 1, skips vertex 1.
  arr.apply_to(0, 1, /*vbegin=*/2, /*vend=*/8, /*r=*/3, buffers);
  ASSERT_EQ(buffers[1].count_at(3), 2u);
  EXPECT_EQ(buffers[1].at(3)[0], 400u);
  EXPECT_EQ(buffers[1].at(3)[1], 500u);
  ASSERT_EQ(buffers[3].count_at(3), 1u);
  EXPECT_EQ(buffers[3].at(3)[0], 401u);
  ASSERT_EQ(buffers[5].count_at(3), 1u);
  EXPECT_EQ(buffers[5].at(3)[0], 501u);
}

}  // namespace
}  // namespace churnstore
