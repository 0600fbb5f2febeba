#include "landmark/landmark.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <vector>

#include "core/system.h"
#include "util/thread_pool.h"

namespace churnstore {
namespace {

SystemConfig make_config(std::uint32_t n, std::int64_t churn_abs) {
  SystemConfig c;
  c.sim.n = n;
  c.sim.degree = 8;
  c.sim.seed = 5;
  c.sim.churn.kind =
      churn_abs > 0 ? AdversaryKind::kUniform : AdversaryKind::kNone;
  c.sim.churn.absolute = churn_abs;
  return c;
}

TEST(Landmark, TreeGrowsToSqrtNScale) {
  P2PSystem sys(make_config(256, 0));
  sys.run_rounds(sys.warmup_rounds());
  ASSERT_TRUE(
      sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {1}, -1));
  // Creation triggers the first landmark wave at t == 1; the tree then
  // grows one level per round up to depth mu.
  sys.run_rounds(sys.landmarks().tree_depth() + 3);
  const std::size_t live = sys.landmarks().live_count(1);
  const double sqrt_n = std::sqrt(256.0);
  EXPECT_GE(static_cast<double>(live), sqrt_n / 2) << "live=" << live;
  // Upper bound from Lemma 8: |T| in O(n^{0.5+delta} log n).
  const double upper = std::pow(256.0, 0.5 + 0.25) * std::log(256.0);
  EXPECT_LE(static_cast<double>(live), upper);
}

TEST(Landmark, LandmarksKnowTheCommittee) {
  P2PSystem sys(make_config(128, 0));
  sys.run_rounds(sys.warmup_rounds());
  ASSERT_TRUE(
      sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {1}, -1));
  sys.run_rounds(sys.landmarks().tree_depth() + 3);
  std::size_t checked = 0;
  sys.landmarks().for_each_landmark(1, [&](Vertex, const LandmarkState& st) {
    EXPECT_EQ(st.item, 1u);
    EXPECT_EQ(st.purpose, Purpose::kStorage);
    EXPECT_FALSE(st.committee.empty());
    ++checked;
  });
  EXPECT_GT(checked, 0u);
}

TEST(Landmark, StateExpiresAfterTtl) {
  P2PSystem sys(make_config(128, 0));
  sys.run_rounds(sys.warmup_rounds());
  const Round expire_committee = sys.round() + 6;
  // A search committee that dies right away stops rebuilding trees, so its
  // landmarks age out after one TTL.
  ASSERT_TRUE(sys.committees().create(0, 9, Purpose::kSearch, 9,
                                      sys.network().peer_at(0), {},
                                      expire_committee));
  sys.run_rounds(6);
  sys.run_rounds(sys.landmarks().tree_depth());
  const std::size_t live_before = sys.landmarks().live_count(9);
  EXPECT_GT(live_before, 0u);
  sys.run_rounds(sys.landmarks().ttl() + 2);
  EXPECT_EQ(sys.landmarks().live_count(9), 0u);
}

TEST(Landmark, RebuildKeepsPopulationUnderChurn) {
  P2PSystem sys(make_config(256, 12));
  sys.run_rounds(sys.warmup_rounds());
  bool created = false;
  for (int i = 0; i < 10 && !created; ++i) {
    created =
        sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {1}, -1);
    if (!created) sys.run_round();
  }
  ASSERT_TRUE(created);
  sys.run_rounds(2 * sys.committees().refresh_period());
  // After two full refresh cycles with rebuilds, landmarks exist despite
  // ~5%/round churn.
  EXPECT_GT(sys.landmarks().live_count(1), 0u);
}

TEST(Landmark, ChurnClearsVertexState) {
  P2PSystem sys(make_config(256, 16));
  sys.run_rounds(sys.warmup_rounds());
  bool created = false;
  for (int i = 0; i < 10 && !created; ++i) {
    created =
        sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {1}, -1);
    if (!created) sys.run_round();
  }
  ASSERT_TRUE(created);
  sys.run_rounds(sys.landmarks().tree_depth() + 2);
  // state_at must never return landmarks on freshly churned vertices.
  const auto churned = sys.network().begin_round();
  for (const Vertex v : churned) {
    EXPECT_FALSE(sys.landmarks().state_at(v, 1));
  }
  // Complete the round manually to keep the system consistent.
  for (const auto& p : sys.protocols()) p->on_round_begin();
  sys.network().deliver();
}

TEST(Landmark, CollisionsAreCountedNotFatal) {
  // Tiny network: the tree wants more distinct nodes than exist, so the
  // same vertices get recruited repeatedly within a wave.
  P2PSystem sys(make_config(64, 0));
  sys.run_rounds(sys.warmup_rounds());
  ASSERT_TRUE(
      sys.committees().create(0, 1, Purpose::kStorage, 1, kNoPeer, {1}, -1));
  sys.run_rounds(2 * sys.committees().refresh_period());
  EXPECT_GT(sys.landmarks().live_count(1), 0u);
  // Collisions occur at this scale; the run must simply survive them.
  EXPECT_GE(sys.metrics().landmark_collisions(), 0u);
}

/// A kLandmarkGrow as a tree parent sends it (wire layout in landmark.cpp):
/// `depth` is the level budget the receiver inherits, so depth 1 makes a
/// leaf (nothing to grow) and depth 2 makes a node that recruits
/// tree_fanout children the next round.
Message grow_message(std::uint64_t kid, std::uint32_t depth,
                     std::uint64_t wave, const std::vector<PeerId>& members) {
  Message m;
  m.src = 1;
  m.type = MsgType::kLandmarkGrow;
  std::vector<std::uint64_t> words = {kid,   kid + 100, 0, kNoPeer,
                                      depth, wave,      members.size()};
  words.insert(words.end(), members.begin(), members.end());
  m.words = words;
  return m;
}

/// Deliver `m` to vertex v between rounds, as the sharded dispatch would.
void inject(P2PSystem& sys, Vertex v, const Message& m) {
  Network& net = sys.network();
  ShardContext ctx(net, net.shards().shard_of(v));
  ASSERT_TRUE(sys.landmarks().on_message(v, m, ctx));
  sys.landmarks().on_dispatch_merge();
}

std::vector<PeerId> committee_for(std::uint64_t kid) {
  // A different list (and length) per kid, so member lists that get mixed
  // up across entries or compactions cannot go unnoticed.
  std::vector<PeerId> c;
  for (std::uint64_t i = 0; i < 3 + kid % 5; ++i) c.push_back(kid * 1000 + i);
  return c;
}

TEST(Landmark, FreshEntryAmongManyOldGrowsExactlyFanout) {
  // Many entries that already grew (or never had levels to grow) plus one
  // fresh node: the next round recruits exactly tree_fanout children, all
  // for the fresh entry.
  P2PSystem sys(make_config(256, 0));
  sys.run_rounds(sys.warmup_rounds());
  const Vertex v = 17;
  for (std::uint64_t kid = 1; kid <= 40; ++kid) {
    const std::uint32_t depth = kid % 2 == 0 ? 2 : 1;
    inject(sys, v, grow_message(kid, depth, 7, committee_for(kid)));
  }
  sys.run_rounds(2);  // the depth-2 entries recruit their leaves
  // Every grow message received ends as one creation or one collision.
  const auto received = [&] {
    return sys.metrics().landmarks_created() +
           sys.metrics().landmark_collisions();
  };
  const std::uint64_t before = received();
  inject(sys, v, grow_message(999, 2, 7, committee_for(999)));
  EXPECT_EQ(received(), before + 1);
  sys.run_round();
  const std::size_t fanout = sys.config().protocol.tree_fanout;
  EXPECT_EQ(received(), before + 1 + fanout);
  EXPECT_EQ(sys.landmarks().live_count(999), 1 + fanout);
  sys.run_round();
  EXPECT_EQ(sys.landmarks().live_count(999), 1 + fanout)
      << "leaves and grown nodes must not grow again";
}

/// Everything a reader can observe about one kid's landmarks.
using Snapshot =
    std::map<Vertex, std::tuple<ItemId, Purpose, PeerId, std::uint64_t,
                                std::vector<PeerId>>>;

Snapshot snapshot(P2PSystem& sys, std::uint64_t kid) {
  Snapshot out;
  sys.landmarks().for_each_landmark(
      kid, [&](Vertex w, const LandmarkState& st) {
        out[w] = {st.item, st.purpose, st.search_root, st.wave,
                  std::vector<PeerId>(st.committee.begin(),
                                      st.committee.end())};
      });
  for (const auto& [w, row] : out) {
    const auto st = sys.landmarks().state_at(w, kid);
    EXPECT_TRUE(st);
    if (st) {
      EXPECT_EQ(std::vector<PeerId>(st->committee.begin(), st->committee.end()),
                std::get<4>(row));
    }
  }
  EXPECT_EQ(sys.landmarks().live_count(kid), out.size());
  return out;
}

TEST(Landmark, TtlSweepKeepsLiveEntriesAndTheirCommittees) {
  // Entries recruited across ~1.5 TTLs at a handful of vertices, leaves
  // only (no growth): the TTL sweep drops exactly the expired ones, and the
  // survivors read back identically — same fields, same committee list.
  P2PSystem sys(make_config(256, 0));
  sys.run_rounds(sys.warmup_rounds());
  const std::uint32_t ttl = sys.landmarks().ttl();
  // Align so the next sweep round lands 3*ttl/2 rounds from now.
  while ((sys.round() + ttl / 2) % ttl != 0) sys.run_round();
  const std::vector<Vertex> holders = {3, 64, 65, 200, 255};
  std::uint64_t kid = 1;
  std::vector<std::uint64_t> kids;
  for (std::uint32_t r = 0; r < ttl + ttl / 2 - 1; ++r) {
    for (const Vertex v : holders) {
      if ((kid + v) % 3 != 0) {
        inject(sys, v, grow_message(kid, 1, static_cast<std::uint64_t>(r),
                                    committee_for(kid)));
      }
    }
    kids.push_back(kid++);
    sys.run_round();
  }
  // One round before the sweep: some entries already expired (invisible,
  // but still present), the rest live.
  ASSERT_EQ((sys.round() + 1) % ttl, 0);
  std::map<std::uint64_t, Snapshot> before;
  std::size_t expired = 0;
  for (const std::uint64_t k : kids) {
    before[k] = snapshot(sys, k);
    expired += before[k].empty();
  }
  EXPECT_GT(expired, 0u);
  EXPECT_LT(expired, kids.size());
  sys.run_round();  // the sweep round
  std::size_t survivors = 0;
  for (const std::uint64_t k : kids) {
    const Snapshot after = snapshot(sys, k);
    Snapshot want;
    for (const auto& [w, row] : before[k]) {
      // Live before the sweep round and still unexpired at it.
      if (const auto st = sys.landmarks().state_at(w, k); st) want[w] = row;
    }
    EXPECT_EQ(after, want) << "kid " << k;
    survivors += after.size();
  }
  EXPECT_GT(survivors, 0u);
}

TEST(Landmark, ChurnedVertexHoldsNothing) {
  P2PSystem sys(make_config(256, 16));
  sys.run_rounds(sys.warmup_rounds());
  for (Vertex v = 0; v < 256; ++v) {
    inject(sys, v, grow_message(77, 1, 1, committee_for(77)));
    inject(sys, v, grow_message(78, 1, 1, committee_for(78)));
  }
  ASSERT_EQ(sys.landmarks().live_count(77), 256u);
  const std::vector<Vertex> churned = sys.network().begin_round();
  ASSERT_FALSE(churned.empty());
  for (const Vertex v : churned) {
    EXPECT_FALSE(sys.landmarks().state_at(v, 77));
    EXPECT_FALSE(sys.landmarks().state_at(v, 78));
  }
  EXPECT_EQ(sys.landmarks().live_count(77), 256u - churned.size());
  std::size_t visited = 0;
  sys.landmarks().for_each_landmark(78, [&](Vertex w, const LandmarkState&) {
    EXPECT_EQ(std::count(churned.begin(), churned.end(), w), 0);
    ++visited;
  });
  EXPECT_EQ(visited, 256u - churned.size());
  for (const auto& p : sys.protocols()) p->on_round_begin();
  sys.network().deliver();
}

struct LandmarkTotals {
  std::uint64_t created = 0, collisions = 0, bits = 0;
};

LandmarkTotals run_landmark_heavy(std::uint32_t shards, ThreadPool* pool) {
  SystemConfig c = make_config(384, 12);
  c.sim.shards = shards;
  P2PSystem sys(c);
  sys.set_shard_pool(pool);
  sys.run_rounds(sys.warmup_rounds());
  for (ItemId item = 1; item <= 12; ++item) {
    sys.store_item(static_cast<Vertex>((item * 37) % 384), item);
    sys.run_round();
  }
  sys.run_rounds(3 * sys.landmarks().ttl());
  return {sys.metrics().landmarks_created(),
          sys.metrics().landmark_collisions(), sys.metrics().total_bits()};
}

TEST(Landmark, GoldenTotalsAtOneAndFourShards) {
  // Recorded before the landmark table moved from per-vertex hash maps to
  // flat slots with an exact (vertex, kid) grow queue: the representation
  // must be invisible to the protocol.
  ThreadPool pool(3);
  for (const std::uint32_t shards : {1u, 4u}) {
    const LandmarkTotals t =
        run_landmark_heavy(shards, shards > 1 ? &pool : nullptr);
    EXPECT_EQ(t.created, 3390u) << "shards=" << shards;
    EXPECT_EQ(t.collisions, 295u) << "shards=" << shards;
    EXPECT_EQ(t.bits, 509055184u) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace churnstore
