// Landmark tree construction (paper Algorithm 2).
//
// Every committee member periodically grows a tree of "landmark" nodes:
// it picks `fanout` of its walk samples as children and sends them a grow
// message carrying the committee's member ids; each child becomes a
// landmark for the committee (it can point searchers at the members),
// then recruits `fanout` children of its own, one tree level per round, up
// to depth mu (paper equation 4). Landmarks expire after 2*tau rounds; the
// committee rebuilds the trees every tau rounds, so the live landmark set
// stays Omega(sqrt(n)) and near-uniformly distributed over the Core.
//
// State layout. Each vertex holds one flat LandmarkTable: a slot array, a
// parallel array of committee ids (kids) and a power-of-two open-addressing
// kid -> slot index, in one block of the owning shard's arena. Every
// landmark of one tree carries the same member list, so a slot names its
// list by id in a per-shard MemberLists store (one refcounted copy per
// distinct list) instead of holding a copy. Recruiting or dropping a
// landmark therefore makes no global-heap call once the arena and the
// stores are warm. An entry stays *present* until the TTL sweep or churn,
// even after it expires (readers never see expired entries); the sweep
// compacts each table and shrinks it to fit, so memory tracks the live
// entries. Each shard's grow queue holds exact (vertex, kid) pairs, so a
// round touches only the entries recruited the round before, never a
// vertex's whole table.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "committee/committee.h"
#include "core/protocol.h"
#include "net/config.h"
#include "net/network.h"
#include "util/arena.h"
#include "walk/token_soup.h"

namespace churnstore {

/// One live landmark entry as readers see it. `committee` points into the
/// holding shard's member-list store: valid until the next landmark-state
/// mutation (the next landmark round hook or dispatch).
struct LandmarkState {
  ItemId item = 0;
  Purpose purpose = Purpose::kStorage;
  PeerId search_root = kNoPeer;
  Round expiry = 0;
  std::uint64_t wave = 0;  ///< rebuild wave id (creation round)
  std::span<const PeerId> committee;  ///< the members this landmark points to
};

/// Deduplicated, refcounted committee member lists of one shard's landmark
/// entries. Ids stay stable for a list's lifetime; unreferenced lists are
/// dropped (and their ids recycled) only by compact(), so a list released
/// and re-acquired between compactions keeps its id. Only the owning
/// shard's task (or serial context) may touch a store.
class MemberLists {
 public:
  /// Id of the list equal to `ids`, interned on first use; takes one
  /// reference.
  std::uint32_t acquire(std::span<const PeerId> ids);
  void release(std::uint32_t id) noexcept {
    assert(lists_[id].refs > 0 && "member list released more than acquired");
    --lists_[id].refs;
  }
  [[nodiscard]] std::span<const PeerId> get(std::uint32_t id) const noexcept {
    return {words_.data() + lists_[id].at, lists_[id].len};
  }
  /// Forget unreferenced lists and pack the survivors' words. Capacity is
  /// kept, so the steady state allocates nothing.
  void compact();

 private:
  struct List {
    std::uint64_t hash;
    std::uint32_t at;    ///< offset into words_
    std::uint32_t len;
    std::uint32_t refs;  ///< 0: dropped at the next compact()
  };
  void rehash();

  std::vector<List> lists_;
  std::vector<std::uint32_t> free_ids_;
  std::vector<PeerId> words_;
  std::vector<PeerId> spare_words_;  ///< compact()'s destination buffer
  std::vector<std::uint32_t> index_;  ///< hash -> id + 1 (0 = empty)
};

/// One vertex's landmark entries (see the header comment). A plain handle:
/// the owner passes the arena and MemberLists of the vertex's shard to every
/// call that may allocate, free or drop entries. A block never released
/// goes back with its arena.
class LandmarkTable {
 public:
  struct Slot {
    ItemId item;
    PeerId search_root;
    Round expiry;
    std::uint64_t wave;
    std::uint32_t members;       ///< MemberLists id of the committee list
    Purpose purpose;
    std::uint8_t pending_depth;  ///< levels still to grow below this node
  };

  /// The present entry for `kid` (expired or not), or nullptr.
  [[nodiscard]] Slot* find(std::uint64_t kid) noexcept;
  [[nodiscard]] const Slot* find(std::uint64_t kid) const noexcept;
  /// A new entry for `kid`, which must not be present; fields unset.
  Slot& insert(std::uint64_t kid, Arena& arena);
  /// Drop entries that expired before `now` (releasing their lists), then
  /// shrink the block to fit the survivors.
  void sweep(Round now, Arena& arena, MemberLists& lists);
  /// Drop every entry and free the block.
  void release(Arena& arena, MemberLists& lists) noexcept;

 private:
  [[nodiscard]] Slot* slots() const noexcept {
    return reinterpret_cast<Slot*>(block_);
  }
  [[nodiscard]] std::uint64_t* keys() const noexcept {
    return reinterpret_cast<std::uint64_t*>(block_ + cap_ * sizeof(Slot));
  }
  [[nodiscard]] std::uint32_t* index() const noexcept {
    return reinterpret_cast<std::uint32_t*>(
        block_ + cap_ * (sizeof(Slot) + sizeof(std::uint64_t)));
  }
  /// Move the first size_ entries into a block sized for `cap` entries and
  /// rebuild the index there.
  void reshape(std::uint32_t cap, Arena& arena);

  std::byte* block_ = nullptr;  ///< slots[cap_] | keys[cap_] | index
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
  std::uint32_t index_mask_ = 0;
};

class LandmarkManager final : public Protocol {
 public:
  LandmarkManager(TokenSoup& soup, CommitteeManager& committees,
                  const ProtocolConfig& config);
  /// Construct and attach in one step (standalone tests/benches). The soup
  /// and committee manager must already be attached to `net`.
  LandmarkManager(Network& net, TokenSoup& soup, CommitteeManager& committees,
                  const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "landmark";
  }
  /// Subscribes to LandmarkRebuildRequest: committee members trigger tree
  /// (re)builds through the event bus, not a direct dependency.
  void on_attach(Network& net) override;
  /// Sharded round: each shard grows the (vertex, kid) entries its own
  /// dispatch recruited last round (sends through ctx) and sweeps its slice
  /// of expired landmark state; the kid -> vertices index sweeps at the
  /// merge.
  [[nodiscard]] bool sharded_round() const noexcept override { return true; }
  void on_round_begin(std::uint32_t shard, ShardContext& ctx) override;
  void on_round_merge() override;
  /// Routes kLandmarkGrow; touches only the receiving vertex's table plus
  /// its shard's member lists and staging (grow queue, index additions,
  /// counters).
  [[nodiscard]] bool sharded_dispatch() const noexcept override { return true; }
  bool on_message(Vertex v, const Message& m, ShardContext& ctx) override;
  void on_dispatch_merge() override;
  void on_churn(Vertex v, PeerId old_peer, PeerId new_peer) override;

  /// Start a new tree rooted at committee member `v` (also reachable by
  /// publishing LandmarkRebuildRequest). Serial context only.
  void start_tree(Vertex v, const Membership& m);
  void start_tree(Vertex v, std::uint64_t kid, ItemId item, Purpose purpose,
                  PeerId search_root, const std::vector<PeerId>& members);

  /// Landmark state at vertex v for committee kid (nullopt if none/expired).
  [[nodiscard]] std::optional<LandmarkState> state_at(Vertex v,
                                                      std::uint64_t kid) const;

  /// Visit every live landmark of committee `kid`: fn(vertex, state).
  template <typename Fn>
  void for_each_landmark(std::uint64_t kid, Fn&& fn) {
    std::vector<Vertex>* verts = holders(kid);
    if (verts == nullptr) return;
    std::size_t write = 0;
    for (std::size_t read = 0; read < verts->size(); ++read) {
      const Vertex v = (*verts)[read];
      const auto st = state_at(v, kid);
      if (!st) continue;
      fn(v, *st);
      (*verts)[write++] = v;
    }
    verts->resize(write);
  }

  /// Number of currently live landmarks for committee kid (exact count).
  [[nodiscard]] std::size_t live_count(std::uint64_t kid) const;

  [[nodiscard]] std::uint32_t tree_depth() const noexcept { return depth_; }
  [[nodiscard]] std::uint32_t ttl() const noexcept { return ttl_; }

 private:
  /// Per-shard state: the shard's member-list store plus staging applied in
  /// ascending shard order at the merges.
  struct ShardStage {
    MemberLists lists;
    /// (vertex, kid) entries recruited by this shard's dispatch, grown at
    /// the next round begin; grow_now is the batch being grown (the two
    /// swap each round, so both keep their capacity).
    std::vector<std::pair<Vertex, std::uint64_t>> grow_next;
    std::vector<std::pair<Vertex, std::uint64_t>> grow_now;
    std::vector<std::pair<std::uint64_t, Vertex>> index_add;
    std::vector<PeerId> children;  ///< recent_distinct output scratch
    std::uint64_t created = 0;
    std::uint64_t collisions = 0;
  };

  /// Send one grow message per child recruited from v's samples; through
  /// ctx when given (sharded round phase), else serially.
  void grow_children(Vertex v, std::uint64_t kid, const LandmarkState& st,
                     std::uint32_t depth, ShardStage& stage,
                     ShardContext* ctx);
  [[nodiscard]] LandmarkState view(Vertex v,
                                   const LandmarkTable::Slot& s) const noexcept;
  /// The index list for kid (nullptr if none).
  [[nodiscard]] std::vector<Vertex>* holders(std::uint64_t kid) noexcept;
  [[nodiscard]] const std::vector<Vertex>* holders(
      std::uint64_t kid) const noexcept;
  /// Rebuild index_slots_ over index_kids_ (after growth or compaction).
  void rehash_index();

  TokenSoup& soup_;
  CommitteeManager& committees_;
  ProtocolConfig config_;
  std::uint32_t depth_ = 0;
  std::uint32_t ttl_ = 0;

  // shardcheck:cold-state(one table handle per vertex, sized at attach; tables draw their blocks from the owning shard's arena)
  std::vector<LandmarkTable> tables_;
  /// kid -> vertices that (may) hold a landmark for it; validated lazily.
  /// Flat: index_lists_[i] belongs to index_kids_[i], found through the
  /// open-addressing index_slots_. Only mutated from serial context (merge
  /// hooks and the serial readers' lazy compaction).
  // shardcheck:cold-state(mutated only from the serial merges that apply staged index_add entries and sweep dead kids)
  std::vector<std::uint64_t> index_kids_;
  // shardcheck:cold-state(mutated only from the serial merges that apply staged index_add entries and sweep dead kids)
  std::vector<std::vector<Vertex>> index_lists_;
  // shardcheck:cold-state(rebuilt only from the serial merges)
  std::vector<std::uint32_t> index_slots_;
  // shardcheck:cold-state(outer vector sized to the shard count at attach; inner staging vectors carry reasoned R6 suppressions at their growth sites, member-list stores keep their capacity)
  std::vector<ShardStage> stage_;
};

}  // namespace churnstore
