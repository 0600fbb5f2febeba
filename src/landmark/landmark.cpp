#include "landmark/landmark.h"

#include <algorithm>
#include <cstring>

namespace churnstore {

namespace {
// kLandmarkGrow word layout:
//   [0] kid [1] item [2] purpose [3] search_root [4] depth [5] wave
//   [6] committee count m  [7 .. 7+m) committee member ids
constexpr std::size_t kCommitteeAt = 7;

// Open-addressing key -> position index shared by the per-vertex tables, the
// global kid -> vertices index and the member-list stores (keyed by list
// hash there). Cells hold position + 1 (0 = empty); tables are power-of-two
// sized at >= 2x their entries and never erase — they are rebuilt after
// compaction — so probes stay short and tombstone-free. Slots are picked
// with the Fibonacci mix of net/peer_index.h.
[[nodiscard]] std::uint32_t home(std::uint64_t key,
                                 std::uint32_t mask) noexcept {
  return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

/// Position of `kid` in `keys` (through `index`), or -1.
[[nodiscard]] std::int64_t probe(const std::uint32_t* index, std::uint32_t mask,
                                 const std::uint64_t* keys,
                                 std::uint64_t kid) noexcept {
  for (std::uint32_t i = home(kid, mask);; i = (i + 1) & mask) {
    const std::uint32_t cell = index[i];
    if (cell == 0) return -1;
    if (keys[cell - 1] == kid) return cell - 1;
  }
}

void place(std::uint32_t* index, std::uint32_t mask, std::uint64_t key,
           std::uint32_t pos) noexcept {
  std::uint32_t i = home(key, mask);
  while (index[i] != 0) i = (i + 1) & mask;
  index[i] = pos + 1;
}

/// Index cells for `entries` keys: a power of two >= 2 * entries.
[[nodiscard]] std::uint32_t index_cells(std::uint32_t entries) noexcept {
  std::uint32_t cells = 4;
  while (cells < 2 * entries) cells <<= 1;
  return cells;
}

[[nodiscard]] std::size_t block_bytes(std::uint32_t cap) noexcept {
  constexpr std::size_t kEntry =
      sizeof(LandmarkTable::Slot) + sizeof(std::uint64_t);
  return cap == 0 ? 0
                  : cap * kEntry + index_cells(cap) * sizeof(std::uint32_t);
}

[[nodiscard]] std::uint64_t list_hash(std::span<const PeerId> ids) noexcept {
  std::uint64_t h = ids.size() * 0x9E3779B97F4A7C15ull;
  for (const PeerId p : ids) {
    h = (h ^ p) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  return h;
}
}  // namespace

// --- MemberLists -------------------------------------------------------------

std::uint32_t MemberLists::acquire(std::span<const PeerId> ids) {
  const std::uint64_t h = list_hash(ids);
  if (index_.size() < 2 * (lists_.size() + 1)) rehash();
  const auto mask = static_cast<std::uint32_t>(index_.size() - 1);
  std::uint32_t i = home(h, mask);
  for (; index_[i] != 0; i = (i + 1) & mask) {
    List& l = lists_[index_[i] - 1];
    if (l.hash == h && l.len == ids.size() &&
        std::equal(ids.begin(), ids.end(), words_.begin() + l.at)) {
      ++l.refs;
      return index_[i] - 1;
    }
  }
  std::uint32_t id;
  if (free_ids_.empty()) {
    id = static_cast<std::uint32_t>(lists_.size());
    lists_.emplace_back();
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
  }
  lists_[id] = List{h, static_cast<std::uint32_t>(words_.size()),
                    static_cast<std::uint32_t>(ids.size()), 1};
  words_.insert(words_.end(), ids.begin(), ids.end());
  index_[i] = id + 1;
  return id;
}

void MemberLists::rehash() {
  index_.assign(index_cells(static_cast<std::uint32_t>(lists_.size() + 1)), 0);
  const auto mask = static_cast<std::uint32_t>(index_.size() - 1);
  for (std::uint32_t id = 0; id < lists_.size(); ++id) {
    if (lists_[id].refs != 0) place(index_.data(), mask, lists_[id].hash, id);
  }
}

void MemberLists::compact() {
  spare_words_.clear();
  free_ids_.clear();
  for (std::uint32_t id = 0; id < lists_.size(); ++id) {
    List& l = lists_[id];
    if (l.refs == 0) {
      l.len = 0;
      free_ids_.push_back(id);
      continue;
    }
    const auto at = static_cast<std::uint32_t>(spare_words_.size());
    spare_words_.insert(spare_words_.end(), words_.begin() + l.at,
                        words_.begin() + l.at + l.len);
    l.at = at;
  }
  words_.swap(spare_words_);
  // Recycle low ids first, so the directory stays dense.
  std::reverse(free_ids_.begin(), free_ids_.end());
  rehash();
}

// --- LandmarkTable -----------------------------------------------------------

LandmarkTable::Slot* LandmarkTable::find(std::uint64_t kid) noexcept {
  return const_cast<Slot*>(std::as_const(*this).find(kid));
}

const LandmarkTable::Slot* LandmarkTable::find(
    std::uint64_t kid) const noexcept {
  if (size_ == 0) return nullptr;
  const std::int64_t pos = probe(index(), index_mask_, keys(), kid);
  return pos < 0 ? nullptr : &slots()[pos];
}

void LandmarkTable::reshape(std::uint32_t cap, Arena& arena) {
  std::byte* old = block_;
  const std::size_t old_bytes = block_bytes(cap_);
  const Slot* old_slots = slots();
  const std::uint64_t* old_keys = keys();
  block_ = static_cast<std::byte*>(arena.allocate(block_bytes(cap)));
  cap_ = cap;
  index_mask_ = index_cells(cap) - 1;
  if (size_ != 0) {
    std::memcpy(slots(), old_slots, size_ * sizeof(Slot));
    std::memcpy(keys(), old_keys, size_ * sizeof(std::uint64_t));
  }
  arena.deallocate(old, old_bytes);
  std::uint32_t* idx = index();
  std::fill_n(idx, index_mask_ + 1, 0u);
  const std::uint64_t* k = keys();
  for (std::uint32_t i = 0; i < size_; ++i) place(idx, index_mask_, k[i], i);
}

LandmarkTable::Slot& LandmarkTable::insert(std::uint64_t kid, Arena& arena) {
  if (size_ == cap_) reshape(cap_ < 4 ? 4 : cap_ + cap_ / 2, arena);
  keys()[size_] = kid;
  place(index(), index_mask_, kid, size_);
  return slots()[size_++];
}

void LandmarkTable::sweep(Round now, Arena& arena, MemberLists& lists) {
  if (size_ == 0) return;
  Slot* sl = slots();
  std::uint64_t* k = keys();
  std::uint32_t live = 0;
  for (std::uint32_t i = 0; i < size_; ++i) {
    if (sl[i].expiry < now) {
      lists.release(sl[i].members);
      continue;
    }
    sl[live] = sl[i];
    k[live] = k[i];
    ++live;
  }
  if (live == 0) {
    release(arena, lists);
    return;
  }
  size_ = live;
  reshape(live, arena);
}

void LandmarkTable::release(Arena& arena, MemberLists& lists) noexcept {
  const Slot* sl = slots();
  for (std::uint32_t i = 0; i < size_; ++i) lists.release(sl[i].members);
  arena.deallocate(block_, block_bytes(cap_));
  *this = LandmarkTable{};
}

// --- LandmarkManager ---------------------------------------------------------

LandmarkManager::LandmarkManager(TokenSoup& soup, CommitteeManager& committees,
                                 const ProtocolConfig& config)
    : soup_(soup), committees_(committees), config_(config) {}

LandmarkManager::LandmarkManager(Network& net_ref, TokenSoup& soup,
                                 CommitteeManager& committees,
                                 const ProtocolConfig& config)
    : LandmarkManager(soup, committees, config) {
  on_attach(net_ref);
}

void LandmarkManager::on_attach(Network& net_ref) {
  Protocol::on_attach(net_ref);
  // mu <= ceil((0.5 + delta) log2 n), far below 256: pending depths fit a
  // Slot's byte.
  depth_ = landmark_tree_depth(net().n(), net().config().churn.k,
                               config_.delta, committees_.target_size());
  ttl_ = std::max<std::uint32_t>(
      4, static_cast<std::uint32_t>(config_.landmark_ttl_taus *
                                    committees_.tau()));
  tables_.assign(net().n(), {});
  stage_.assign(net().shards().count(), {});
  net().events().subscribe<LandmarkRebuildRequest>(
      [this](LandmarkRebuildRequest& req) {
        start_tree(req.vertex, req.kid, req.item, req.purpose,
                   req.search_root, *req.members);
      });
}

void LandmarkManager::on_churn(Vertex v, PeerId, PeerId) {
  const std::uint32_t shard = net().shards().shard_of(v);
  tables_[v].release(net().shard_arena(shard), stage_[shard].lists);
}

LandmarkState LandmarkManager::view(
    Vertex v, const LandmarkTable::Slot& s) const noexcept {
  LandmarkState st;
  st.item = s.item;
  st.purpose = s.purpose;
  st.search_root = s.search_root;
  st.expiry = s.expiry;
  st.wave = s.wave;
  st.committee = stage_[net().shards().shard_of(v)].lists.get(s.members);
  return st;
}

std::optional<LandmarkState> LandmarkManager::state_at(
    Vertex v, std::uint64_t kid) const {
  const LandmarkTable::Slot* s = tables_[v].find(kid);
  if (s == nullptr || s->expiry < net().round()) return std::nullopt;
  return view(v, *s);
}

const std::vector<Vertex>* LandmarkManager::holders(
    std::uint64_t kid) const noexcept {
  if (index_kids_.empty()) return nullptr;
  const auto mask = static_cast<std::uint32_t>(index_slots_.size() - 1);
  const std::int64_t pos =
      probe(index_slots_.data(), mask, index_kids_.data(), kid);
  return pos < 0 ? nullptr : &index_lists_[pos];
}

std::vector<Vertex>* LandmarkManager::holders(std::uint64_t kid) noexcept {
  return const_cast<std::vector<Vertex>*>(std::as_const(*this).holders(kid));
}

void LandmarkManager::rehash_index() {
  const auto kids = static_cast<std::uint32_t>(index_kids_.size());
  index_slots_.assign(index_cells(kids), 0);
  const auto mask = static_cast<std::uint32_t>(index_slots_.size() - 1);
  for (std::uint32_t i = 0; i < kids; ++i) {
    place(index_slots_.data(), mask, index_kids_[i], i);
  }
}

std::size_t LandmarkManager::live_count(std::uint64_t kid) const {
  const std::vector<Vertex>* verts = holders(kid);
  if (verts == nullptr) return 0;
  std::size_t alive = 0;
  for (const Vertex v : *verts) alive += state_at(v, kid).has_value();
  return alive;
}

void LandmarkManager::grow_children(Vertex v, std::uint64_t kid,
                                    const LandmarkState& st,
                                    std::uint32_t depth, ShardStage& stage,
                                    ShardContext* ctx) {
  const PeerId self = net().peer_at(v);
  stage.children.clear();
  soup_.samples(v).recent_distinct(config_.tree_fanout, {&self, 1},
                                   stage.children);
  for (const PeerId child : stage.children) {
    Message msg;
    msg.src = self;
    msg.dst = child;
    msg.type = MsgType::kLandmarkGrow;
    msg.words = {kid,
                 st.item,
                 static_cast<std::uint64_t>(st.purpose),
                 st.search_root,
                 depth,
                 st.wave,
                 st.committee.size()};
    msg.words.insert(msg.words.end(), st.committee.begin(),
                     st.committee.end());
    if (ctx != nullptr) {
      ctx->send(v, std::move(msg));
    } else {
      net().send(v, std::move(msg));
    }
  }
}

void LandmarkManager::start_tree(Vertex v, const Membership& m) {
  start_tree(v, m.kid, m.item, m.purpose, m.search_root, m.members);
}

void LandmarkManager::start_tree(Vertex v, std::uint64_t kid, ItemId item,
                                 Purpose purpose, PeerId search_root,
                                 const std::vector<PeerId>& members) {
  // The member acts as the tree root: it is not itself a landmark (it is
  // better — it holds the item), it just recruits the first level. Serial
  // context may use any shard's arena between phases: the grow messages'
  // member lists spill into the root's, not onto the global heap.
  const std::uint32_t shard = net().shards().shard_of(v);
  const ScopedArenaBind bind(&net().shard_arena(shard));
  LandmarkState root;
  root.item = item;
  root.purpose = purpose;
  root.search_root = search_root;
  root.wave = static_cast<std::uint64_t>(net().round());
  root.committee = members;
  grow_children(v, kid, root, depth_, stage_[shard], nullptr);
}

void LandmarkManager::on_round_begin(std::uint32_t shard, ShardContext& ctx) {
  // Grow one tree level: exactly the (vertex, kid) entries this shard's own
  // dispatch recruited last round, in dispatch order.
  ShardStage& stage = stage_[shard];
  stage.grow_now.swap(stage.grow_next);
  for (const auto& [v, kid] : stage.grow_now) {
    LandmarkTable::Slot* s = tables_[v].find(kid);
    // Churned since, or grown already (recruited twice in one dispatch).
    if (s == nullptr || s->pending_depth == 0) continue;
    const std::uint32_t depth = s->pending_depth;
    s->pending_depth = 0;
    grow_children(v, kid, view(v, *s), depth, stage, &ctx);
  }
  stage.grow_now.clear();

  // Periodic garbage collection of expired landmark state ("discards any
  // information about I" after the TTL, per Algorithm 2 step 4); this
  // shard's vertex slice only — the global index sweeps at the merge.
  const Round now = net().round();
  if (now % ttl_ == 0) {
    Arena& arena = net().shard_arena(shard);
    for (Vertex v = ctx.begin(); v < ctx.end(); ++v) {
      tables_[v].sweep(now, arena, stage.lists);
    }
    stage.lists.compact();
  }
}

void LandmarkManager::on_round_merge() {
  const Round now = net().round();
  if (now % ttl_ != 0) return;
  // Drop swept holders from every list, then kids with none left; the
  // survivors keep their relative order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < index_kids_.size(); ++i) {
    const std::uint64_t kid = index_kids_[i];
    std::vector<Vertex>& verts = index_lists_[i];
    std::erase_if(verts,
                  [&](Vertex v) { return tables_[v].find(kid) == nullptr; });
    if (verts.empty()) continue;
    index_kids_[kept] = kid;
    index_lists_[kept].swap(verts);
    ++kept;
  }
  index_kids_.resize(kept);
  index_lists_.resize(kept);
  rehash_index();
}

bool LandmarkManager::on_message(Vertex v, const Message& m,
                                 ShardContext& ctx) {
  if (m.type != MsgType::kLandmarkGrow) return false;
  ShardStage& stage = stage_[ctx.shard()];
  const std::uint64_t kid = m.words[0];
  const std::uint64_t wave = m.words[5];
  const Round now = net().round();
  LandmarkTable& table = tables_[v];
  LandmarkTable::Slot* cur = table.find(kid);
  if (cur != nullptr && cur->wave == wave && cur->expiry >= now) {
    // Already recruited into this wave's tree ("unused" check of the paper,
    // resolved at the child): the branch dies here.
    ++stage.collisions;
    return true;
  }
  const bool was_absent = cur == nullptr;
  const std::uint32_t members = stage.lists.acquire(
      {m.words.data() + kCommitteeAt, static_cast<std::size_t>(m.words[6])});
  LandmarkTable::Slot& st =
      was_absent ? table.insert(kid, net().shard_arena(ctx.shard())) : *cur;
  if (!was_absent) stage.lists.release(st.members);
  st.members = members;
  st.item = m.words[1];
  st.purpose = static_cast<Purpose>(m.words[2]);
  st.search_root = m.words[3];
  st.wave = wave;
  st.expiry = now + ttl_;
  const auto depth = static_cast<std::uint32_t>(m.words[4]);
  st.pending_depth = static_cast<std::uint8_t>(depth > 1 ? depth - 1 : 0);
  // shardcheck:ok(R6: staged growth queue: O(recruited entries per rebuild wave); swapped with grow_now each round, so capacity is reused)
  if (st.pending_depth > 0) stage.grow_next.emplace_back(v, kid);
  // shardcheck:ok(R6: staged index update: O(new landmarks per rebuild wave))
  if (was_absent) stage.index_add.emplace_back(kid, v);
  ++stage.created;
  return true;
}

void LandmarkManager::on_dispatch_merge() {
  // Ascending shard order + ascending vertex order within a shard's
  // dispatch = the index receives vertices in ascending global order, as a
  // serial dispatch would have inserted them.
  for (ShardStage& stage : stage_) {
    for (const auto& [kid, v] : stage.index_add) {
      std::vector<Vertex>* verts = holders(kid);
      if (verts == nullptr) {
        index_kids_.push_back(kid);
        index_lists_.emplace_back();
        if (index_slots_.size() < 2 * index_kids_.size()) {
          rehash_index();
        } else {
          place(index_slots_.data(),
                static_cast<std::uint32_t>(index_slots_.size() - 1), kid,
                static_cast<std::uint32_t>(index_kids_.size() - 1));
        }
        verts = &index_lists_.back();
      }
      verts->push_back(v);
    }
    stage.index_add.clear();
    net().metrics().count_landmark_created(stage.created);
    net().metrics().count_landmark_collision(stage.collisions);
    stage.created = stage.collisions = 0;
  }
}

}  // namespace churnstore
