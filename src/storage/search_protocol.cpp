#include "storage/search_protocol.h"

#include <algorithm>

namespace churnstore {

namespace {
// kInquiry:       [0] item [1] sid
// kInquiryHit /
// kReport:        [0] item [1] sid [2] holder count m [3 .. 3+m) holder ids
// kFetchRequest:  [0] item [1] sid
// kFetchReply:    [0] item [1] sid [2] piece_index [3] ida_k
//                 [4] original_size [5] member count m [6 .. 6+m) member ids
//                 blob: replica or IDA piece
constexpr std::size_t kHoldersAt = 3;
constexpr std::size_t kReplyMembersAt = 6;
constexpr std::size_t kFetchParallelism = 2;
}  // namespace

SearchManager::SearchManager(TokenSoup& soup, CommitteeManager& committees,
                             LandmarkManager& landmarks, StoreManager& store,
                             const ProtocolConfig& config)
    : soup_(soup),
      committees_(committees),
      landmarks_(landmarks),
      store_(store),
      config_(config) {}

SearchManager::SearchManager(Network& net_ref, TokenSoup& soup,
                             CommitteeManager& committees,
                             LandmarkManager& landmarks, StoreManager& store,
                             const ProtocolConfig& config)
    : SearchManager(soup, committees, landmarks, store, config) {
  on_attach(net_ref);
}

void SearchManager::on_attach(Network& net_ref) {
  Protocol::on_attach(net_ref);
  timeout_ = std::max<std::uint32_t>(
      8, static_cast<std::uint32_t>(config_.search_timeout_taus *
                                    committees_.tau()));
  initiator_.assign(net().n(), {});
}

void SearchManager::on_churn(Vertex v, PeerId, PeerId) {
  initiator_[v].clear();
}

const SearchStatus* SearchManager::status(std::uint64_t sid) const {
  const auto it = status_.find(sid);
  return it == status_.end() ? nullptr : &it->second;
}

std::uint64_t SearchManager::start_search(Vertex initiator, ItemId item) {
  const std::uint64_t sid = mix64(next_sid_++ ^ 0x73696400ULL) | 1;
  SearchStatus st;
  st.sid = sid;
  st.item = item;
  st.initiator = net().peer_at(initiator);
  st.start = net().round();
  st.deadline = st.start + timeout_;
  if (TraceCollector* tc = net().trace_collector();
      tc != nullptr && tc->sampled(sid)) {
    st.trace = sid;
    tc->record(make_trace_event(sid, st.start, initiator, 0, 0,
                                RequestClass::kSearch, TraceEv::kBegin));
  }
  status_[sid] = st;
  active_.push_back(sid);

  InitiatorState is;
  is.sid = sid;
  is.item = item;
  initiator_[initiator][sid] = std::move(is);
  return sid;
}

void SearchManager::finish(std::uint64_t sid) {
  auto& st = status_[sid];
  st.finished = true;
  const auto v = net().find_vertex(st.initiator);
  if (v) initiator_[*v].erase(sid);
  if (st.trace != 0) {
    // Span payload: detail = end-to-end latency in rounds; hop = rounds to
    // locate a holder (the locate/fetch phase breakdown of the span).
    const Round now = net().round();
    const Round locate = st.located >= 0 ? st.located - st.start : 0;
    net().trace_serial(make_trace_event(
        st.trace, now, v ? *v : 0, now - st.start, locate,
        RequestClass::kSearch,
        st.fetch_ok ? TraceEv::kEndOk : TraceEv::kEndFail));
  }
}

void SearchManager::reply_if_holder(Vertex v, ItemId item, std::uint64_t sid,
                                    PeerId to, ShardContext& ctx) {
  std::span<const PeerId> holders;
  if (const Membership* mem = committees_.membership_at(v, item);
      mem && mem->purpose == Purpose::kStorage) {
    holders = mem->members;
  } else if (const auto lm = landmarks_.state_at(v, item);
             lm && lm->purpose == Purpose::kStorage) {
    holders = lm->committee;
  }
  if (holders.empty()) return;
  Message msg;
  msg.src = net().peer_at(v);
  msg.dst = to;
  msg.type = MsgType::kInquiryHit;
  msg.words = {item, sid, holders.size()};
  msg.words.insert(msg.words.end(), holders.begin(), holders.end());
  ctx.send(v, std::move(msg));
}

void SearchManager::issue_fetches(Vertex v, InitiatorState& st) {
  if (st.holders.empty()) return;
  const PeerId self = net().peer_at(v);
  for (std::size_t i = 0; i < kFetchParallelism; ++i) {
    const PeerId holder = st.holders[st.next_fetch % st.holders.size()];
    ++st.next_fetch;
    Message msg;
    msg.src = self;
    msg.dst = holder;
    msg.type = MsgType::kFetchRequest;
    msg.words = {st.item, st.sid};
    net().send(v, std::move(msg));
  }
}

void SearchManager::on_round_begin() {
  const Round now = net().round();
  inquiry_jobs_.clear();
  std::size_t write = 0;
  for (std::size_t read = 0; read < active_.size(); ++read) {
    const std::uint64_t sid = active_[read];
    SearchStatus& st = status_[sid];
    if (st.finished) continue;

    const std::optional<Vertex> iv_slot = net().find_vertex(st.initiator);
    if (!iv_slot) {
      // The searcher itself was churned out; the paper's guarantee is for
      // nodes that stay long enough, so this is a censored trial.
      st.initiator_churned = true;
      st.finished = true;
      if (st.trace != 0) {
        net().trace_serial(make_trace_event(st.trace, now, 0, now - st.start,
                                            0, RequestClass::kSearch,
                                            TraceEv::kEndCensored));
      }
      continue;
    }
    const Vertex iv = *iv_slot;
    if (now > st.deadline) {
      finish(sid);
      continue;
    }
    if (st.fetch_ok) {
      finish(sid);
      continue;
    }

    // Create the search committee (retrying until the initiator's sample
    // buffer is warm enough).
    if (st.committee_created < 0) {
      if (committees_.create(iv, sid, Purpose::kSearch, st.item, st.initiator,
                             {}, st.deadline + 2)) {
        st.committee_created = now;
      }
    }

    // The landmark-driven inquiry fan-out happens in the sharded phase;
    // collect this search's live landmarks here (for_each_landmark also
    // lazily compacts the index).
    landmarks_.for_each_landmark(sid, [this, sid](Vertex w,
                                                  const LandmarkState& lm) {
      if (lm.purpose == Purpose::kSearch) inquiry_jobs_.emplace_back(w, sid);
    });

    // Fetch from reported holders once located.
    if (st.located >= 0 && st.fetched < 0) {
      const auto it = initiator_[iv].find(sid);
      if (it != initiator_[iv].end()) issue_fetches(iv, it->second);
    }

    active_[write++] = sid;
  }
  active_.resize(write);
  // Canonical job order: ascending landmark vertex, stable for multiple
  // searches at one vertex.
  std::stable_sort(inquiry_jobs_.begin(), inquiry_jobs_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
}

void SearchManager::on_round_begin(std::uint32_t shard, ShardContext& ctx) {
  // Drive search landmarks: each contacts the sources of the walks it
  // received last round and inquires about the item (Algorithm 4 step 2).
  // Fanned out over the landmark vertices' own shards (each shard owns a
  // contiguous run of the sorted job list); everything read here
  // (landmark/committee state, samples) is stable during the phase, and
  // all sends stage through ctx.
  (void)shard;
  if (inquiry_jobs_.empty()) return;
  const Round now = net().round();
  const auto lo = std::lower_bound(
      inquiry_jobs_.begin(), inquiry_jobs_.end(), ctx.begin(),
      [](const auto& job, Vertex v) { return job.first < v; });
  for (auto it = lo; it != inquiry_jobs_.end() && it->first < ctx.end();
       ++it) {
    const auto [w, sid] = *it;
    const auto lm = landmarks_.state_at(w, sid);
    if (!lm) continue;
    // A search landmark that itself knows the item reports immediately.
    reply_if_holder(w, lm->item, sid, lm->search_root, ctx);
    const auto& sources = soup_.samples(w).at(now - 1);
    const std::size_t cap = config_.inquiry_cap == 0
                                ? sources.size()
                                : std::min<std::size_t>(config_.inquiry_cap,
                                                        sources.size());
    const PeerId self = net().peer_at(w);
    for (std::size_t i = 0; i < cap; ++i) {
      Message msg;
      msg.src = self;
      msg.dst = sources[i];
      msg.type = MsgType::kInquiry;
      msg.words = {lm->item, sid};
      ctx.send(w, std::move(msg));
    }
  }
}

bool SearchManager::on_message(Vertex v, const Message& m,
                               ShardContext& ctx) {
  switch (m.type) {
    case MsgType::kInquiry: {
      reply_if_holder(v, m.words[0], m.words[1], m.src, ctx);
      return true;
    }
    case MsgType::kInquiryHit: {
      // Forward to the search initiator recorded in our landmark state.
      const std::uint64_t sid = m.words[1];
      const auto lm = landmarks_.state_at(v, sid);
      if (!lm || lm->search_root == kNoPeer) return true;
      Message fwd;
      fwd.src = net().peer_at(v);
      fwd.dst = lm->search_root;
      fwd.type = MsgType::kReport;
      fwd.words = m.words;
      ctx.send(v, std::move(fwd));
      return true;
    }
    case MsgType::kReport: {
      const std::uint64_t sid = m.words[1];
      const auto sit = initiator_[v].find(sid);
      if (sit == initiator_[v].end()) return true;
      InitiatorState& st = sit->second;
      const auto stat_it = status_.find(sid);
      if (stat_it == status_.end()) return true;
      SearchStatus& status = stat_it->second;
      const std::uint64_t count = m.words[2];
      for (std::uint64_t i = 0; i < count; ++i) {
        const PeerId h = m.words[kHoldersAt + i];
        // shardcheck:ok(R6: holder dedup on a search reply: O(holders in the reply) per active search, not per token)
        if (h != kNoPeer && st.holder_set.insert(h).second) {
          // shardcheck:ok(R6: holder list on a search reply: O(holders) per active search)
          st.holders.push_back(h);
        }
      }
      if (status.located < 0 && !st.holders.empty()) {
        status.located = net().round();
      }
      return true;
    }
    case MsgType::kFetchRequest: {
      const ItemId item = m.words[0];
      const Membership* mem = committees_.membership_at(v, item);
      if (!mem || mem->purpose != Purpose::kStorage || mem->payload.empty()) {
        return true;
      }
      Message reply;
      reply.src = net().peer_at(v);
      reply.dst = m.src;
      reply.type = MsgType::kFetchReply;
      reply.words = {item,
                     m.words[1],
                     mem->piece_index,
                     mem->ida_k,
                     mem->original_size,
                     mem->members.size()};
      reply.words.insert(reply.words.end(), mem->members.begin(),
                         mem->members.end());
      reply.blob = mem->payload;
      ctx.send(v, std::move(reply));
      return true;
    }
    case MsgType::kFetchReply: {
      const std::uint64_t sid = m.words[1];
      const auto sit = initiator_[v].find(sid);
      if (sit == initiator_[v].end()) return true;
      InitiatorState& st = sit->second;
      const auto stat_it = status_.find(sid);
      if (stat_it == status_.end()) return true;
      SearchStatus& status = stat_it->second;
      if (status.fetched >= 0) return true;

      const auto piece_index = static_cast<std::uint32_t>(m.words[2]);
      const ItemRecord* rec = store_.record(st.item);
      if (piece_index == kNoPiece) {
        status.fetched = net().round();
        status.fetch_ok =
            rec && content_hash(m.blob.data(), m.blob.size()) == rec->hash;
        // shardcheck:ok(R6: fetched item payload copy: O(item bytes) per completed fetch)
        status.fetched_data.assign(m.blob.begin(), m.blob.end());
        return true;
      }
      // Erasure mode: gather distinct pieces; holders list in the reply
      // extends the fetch candidates.
      const std::uint64_t count = m.words[5];
      for (std::uint64_t i = 0; i < count; ++i) {
        const PeerId h = m.words[kReplyMembersAt + i];
        // shardcheck:ok(R6: holder dedup on a fetch reply: O(holders) per active search)
        if (h != kNoPeer && st.holder_set.insert(h).second) {
          // shardcheck:ok(R6: holder list on a fetch reply: O(holders) per active search)
          st.holders.push_back(h);
        }
      }
      // shardcheck:ok(R6: distinct-piece tracking: O(ida_k) per active erasure fetch)
      if (st.piece_indices.insert(piece_index).second) {
        // shardcheck:ok(R6: gathered erasure pieces: O(ida_k x piece bytes) per active fetch)
        st.pieces.push_back(IdaPiece{piece_index, m.blob.to_vector()});
      }
      const auto ida_k = static_cast<std::uint32_t>(m.words[3]);
      const auto original_size = static_cast<std::size_t>(m.words[4]);
      if (ida_k > 0 && st.pieces.size() >= ida_k) {
        const ErasurePolicy policy(config_.ida_surplus);
        const auto data = policy.reconstruct(st.pieces, ida_k, original_size);
        if (data) {
          status.fetched = net().round();
          status.fetch_ok = rec && content_hash(*data) == rec->hash;
          status.fetched_data = *data;
        }
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace churnstore
