#include "baseline/kwalker.h"

#include <algorithm>
#include <cmath>

namespace churnstore {

KWalkerSearch::KWalkerSearch(TokenSoup& soup, Options options)
    : soup_(soup), options_(options) {}

KWalkerSearch::KWalkerSearch(Network& net_ref, TokenSoup& soup, Options options)
    : KWalkerSearch(soup, options) {
  on_attach(net_ref);
}

void KWalkerSearch::on_attach(Network& net_ref) {
  Protocol::on_attach(net_ref);
  stream_salt_ = net().protocol_rng().fork(0x6b77616cULL).next();
  held_.assign(net().n(), {});
  stage_.assign(net().shards().count(), {});
  default_ttl_ =
      options_.default_ttl != 0 ? options_.default_ttl : 4 * soup_.tau();
}

void KWalkerSearch::on_churn(Vertex v, PeerId, PeerId) {
  held_[v].clear();
  // Walkers currently sitting at v die with the peer that was carrying them.
  for (auto& w : walkers_) {
    if (w.at == v && w.ttl > 0) {
      w.ttl = 0;
      ++outcomes_[w.sid].walkers_lost;
    }
  }
}

std::size_t KWalkerSearch::store(Vertex creator, ItemId item) {
  const auto want =
      options_.replication != 0
          ? options_.replication
          : static_cast<std::uint32_t>(
                std::ceil(std::sqrt(static_cast<double>(net().n()))));
  std::vector<PeerId> targets;
  soup_.samples(creator).recent_distinct(want, {}, targets);
  if (targets.size() < std::max<std::size_t>(1, want / 2)) return 0;
  const PeerId self = net().peer_at(creator);
  for (const PeerId t : targets) {
    Message msg;
    msg.src = self;
    msg.dst = t;
    msg.type = MsgType::kFloodData;
    msg.words = {item};
    msg.payload_bits = options_.item_bits;
    net().send(creator, std::move(msg));
    // Place synchronously for the god view (the message also charges cost).
    if (const auto tv = net().find_vertex(t)) held_[*tv].insert(item);
  }
  placed_[item] = targets;
  return targets.size();
}

std::uint64_t KWalkerSearch::search(Vertex initiator, ItemId item,
                                    std::uint32_t ttl) {
  const std::uint64_t sid = mix64(next_sid_++ ^ 0x6b77ULL) | 1;
  outcomes_[sid] = SearchOutcome{};
  start_round_[sid] = net().round();
  for (std::uint32_t i = 0; i < options_.walkers; ++i) {
    walkers_.push_back(Walker{sid, item, initiator, ttl});
  }
  if (TraceCollector* tc = net().trace_collector();
      tc != nullptr && tc->sampled(sid)) {
    traced_.push_back(TracedProbe{sid, initiator});
    tc->record(make_trace_event(sid, net().round(), initiator, 0,
                                options_.walkers, RequestClass::kWalkerProbe,
                                TraceEv::kBegin));
  }
  return sid;
}

KWalkerSearch::SearchOutcome KWalkerSearch::outcome(std::uint64_t sid) const {
  const auto it = outcomes_.find(sid);
  return it == outcomes_.end() ? SearchOutcome{} : it->second;
}

std::size_t KWalkerSearch::holders_alive(ItemId item) const {
  const auto it = placed_.find(item);
  if (it == placed_.end()) return 0;
  std::size_t alive = 0;
  for (const PeerId p : it->second) {
    const auto v = net().find_vertex(p);
    if (v && held_[*v].count(item)) ++alive;
  }
  return alive;
}

bool KWalkerSearch::try_store(Vertex creator, ItemId item) {
  return store(creator, item) > 0;
}

std::uint64_t KWalkerSearch::begin_search(Vertex initiator, ItemId item) {
  return search(initiator, item, default_ttl_);
}

WorkloadOutcome KWalkerSearch::search_outcome(std::uint64_t sid) const {
  const SearchOutcome native = outcome(sid);
  WorkloadOutcome out;
  out.done = native.done;
  out.located = out.fetched = native.success;
  if (native.success) {
    const auto it = start_round_.find(sid);
    const Round start = it == start_round_.end() ? 0 : it->second;
    out.located_round = out.fetched_round = start + native.rounds_taken;
  }
  return out;
}

void KWalkerSearch::on_round_begin() {
  // Partition the walker index range across the engine's shard count; the
  // walkers themselves are processed in the sharded hook.
  walker_plan_ = ShardPlan(static_cast<std::uint32_t>(walkers_.size()),
                           net().shards().count());
}

void KWalkerSearch::on_round_begin(std::uint32_t shard, ShardContext& ctx) {
  if (walkers_.empty() || shard >= walker_plan_.count()) return;
  const RegularGraph& g = net().graph();
  const std::uint32_t d = g.degree();
  const std::uint64_t round_key =
      mix64(stream_salt_ ^ static_cast<std::uint64_t>(net().round()));
  ShardStage& stage = stage_[shard];
  for (std::uint32_t i = walker_plan_.begin(shard);
       i < walker_plan_.end(shard); ++i) {
    Walker w = walkers_[i];
    if (w.ttl == 0) continue;
    const auto out_it = outcomes_.find(w.sid);
    if (out_it != outcomes_.end() && out_it->second.done) continue;
    // Per-(round, walker) stream: trajectories are independent of the
    // shard partition and of sibling walkers' draws.
    Rng rng = stream_rng(round_key, i);
    w.at = g.neighbor(w.at, static_cast<std::uint32_t>(rng.next_below(d)));
    --w.ttl;
    ctx.charge(w.at, 64 + 64 + 16);  // item id + sid + ttl
    if (held_[w.at].count(w.item)) {
      // Same-round sibling hits resolve at the merge (first in canonical
      // walker order wins); the walker retires either way.
      // shardcheck:ok(R6: staged walker hits: O(walkers hitting this round), k-walker baseline makes no heap-quiet claim)
      stage.hit_sids.push_back(w.sid);
      continue;
    }
    // shardcheck:ok(R6: surviving walkers restaged each round: O(active walkers), amortized by vector capacity reuse)
    if (w.ttl > 0) stage.survivors.push_back(w);
  }
}

void KWalkerSearch::on_round_merge() {
  const Round now = net().round();
  walkers_.clear();
  for (ShardStage& stage : stage_) {
    for (const std::uint64_t sid : stage.hit_sids) {
      SearchOutcome& out = outcomes_[sid];
      if (!out.done) {
        out.done = true;
        out.success = true;
        out.rounds_taken = now - start_round_[sid];
      }
    }
    stage.hit_sids.clear();
    walkers_.insert(walkers_.end(), stage.survivors.begin(),
                    stage.survivors.end());
    stage.survivors.clear();
  }

  // Resolve sampled probes (serial; traced_ is empty unless sampling hit).
  // A probe ends ok the round its outcome flips done, and ends failed once
  // no walker of its sid survives (all TTLs expired or churned out).
  if (!traced_.empty()) {
    std::size_t write = 0;
    for (std::size_t read = 0; read < traced_.size(); ++read) {
      const TracedProbe& tp = traced_[read];
      const auto out_it = outcomes_.find(tp.sid);
      if (out_it != outcomes_.end() && out_it->second.done) {
        net().trace_serial(make_trace_event(
            tp.sid, now, tp.initiator, out_it->second.rounds_taken,
            options_.walkers, RequestClass::kWalkerProbe, TraceEv::kEndOk));
        continue;
      }
      bool alive = false;
      for (const Walker& w : walkers_) {
        if (w.sid == tp.sid) {
          alive = true;
          break;
        }
      }
      if (!alive) {
        net().trace_serial(make_trace_event(
            tp.sid, now, tp.initiator, now - start_round_[tp.sid],
            options_.walkers, RequestClass::kWalkerProbe, TraceEv::kEndFail));
        continue;
      }
      if (write != read) traced_[write] = traced_[read];
      ++write;
    }
    traced_.resize(write);
  }
}

}  // namespace churnstore
