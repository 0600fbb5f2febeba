#include "baseline/sqrt_replication.h"

#include <algorithm>
#include <cmath>

namespace churnstore {

namespace {
// kProbe:    [0] item [1] sid
// kProbeHit: [0] item [1] sid
}  // namespace

SqrtReplication::SqrtReplication(TokenSoup& soup, Options options)
    : soup_(soup), options_(options) {}

SqrtReplication::SqrtReplication(Network& net_ref, TokenSoup& soup,
                                 Options options)
    : SqrtReplication(soup, options) {
  on_attach(net_ref);
}

void SqrtReplication::on_attach(Network& net_ref) {
  Protocol::on_attach(net_ref);
  held_.assign(net().n(), {});
  default_timeout_ = options_.default_timeout != 0 ? options_.default_timeout
                                                   : 4 * soup_.tau();
}

void SqrtReplication::on_churn(Vertex v, PeerId, PeerId) { held_[v].clear(); }

bool SqrtReplication::try_store(Vertex creator, ItemId item) {
  return store(creator, item) > 0;
}

std::uint64_t SqrtReplication::begin_search(Vertex initiator, ItemId item) {
  return search(initiator, item, default_timeout_);
}

WorkloadOutcome SqrtReplication::search_outcome(std::uint64_t sid) const {
  const SearchOutcome native = outcome(sid);
  WorkloadOutcome out;
  out.done = native.done;
  out.censored = native.censored;
  out.located = out.fetched = native.success;
  if (native.success) {
    const auto it = start_round_.find(sid);
    const Round start = it == start_round_.end() ? 0 : it->second;
    out.located_round = out.fetched_round = start + native.rounds_taken;
  }
  return out;
}

std::size_t SqrtReplication::store(Vertex creator, ItemId item) {
  const double n = static_cast<double>(net().n());
  const auto want = static_cast<std::size_t>(
      std::ceil(options_.replication_mult * std::sqrt(n * std::log(n))));
  std::vector<PeerId> targets;
  soup_.samples(creator).recent_distinct(want, {}, targets);
  if (targets.size() < want / 2 || targets.empty()) return 0;
  const PeerId self = net().peer_at(creator);
  for (const PeerId t : targets) {
    Message msg;
    msg.src = self;
    msg.dst = t;
    msg.type = MsgType::kFloodData;  // reuse: "store this replica"
    msg.words = {item};
    msg.payload_bits = options_.item_bits;
    net().send(creator, std::move(msg));
  }
  placed_[item] = targets;
  return targets.size();
}

std::uint64_t SqrtReplication::search(Vertex initiator, ItemId item,
                                      std::uint32_t timeout) {
  const std::uint64_t sid = mix64(next_sid_++ ^ 0x73717274ULL) | 1;
  active_.push_back(ActiveSearch{sid, item, net().peer_at(initiator),
                                 net().round(),
                                 net().round() + static_cast<Round>(timeout)});
  outcomes_[sid] = SearchOutcome{};
  start_round_[sid] = net().round();
  return sid;
}

SqrtReplication::SearchOutcome SqrtReplication::outcome(
    std::uint64_t sid) const {
  const auto it = outcomes_.find(sid);
  return it == outcomes_.end() ? SearchOutcome{} : it->second;
}

std::size_t SqrtReplication::holders_alive(ItemId item) const {
  const auto it = placed_.find(item);
  if (it == placed_.end()) return 0;
  std::size_t alive = 0;
  for (const PeerId p : it->second) {
    const auto v = net().find_vertex(p);
    if (v && held_[*v].count(item)) ++alive;
  }
  return alive;
}

void SqrtReplication::on_round_begin() {
  const Round now = net().round();
  probe_jobs_.clear();
  std::size_t write = 0;
  for (std::size_t read = 0; read < active_.size(); ++read) {
    ActiveSearch& s = active_[read];
    SearchOutcome& out = outcomes_[s.sid];
    if (out.done) continue;
    const auto iv_slot = net().find_vertex(s.initiator);
    if (!iv_slot) {
      out.done = true;
      out.censored = true;
      continue;
    }
    const Vertex iv = *iv_slot;
    if (now > s.deadline) {
      out.done = true;
      continue;
    }
    probe_jobs_.push_back(ProbeJob{iv, s.item, s.sid});
    active_[write++] = s;
  }
  active_.resize(write);
  // Canonical emission order: ascending initiator vertex (stable for
  // same-vertex searches). Each shard then owns a contiguous run, and the
  // merged probe stream is identical for every shard count.
  std::stable_sort(probe_jobs_.begin(), probe_jobs_.end(),
                   [](const ProbeJob& a, const ProbeJob& b) {
                     return a.initiator < b.initiator;
                   });
}

void SqrtReplication::on_round_begin(std::uint32_t shard, ShardContext& ctx) {
  // Probe the sources of walks that completed at the initiator last round
  // (the birthday-paradox sampling step); each initiator's probes go out
  // from its own shard.
  const Round now = net().round();
  const ShardPlan& plan = net().shards();
  for (const ProbeJob& job : probe_jobs_) {
    if (plan.shard_of(job.initiator) != shard) continue;
    const auto& sources = soup_.samples(job.initiator).at(now - 1);
    const std::size_t cap =
        options_.probes_per_round == 0
            ? sources.size()
            : std::min<std::size_t>(options_.probes_per_round, sources.size());
    const PeerId self = net().peer_at(job.initiator);
    for (std::size_t i = 0; i < cap; ++i) {
      Message msg;
      msg.src = self;
      msg.dst = sources[i];
      msg.type = MsgType::kProbe;
      msg.words = {job.item, job.sid};
      ctx.send(job.initiator, std::move(msg));
    }
  }
}

bool SqrtReplication::on_message(Vertex v, const Message& m,
                                 ShardContext& ctx) {
  switch (m.type) {
    case MsgType::kFloodData: {
      held_[v].insert(m.words[0]);
      return true;
    }
    case MsgType::kProbe: {
      if (held_[v].count(m.words[0])) {
        Message hit;
        hit.src = net().peer_at(v);
        hit.dst = m.src;
        hit.type = MsgType::kProbeHit;
        hit.words = m.words;
        ctx.send(v, std::move(hit));
      }
      return true;
    }
    case MsgType::kProbeHit: {
      // Only the search initiator's vertex receives hits for its sid, so
      // the outcome record is exclusively this shard's to mutate.
      const auto it = outcomes_.find(m.words[1]);
      if (it == outcomes_.end()) return true;
      SearchOutcome& out = it->second;
      if (!out.done) {
        out.done = true;
        out.success = true;
        const auto sit = start_round_.find(m.words[1]);
        out.rounds_taken =
            net().round() - (sit == start_round_.end() ? 0 : sit->second);
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace churnstore
