// Simulation configuration: network size, degree, churn specification,
// edge dynamics, and the protocol constants mapped from the paper's symbols
// (see DESIGN.md section 4 for the mapping table).
#pragma once

#include <cstdint>

#include "net/types.h"

namespace churnstore {

enum class AdversaryKind {
  kNone,            ///< no churn
  kUniform,         ///< replace uniformly random vertices each round
  kBlockSweep,      ///< sweep contiguous vertex blocks (kills whole regions)
  kRegionRepeat,    ///< hammer one random region over and over
  kOldestFirst,     ///< always replace the longest-lived peers
  kYoungestFirst,   ///< always replace the newest peers
  /// ADAPTIVE (deliberately violates the paper's oblivious model): the
  /// adversary reads protocol state each round (via a targeter callback)
  /// and churns exactly the nodes doing the work. Exists to demonstrate
  /// *why* the obliviousness assumption is necessary (bench_adversary).
  kAdaptive,
};

struct ChurnSpec {
  AdversaryKind kind = AdversaryKind::kUniform;
  /// Paper churn limit: multiplier * n / (ln n)^k per round.
  double k = 1.5;
  double multiplier = 4.0;
  /// If >= 0, overrides the formula with an absolute per-round count.
  std::int64_t absolute = -1;
  /// kAdaptive only: pad the per-round quota with uniform victims when the
  /// targeter supplies fewer (true = fair-volume comparisons; false =
  /// surgical failure injection that churns exactly the chosen vertices).
  bool adaptive_pad_uniform = true;

  /// Per-round replacement count for a network of size n (capped at n/4 so
  /// the simulation stays meaningful even for absurd parameters).
  [[nodiscard]] std::uint32_t per_round(std::uint32_t n) const noexcept;
};

enum class EdgeDynamics {
  kStatic,       ///< fixed topology (for Lemma 1 style baselines)
  kRewire,       ///< random double-edge swaps each round (default)
  kRegenerate,   ///< fresh random d-regular graph every round (worst case)
};

struct SimConfig {
  std::uint32_t n = 1024;
  std::uint32_t degree = 8;
  std::uint64_t seed = 1;
  ChurnSpec churn{};
  EdgeDynamics edge_dynamics = EdgeDynamics::kRewire;
  /// Rewire swaps per round; 0 means "n / 8" (a quarter of edges touched).
  std::uint32_t rewire_swaps = 0;
  /// Shards the per-round engine partitions the vertex slots into
  /// (0 = hardware concurrency). Results are bit-identical for every value:
  /// sharding is an execution detail, not a model parameter (see
  /// util/sharding.h). Shards only run concurrently when a worker pool is
  /// installed (P2PSystem::set_shard_pool / Runner).
  std::uint32_t shards = 1;
};

struct WalkConfig {
  /// Walks started per node per round = max(1, round(rate_mult * ln n)).
  /// Paper: alpha * log n.
  double rate_mult = 1.5;
  /// Walk length T = max(2, round(t_mult * ln n)). Paper: Theta(log n).
  /// For d = 8 random expanders (lambda ~ 0.66), T = 2.5 ln n drives the
  /// per-walk distribution within ~1/n of uniform while keeping samples
  /// fresh (walk sources are T rounds old when they arrive, and stale
  /// sources are the dominant loss channel under churn).
  double t_mult = 2.5;
  /// Per-node forwarding cap per round. 0 (default) = auto: twice the
  /// steady-state load 2 * walks_per_round * walk_length (the paper's
  /// "cap = 2x expected arrivals" choice from Lemma 1, adjusted for the
  /// continuous spawning of section 4.1). > 0 = cap_mult * ln n, used by
  /// cap-pressure experiments.
  double cap_mult = 0.0;
  /// Sample retention window in rounds = window_mult * tau.
  double window_mult = 2.5;
};

struct ProtocolConfig {
  /// Committee size target h * ln n. Paper: h log n.
  double h = 1.0;
  /// Invitations sent per (re-)formation = oversample * target. Walk
  /// samples are ~T rounds old, so a churn-rate-dependent fraction of the
  /// sampled sources is already gone; oversampling keeps the expected
  /// surviving membership at the target (the paper hides this in its
  /// constant slack, e.g. h <= alpha/36).
  double invite_oversample = 3.0;
  /// Leader redundancy R: top-R ranked members all attempt re-formation,
  /// ordered by rank (paper footnote's fallback, made explicit).
  std::uint32_t leader_redundancy = 2;
  /// Landmark tree fanout (paper: 2).
  std::uint32_t tree_fanout = 2;
  /// delta in the landmark tree depth formula (paper eq. 4 uses the churn
  /// exponent; the depth is capped to (0.5 + delta) log2 n).
  double delta = 0.25;
  /// Landmark TTL and rebuild period, in units of tau (paper: 2 and 1).
  double landmark_ttl_taus = 2.0;
  double landmark_rebuild_taus = 1.0;
  /// Committee refresh period, in units of tau. The paper refreshes every
  /// 2*tau where tau is the mixing time; our tau already includes the full
  /// walk length plus slack, so 1 tau of ours covers the paper's intent and
  /// survives the much-larger-than-asymptotic churn fractions reachable at
  /// simulatable n. Ablated in bench_ablation.
  double refresh_taus = 1.0;
  /// Search deadline, in units of tau.
  double search_timeout_taus = 4.0;
  /// Max inquiries a search landmark issues per round (0 = all samples,
  /// matching the paper's "contacts all nodes of received samples").
  std::uint32_t inquiry_cap = 0;
  /// Data item payload size in bits (for message accounting).
  std::uint64_t item_bits = 1024;
  /// Erasure coding (section 4.4): store IDA pieces instead of replicas.
  bool use_erasure_coding = false;
  /// IDA piece surplus: K = committee_target - surplus pieces reconstruct
  /// (paper: K = (h-2) log n, i.e. surplus = 2 log n; at simulatable
  /// committee sizes a fixed surplus of 3 keeps reconstruction robust).
  std::uint32_t ida_surplus = 3;
};

/// tau = dynamic mixing time in rounds for network size n: the walk length
/// (t_mult * ln n steps) plus slack for cap-induced queueing. Every periodic
/// protocol constant (committee refresh 2*tau, landmark TTL 2*tau, rebuild
/// tau) derives from this.
[[nodiscard]] std::uint32_t tau_rounds(std::uint32_t n, const WalkConfig& wc);

[[nodiscard]] std::uint32_t walks_per_round(std::uint32_t n, const WalkConfig& wc);
[[nodiscard]] std::uint32_t walk_length(std::uint32_t n, const WalkConfig& wc);
[[nodiscard]] std::uint32_t forward_cap(std::uint32_t n, const WalkConfig& wc);
[[nodiscard]] std::uint32_t committee_target(std::uint32_t n,
                                             const ProtocolConfig& pc);

/// Landmark tree depth mu. Uses paper equation (4) where it is defined;
/// for the small n reachable in simulation the equation's denominator
/// degenerates (its loss terms are asymptotic), so the depth falls back to
/// the sizing bound ceil(log2(sqrt(n)/committee)) + 1 that achieves the same
/// goal (committee * 2^mu >= sqrt(n)). Clamped to [1, (0.5+delta) log2 n].
[[nodiscard]] std::uint32_t landmark_tree_depth(std::uint32_t n, double churn_k,
                                                double delta,
                                                std::uint32_t committee_size);

}  // namespace churnstore
