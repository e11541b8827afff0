#ifndef CYCLERANK_CORE_FORWARD_PUSH_H_
#define CYCLERANK_CORE_FORWARD_PUSH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace cyclerank {

/// Options for the local forward-push PPR approximation
/// (Andersen, Chung & Lang, FOCS 2006). This is one of the "more efficient
/// algorithms" the paper alludes to in §II: it touches only the
/// neighbourhood of the reference node instead of the whole graph.
struct ForwardPushOptions {
  /// Damping factor α, as in `PageRankOptions`.
  double alpha = 0.85;

  /// Residual threshold ε: a node is pushed while its residual exceeds
  /// ε · out_degree. Smaller ε → more accurate, more work. The final
  /// per-node error is bounded by ε · out_degree(node).
  double epsilon = 1e-7;

  /// Hard cap on push operations (0 = unlimited) — a safety valve for
  /// adversarial ε on huge graphs. `pushes` never exceeds the cap: each
  /// round's admission is budgeted by the remaining allowance, and the
  /// check runs at *round boundaries* of the round-synchronous schedule,
  /// so where the truncation lands is independent of the thread count. A
  /// cap that lands exactly on the convergence point still reports
  /// `converged` (nothing was pending when it was reached).
  uint64_t max_pushes = 0;

  /// Worker budget on the process-wide compute pool (`GlobalComputePool`);
  /// 0 = every pool worker. Pushes are round-synchronous on the frontier
  /// engine (`common/frontier.h`): each round pushes a whole admitted
  /// frontier in parallel, with residual deltas accumulated per chunk and
  /// merged in ascending chunk order — so scores, pushes, converged, and
  /// residual_mass are **bit-identical at every thread count**, including
  /// the serial path. Admission is biggest-residuals-first (deterministic
  /// power-of-4 ratio tiers), which keeps the total push count at the
  /// old queue-carried schedule's level (see forward_push.cc: TierQueue).
  uint32_t num_threads = 1;
};

/// Outcome of a forward-push run.
struct ForwardPushScores {
  /// Approximate PPR estimates, one per node (lower bounds on the exact
  /// personalized PageRank). Sums to ≤ 1; the deficit is the mass still
  /// parked in `residual_mass`.
  std::vector<double> scores;

  /// Total residual probability mass not yet converted into estimates.
  double residual_mass = 0.0;

  uint64_t pushes = 0;
  bool converged = true;  ///< false iff `max_pushes` stopped the run
};

/// Approximates Personalized PageRank for `reference` by local pushes:
/// start with residual 1 at the reference node; repeatedly convert a
/// (1-α) fraction of a node's residual into its estimate and spread the
/// α fraction uniformly over its out-neighbours. Residual mass reaching a
/// dangling node teleports back to the reference (consistent with the
/// power-iteration treatment of sinks).
///
/// The push schedule is round-synchronous (Jacobi-style) rather than
/// queue-carried: round R pushes every node whose residual exceeded its
/// threshold after round R-1's merge. The fixpoint it converges to
/// satisfies the same ACL invariant (underestimates within
/// ε · out_degree), and the schedule is what makes the output a pure
/// function of `(graph, reference, options)` — independent of thread
/// count and scheduling.
Result<ForwardPushScores> ComputeForwardPushPpr(
    const Graph& g, NodeId reference, const ForwardPushOptions& options = {});

}  // namespace cyclerank

#endif  // CYCLERANK_CORE_FORWARD_PUSH_H_
