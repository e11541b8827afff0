#ifndef CYCLERANK_CORE_ALGORITHM_H_
#define CYCLERANK_CORE_ALGORITHM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/ranking.h"
#include "core/scoring.h"
#include "graph/graph.h"

namespace cyclerank {

/// The seven algorithms showcased by the demo (§II, §V: "we compared
/// Cyclerank with 6 established algorithms") plus the two efficient PPR
/// approximations shipped as extensions.
enum class AlgorithmKind {
  kPageRank,
  kPersonalizedPageRank,
  kCheiRank,
  kPersonalizedCheiRank,
  k2DRank,
  kPersonalized2DRank,
  kCycleRank,
  // Extensions (not in the demo's seven, exposed through the same API):
  kPprForwardPush,
  kPprMonteCarlo,
};

/// Canonical lowercase names used by the platform registry and the task
/// builder, e.g. "cyclerank", "pers_pagerank".
std::string_view AlgorithmKindToString(AlgorithmKind kind);
Result<AlgorithmKind> AlgorithmKindFromString(std::string_view name);

/// All demo algorithm kinds, in presentation order.
const std::vector<AlgorithmKind>& AllAlgorithmKinds();

/// A fully-resolved request for one relevance computation. The Web UI's
/// parameter panel (§IV-C) maps onto this struct; the platform layer parses
/// string parameters into it.
struct AlgorithmRequest {
  /// Reference node r. Required by personalized algorithms and CycleRank;
  /// ignored by global PageRank / CheiRank / 2DRank.
  NodeId reference = kInvalidNode;

  /// Damping / transition probability α (PageRank family).
  double alpha = 0.85;

  /// Maximum cycle length K (CycleRank).
  uint32_t max_cycle_length = 3;

  /// Scoring function σ (CycleRank).
  ScoringFunction scoring = ScoringFunction::kExponential;

  /// Convergence controls (PageRank family).
  double tolerance = 1e-10;
  uint32_t max_iterations = 200;

  /// Forward-push residual threshold.
  double epsilon = 1e-7;

  /// Monte-Carlo controls.
  uint64_t num_walks = 100000;
  uint64_t seed = 42;

  /// Worker threads for the kernel itself, scheduled on the process-wide
  /// compute pool shared with the query-level `Scheduler`. 0 = every pool
  /// worker, 1 = the executor thread only. Every kernel produces
  /// bit-identical output at any thread count, so this is purely a
  /// latency/throughput trade-off.
  uint32_t num_threads = 0;

  /// Keep only the best `top_k` entries of the resulting ranking
  /// (0 = everything). The demo UI displays top-k lists.
  size_t top_k = 0;
};

/// Interface every relevance algorithm implements — the extension point
/// behind the demo's "new algorithms can be easily added" claim (§III).
/// Implementations must be stateless and thread-safe: the same instance is
/// invoked concurrently by executor workers.
class RelevanceAlgorithm {
 public:
  virtual ~RelevanceAlgorithm() = default;

  /// Canonical name, e.g. "cyclerank".
  virtual std::string_view name() const = 0;

  /// True when the algorithm needs `request.reference`.
  virtual bool requires_reference() const = 0;

  /// True when emitted scores are meaningful values (false for rank-only
  /// algorithms such as 2DRank, whose placeholder scores only encode
  /// order).
  virtual bool produces_scores() const = 0;

  /// Runs the computation. The returned list is sorted by decreasing
  /// relevance and truncated to `request.top_k` when set.
  virtual Result<RankedList> Run(const Graph& g,
                                 const AlgorithmRequest& request) const = 0;
};

/// Creates the built-in implementation of `kind`.
std::unique_ptr<RelevanceAlgorithm> MakeAlgorithm(AlgorithmKind kind);

}  // namespace cyclerank

#endif  // CYCLERANK_CORE_ALGORITHM_H_
