#ifndef CYCLERANK_GRAPH_TRAVERSAL_H_
#define CYCLERANK_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace cyclerank {

/// Distance value for unreachable nodes.
inline constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();

/// Direction of a traversal.
enum class Direction {
  kForward,   ///< follow edges u→v
  kBackward,  ///< follow edges v→u (predecessors)
};

/// Breadth-first distances from `source`, bounded by `max_depth`
/// (inclusive). Nodes farther than `max_depth` (or unreachable) get
/// `kUnreachable`. `max_depth = kUnreachable` means unbounded.
///
/// The backward variant computes, for every node v, the length of the
/// shortest path v→…→source — exactly the quantity CycleRank's pruning
/// needs (DESIGN.md §4).
///
/// Runs level-synchronously on the frontier engine (`common/frontier.h`):
/// each BFS wave is expanded in parallel on the shared compute pool when
/// `num_threads > 1` (0 = every pool worker). Distances are identical at
/// every thread count — BFS waves assign the same depth regardless of
/// expansion order.
Result<std::vector<uint32_t>> BfsDistances(const Graph& g, NodeId source,
                                           Direction direction,
                                           uint32_t max_depth = kUnreachable,
                                           uint32_t num_threads = 1);

/// Ids of nodes with finite distance from `source` within `max_depth`,
/// ascending. Includes `source` itself (distance 0).
Result<std::vector<NodeId>> ReachableSet(const Graph& g, NodeId source,
                                         Direction direction,
                                         uint32_t max_depth = kUnreachable,
                                         uint32_t num_threads = 1);

}  // namespace cyclerank

#endif  // CYCLERANK_GRAPH_TRAVERSAL_H_
