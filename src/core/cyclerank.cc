#include "core/cyclerank.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "common/workspace.h"
#include "graph/traversal.h"

namespace cyclerank {
namespace {

/// Per-thread reusable scratch for the branch enumeration. All dense
/// arrays are allocated once per worker (not per branch): `on_path` resets
/// in O(1) via epochs, and `scores` / `counts` reset in O(|touched|) via
/// the touched-node list. A branch therefore costs memory proportional to
/// the nodes it actually reaches, not O(n) — the old driver allocated a
/// dense score vector (plus optional K×n count matrix) per first-hop
/// branch.
struct BranchWorkspace {
  BranchWorkspace(NodeId n, uint32_t k, bool collect_counts)
      : num_nodes(n), max_cycle_length(k) {
    on_path.Resize(n);
    credited.Resize(n);
    scores.assign(n, 0.0);
    cycles_by_length.assign(k + 1, 0);
    if (collect_counts && k >= 2) {
      // Rows for lengths 2..K, row-major; row (len-2) holds n counters.
      counts.assign(static_cast<size_t>(k - 1) * n, 0);
    }
  }

  /// Clears per-branch state; cost O(|touched| · K), not O(n).
  void BeginBranch() {
    on_path.NewEpoch();
    credited.NewEpoch();
    for (NodeId u : touched) {
      scores[u] = 0.0;
      if (!counts.empty()) {
        for (uint32_t len = 2; len <= max_cycle_length; ++len) {
          counts[static_cast<size_t>(len - 2) * num_nodes + u] = 0;
        }
      }
    }
    touched.clear();
    std::fill(cycles_by_length.begin(), cycles_by_length.end(), 0);
    total_cycles = 0;
    dfs_expansions = 0;
    path.clear();
    frames.clear();
  }

  const NodeId num_nodes;
  const uint32_t max_cycle_length;

  EpochSet on_path;
  EpochSet credited;                // membership test behind `touched`
  std::vector<double> scores;       // dense scratch, non-zero only on touched
  std::vector<NodeId> touched;      // nodes credited by this branch
  std::vector<uint64_t> counts;     // (K-1)×n rows when collecting, else empty
  std::vector<uint64_t> cycles_by_length;
  uint64_t total_cycles = 0;
  uint64_t dfs_expansions = 0;

  std::vector<NodeId> path;
  struct Frame {
    NodeId node;
    uint32_t edge_pos;
  };
  std::vector<Frame> frames;
};

/// One branch's result in sparse form: only the touched nodes, sorted
/// ascending so the merge walks them deterministically.
struct BranchPartial {
  std::vector<std::pair<NodeId, double>> scores;
  /// Parallel to `scores`: K-1 counters (lengths 2..K) per touched node,
  /// row-major. Empty unless per-node counts were requested.
  std::vector<uint64_t> count_rows;
  std::vector<uint64_t> cycles_by_length;
  uint64_t total_cycles = 0;
  uint64_t dfs_expansions = 0;
};

/// Iterative depth-first enumeration of simple paths rooted at `ref`.
///
/// A frame holds a node on the current path and a cursor into its adjacency
/// row; the path itself lives in the workspace. When an edge closes back to
/// `ref` with path length ≥ 2, every node on the path is credited with
/// σ(len).
///
/// `first_hop` restricts the enumeration to paths whose first edge is
/// ref→first_hop (used by the branch partitioning); `kInvalidNode` means
/// all branches.
class CycleEnumerator {
 public:
  CycleEnumerator(const Graph& g, NodeId ref, const CycleRankOptions& options,
                  const std::vector<uint32_t>& dist_back, BranchWorkspace* ws)
      : g_(g),
        ref_(ref),
        options_(options),
        k_(options.max_cycle_length),
        dist_back_(dist_back),
        ws_(ws) {}

  /// Returns false when a `max_cycles` cap stopped the enumeration early.
  bool Run(NodeId first_hop = kInvalidNode) {
    ws_->path.push_back(ref_);
    ws_->on_path.Add(ref_);
    if (first_hop == kInvalidNode) {
      ws_->frames.push_back({ref_, 0});
      ++ws_->dfs_expansions;
    } else {
      // Seed the stack as if the root frame had just yielded `first_hop`.
      // The root expansion itself is credited once by the branch driver,
      // so the summed work metric matches the single-enumeration run
      // exactly.
      if (!Descend(first_hop, /*depth=*/1)) return true;
    }

    while (!ws_->frames.empty()) {
      if (options_.max_cycles != 0 &&
          ws_->total_cycles >= options_.max_cycles) {
        return false;
      }
      BranchWorkspace::Frame& frame = ws_->frames.back();
      const auto row = g_.OutNeighbors(frame.node);
      if (frame.edge_pos >= row.size()) {
        ws_->on_path.Remove(frame.node);
        ws_->path.pop_back();
        ws_->frames.pop_back();
        continue;
      }
      const NodeId v = row[frame.edge_pos++];
      const uint32_t depth =
          static_cast<uint32_t>(ws_->path.size());  // depth of v

      if (v == ref_) {
        // Closing edge: the path r → … → frame.node plus edge back to r is
        // a simple cycle of length == depth (number of edges == nodes on
        // path).
        if (depth >= 2) RecordCycle(depth);
        continue;
      }
      (void)Descend(v, depth);
    }
    return true;
  }

 private:
  /// Pushes `v` (at the given path depth) onto the DFS unless pruned.
  /// Returns true when a frame was pushed.
  bool Descend(NodeId v, uint32_t depth) {
    if (ws_->on_path.Contains(v)) return false;  // keep paths simple
    if (depth + 1 > k_) return false;  // path would exceed any closable cycle
    if (options_.use_pruning) {
      // v sits at distance `depth` from r along the path; it still needs
      // dist_back_[v] edges to get home. Prune when that exceeds K.
      if (dist_back_[v] == kUnreachable || depth + dist_back_[v] > k_) {
        return false;
      }
    }
    ws_->path.push_back(v);
    ws_->on_path.Add(v);
    ws_->frames.push_back({v, 0});
    ++ws_->dfs_expansions;
    return true;
  }

  void RecordCycle(uint32_t length) {
    ++ws_->total_cycles;
    ++ws_->cycles_by_length[length];
    const double weight = Sigma(options_.scoring, length);
    const bool collect = !ws_->counts.empty();
    for (NodeId u : ws_->path) {
      // Explicit membership test: scores[u] == 0.0 would miss nodes whose
      // only weight underflowed to zero (σ = e^-n for very long cycles),
      // leaking stale count rows into the next branch on this workspace.
      if (!ws_->credited.Contains(u)) {
        ws_->credited.Add(u);
        ws_->touched.push_back(u);
      }
      ws_->scores[u] += weight;
      if (collect) {
        ++ws_->counts[static_cast<size_t>(length - 2) * ws_->num_nodes + u];
      }
    }
  }

  const Graph& g_;
  const NodeId ref_;
  const CycleRankOptions& options_;
  const uint32_t k_;
  const std::vector<uint32_t>& dist_back_;
  BranchWorkspace* ws_;
};

CycleRankScores EmptyResult(const Graph& g, const CycleRankOptions& options) {
  CycleRankScores result;
  result.scores.assign(g.num_nodes(), 0.0);
  result.cycles_by_length.assign(options.max_cycle_length + 1, 0);
  if (options.collect_per_node_counts) {
    result.cycle_counts_per_node.assign(
        options.max_cycle_length + 1,
        std::vector<uint64_t>(g.num_nodes(), 0));
  }
  return result;
}

/// Extracts the workspace's touched state into a sparse partial. Touched
/// nodes are kept in DFS discovery order — a pure function of the branch,
/// hence deterministic at any thread count — so no sort is needed.
void ExtractPartial(const CycleRankOptions& options, BranchWorkspace* ws,
                    BranchPartial* out) {
  out->scores.reserve(ws->touched.size());
  const uint32_t k = options.max_cycle_length;
  const bool collect = !ws->counts.empty();
  if (collect) out->count_rows.reserve(ws->touched.size() * (k - 1));
  for (NodeId u : ws->touched) {
    out->scores.emplace_back(u, ws->scores[u]);
    if (collect) {
      for (uint32_t len = 2; len <= k; ++len) {
        out->count_rows.push_back(
            ws->counts[static_cast<size_t>(len - 2) * ws->num_nodes + u]);
      }
    }
  }
  out->cycles_by_length = ws->cycles_by_length;
  out->total_cycles = ws->total_cycles;
  out->dfs_expansions = ws->dfs_expansions;
}

/// Merges `branch` into `total`. Partials are merged in ascending
/// first-hop order, which keeps floating-point sums — and therefore the
/// public output — independent of thread scheduling *and* thread count.
void MergeInto(const BranchPartial& branch, const CycleRankOptions& options,
               CycleRankScores* total) {
  const uint32_t k = options.max_cycle_length;
  for (size_t i = 0; i < branch.scores.size(); ++i) {
    const auto [u, score] = branch.scores[i];
    total->scores[u] += score;
    if (!branch.count_rows.empty()) {
      for (uint32_t len = 2; len <= k; ++len) {
        total->cycle_counts_per_node[len][u] +=
            branch.count_rows[i * (k - 1) + (len - 2)];
      }
    }
  }
  total->total_cycles += branch.total_cycles;
  for (size_t n = 0; n < branch.cycles_by_length.size(); ++n) {
    total->cycles_by_length[n] += branch.cycles_by_length[n];
  }
  total->dfs_expansions += branch.dfs_expansions;
}

/// Branch-partitioned enumeration: every cycle's second node is one of the
/// reference's out-neighbours, so partitioning by that first hop covers
/// each cycle exactly once. Runs the branches on the shared compute pool
/// (caller-runs, so `num_threads == 1` executes the identical code on the
/// calling thread) and merges sparse partials in ascending branch order.
CycleRankScores RunBranches(const Graph& g, NodeId reference,
                            const CycleRankOptions& options,
                            const std::vector<uint32_t>& dist_back) {
  const auto branches = g.OutNeighbors(reference);
  std::vector<BranchPartial> partials(branches.size());

  const NodeId n = g.num_nodes();
  WorkspacePool<BranchWorkspace> workspaces([&] {
    return std::make_unique<BranchWorkspace>(
        n, options.max_cycle_length, options.collect_per_node_counts);
  });

  const uint32_t num_threads = ResolveThreadCount(options.num_threads);
  ThreadPool* pool = num_threads > 1 ? GlobalComputePool() : nullptr;
  ParallelFor(pool, branches.size(), /*grain=*/1, num_threads,
              [&](size_t b, size_t, size_t) {
                auto ws = workspaces.Acquire();
                ws->BeginBranch();
                CycleEnumerator enumerator(g, reference, options, dist_back,
                                           ws.get());
                enumerator.Run(branches[b]);
                ExtractPartial(options, ws.get(), &partials[b]);
              });

  CycleRankScores result = EmptyResult(g, options);
  result.dfs_expansions = 1;  // the root expansion (see CycleEnumerator::Run)
  for (const BranchPartial& partial : partials) {
    MergeInto(partial, options, &result);
  }
  return result;
}

/// Single enumeration over all branches at once — only used when a global
/// `max_cycles` cap must be enforced exactly, which cannot be split across
/// concurrent branches.
CycleRankScores RunCapped(const Graph& g, NodeId reference,
                          const CycleRankOptions& options,
                          const std::vector<uint32_t>& dist_back) {
  BranchWorkspace ws(g.num_nodes(), options.max_cycle_length,
                     options.collect_per_node_counts);
  ws.BeginBranch();
  CycleEnumerator enumerator(g, reference, options, dist_back, &ws);
  const bool completed = enumerator.Run();

  CycleRankScores result = EmptyResult(g, options);
  result.truncated = !completed;
  BranchPartial partial;
  ExtractPartial(options, &ws, &partial);
  MergeInto(partial, options, &result);
  return result;
}

}  // namespace

Result<CycleRankScores> ComputeCycleRank(const Graph& g, NodeId reference,
                                         const CycleRankOptions& options) {
  if (!g.IsValidNode(reference)) {
    return Status::OutOfRange("CycleRank: reference node " +
                              std::to_string(reference) + " out of range");
  }
  if (options.max_cycle_length < 2) {
    return Status::InvalidArgument(
        "CycleRank: max_cycle_length (K) must be >= 2, got " +
        std::to_string(options.max_cycle_length));
  }

  // One backward BFS gives dist(v → r) for the pruning rule. Bounded by
  // K-1: anything farther can never participate in a cycle of length ≤ K.
  // The BFS runs on the frontier engine with the query's thread budget, so
  // the pruning pass scales on the shared pool alongside the enumeration.
  std::vector<uint32_t> dist_back;
  if (options.use_pruning) {
    CYCLERANK_ASSIGN_OR_RETURN(
        dist_back, BfsDistances(g, reference, Direction::kBackward,
                                options.max_cycle_length - 1,
                                options.num_threads));
  } else {
    dist_back.assign(g.num_nodes(), 0);
  }

  if (options.max_cycles != 0) {
    return RunCapped(g, reference, options, dist_back);
  }
  return RunBranches(g, reference, options, dist_back);
}

}  // namespace cyclerank
