#ifndef CYCLERANK_COMMON_FRONTIER_H_
#define CYCLERANK_COMMON_FRONTIER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/workspace.h"

namespace cyclerank {

/// Deterministic level-synchronous frontier engine on the process-wide
/// compute pool — the decomposition for traversal kernels that
/// `ParallelFor` alone cannot express (BFS waves, forward-push PPR), where
/// the work list of each step is produced by the previous one.
///
/// Each round:
///
///  1. The current frontier is partitioned into contiguous, weight-balanced
///     chunks. Chunk boundaries are a pure function of the frontier and the
///     per-node weights (typically out-degrees), never of the thread count
///     or pool scheduling.
///  2. Workers expand chunks concurrently (caller-runs `ParallelFor`, so
///     running inside a pool task cannot deadlock). Expansion emits
///     next-frontier *candidates* — deduplicated per chunk through a
///     per-worker epoch-stamped sparse buffer (`workspace.h`) — and
///     numeric *deltas*, logged per chunk in emission order as groups of
///     targets sharing one value. A group stores a *reference* to the
///     caller's target array (for a push that spreads one share over an
///     adjacency row of an immutable CSR graph, logging costs one 24-byte
///     header — no per-edge copy). Delta logs are deliberately
///     append-only: a per-edge dedup/accumulate pass was measured to cost
///     more in random-access traffic than the duplicates it saves, so
///     accumulation belongs to the (cache-friendly, serial) merge.
///  3. The calling thread merges the per-chunk partials in ascending chunk
///     order, handing each chunk's candidate and delta batches to the merge
///     callbacks as one batch each. Workers only fill their own chunk's
///     partial, so what a batch holds is fixed by the chunk, not by the
///     worker that expanded it or when. The merge is the only writer of
///     shared numeric state, and both its order and its batch boundaries
///     are a pure function of the frontier. Floating-point accumulation
///     order is therefore fixed, and so is any per-batch policy in the
///     callbacks (forward push files its threshold crossings per batch):
///     everything folded in the merge is **bit-identical at every thread
///     count, including 1** (the serial path runs the same chunking and
///     merge).
///
/// The next frontier is whatever the merge callbacks admit via `Next()` —
/// plus anything `round_done` seeds for admission-policy traversals — in
/// admission order, cross-chunk deduplicated. That makes round R+1's
/// chunking a pure function of the input too.
class FrontierEngine {
 public:
  struct Options {
    /// Worker budget on the global pool; 0 = every pool worker. The value
    /// affects latency only, never results.
    uint32_t num_threads = 1;

    /// Target Σ(1 + weight(u)) per chunk. Chunking depends only on this
    /// constant and the frontier, so changing it *does* change floating
    /// point accumulation order — it is a compile-time-style tuning knob,
    /// not a runtime one.
    uint64_t chunk_weight = kDefaultChunkWeight;
  };
  static constexpr uint64_t kDefaultChunkWeight = 2048;

  /// One run of logged deltas sharing a value. `targets` points into
  /// caller-owned memory (an adjacency row, typically) that must stay
  /// valid until the round's merge; a single-target delta is stored
  /// inline as `targets == nullptr`, with the node id in `count`.
  struct DeltaGroup {
    double value;
    const uint32_t* targets;  // nullptr = single inline target
    uint32_t count;           // target count, or the node id when inline
  };

  /// Iterates a chunk's delta log — `fn(target, value)` per logged delta,
  /// emission order. Inline so the loop fuses into the caller.
  template <typename Fn>
  static void ForEachDelta(std::span<const DeltaGroup> groups, const Fn& fn) {
    for (const DeltaGroup& group : groups) {
      if (group.targets == nullptr) {
        fn(group.count, group.value);
        continue;
      }
      for (uint32_t i = 0; i < group.count; ++i) {
        fn(group.targets[i], group.value);
      }
    }
  }

  /// Per-worker expansion scratch: the candidate-dedup stamp array is
  /// sized lazily on the worker's first `Candidate()` (delta-only
  /// traversals like forward push never pay its O(num_nodes) allocation)
  /// and reset per chunk in O(1) (epochs).
  struct Scratch {
    explicit Scratch(uint32_t graph_num_nodes) : num_nodes(graph_num_nodes) {}

    void BeginChunk() { candidate_seen.NewEpoch(); }

    void EnsureCandidateSet() {
      if (candidate_seen.size() != num_nodes) candidate_seen.Resize(num_nodes);
    }

    const uint32_t num_nodes;
    EpochSet candidate_seen;
  };

  /// Expansion-side sink. Valid only during the `expand` callback; methods
  /// touch the worker's own buffers, never shared engine state. Defined
  /// inline — `Delta` runs once per traversed edge.
  class Emitter {
   public:
    /// Proposes `v` for the next frontier (deduplicated within the chunk).
    void Candidate(uint32_t v) {
      scratch_->EnsureCandidateSet();
      if (scratch_->candidate_seen.Contains(v)) return;
      scratch_->candidate_seen.Add(v);
      candidates_->push_back(v);
    }

    /// Logs a delta of `x` for `v` — a sequential append; the merge
    /// callback sees every emission and owns the accumulation.
    void Delta(uint32_t v, double x) {
      delta_groups_->push_back({x, nullptr, v});
    }

    /// Logs a delta of `x` for every node of `targets` — one group header
    /// referencing the caller's array (which must stay valid until the
    /// round's merge): the zero-copy fast path for pushes that spread one
    /// share over an adjacency row of an immutable graph.
    void Deltas(std::span<const uint32_t> targets, double x) {
      if (targets.empty()) return;
      delta_groups_->push_back(
          {x, targets.data(), static_cast<uint32_t>(targets.size())});
    }

   private:
    friend class FrontierEngine;
    Emitter(Scratch* scratch, std::vector<uint32_t>* candidates,
            std::vector<DeltaGroup>* delta_groups)
        : scratch_(scratch),
          candidates_(candidates),
          delta_groups_(delta_groups) {}
    Scratch* scratch_;
    std::vector<uint32_t>* candidates_;
    std::vector<DeltaGroup>* delta_groups_;
  };

  /// Hooks of one traversal. `expand` is required; the rest are optional.
  /// The merge callbacks receive whole per-chunk batches (one call per
  /// non-empty chunk, not per entry) so their inner loops live — and
  /// inline — in the caller's translation unit.
  struct Callbacks {
    /// Expands every node of `chunk`. Runs concurrently for distinct
    /// chunks; may read shared traversal state and write per-frontier-node
    /// state (each node appears in exactly one chunk), but must route all
    /// cross-node effects through `out`.
    std::function<void(std::span<const uint32_t>, Emitter&)> expand;

    /// One chunk's candidates (chunk-deduplicated, emission order), merge
    /// order across chunks. Cross-chunk duplicates are the callback's job
    /// (typically a visited check before `Next()`).
    std::function<void(std::span<const uint32_t>)> candidates;

    /// One chunk's delta log (emission order, duplicates preserved), merge
    /// order across chunks. Iterate with `ForEachDelta`.
    std::function<void(std::span<const DeltaGroup>)> deltas;

    /// Invoked after round `round`'s merge (round 0 expands the seeds).
    /// Return false to stop before the next round — the hook for depth
    /// bounds and round-boundary work caps. May call `Seed` to admit
    /// nodes the merge deferred (admission-policy traversals).
    std::function<bool(uint32_t round)> round_done;

    /// Expansion weights for the chunk partition, indexed by node id
    /// (typically a degree table; must outlive `Run`). The partitioner
    /// reads one entry per frontier node per round, so a span beats a
    /// per-node `std::function` call. Empty = unit weights.
    std::span<const uint32_t> node_weights;
  };

  FrontierEngine(uint32_t num_nodes, const Options& options);
  ~FrontierEngine();

  /// Appends `v` to the upcoming round's frontier (deduplicated against
  /// admissions of the same round). Call before `Run`, or from
  /// `round_done` to implement a custom admission policy.
  void Seed(uint32_t v);

  /// `Seed` without the dedup probe, for admission policies that already
  /// guarantee uniqueness (e.g. a pending set). Mixing with `Seed`/`Next`
  /// in the same round forfeits the dedup guarantee for this node.
  void SeedUnchecked(uint32_t v) { frontier_.push_back(v); }

  /// Admits `v` into the next round's frontier (cross-chunk deduplicated).
  /// Only valid from within the merge callbacks (`candidates` / `deltas`).
  void Next(uint32_t v);

  /// Runs rounds until the frontier is empty or `round_done` stops it.
  void Run(const Callbacks& callbacks);

 private:
  struct ChunkPartial {
    std::vector<uint32_t> candidates;
    std::vector<DeltaGroup> delta_groups;
  };

  /// Cuts `frontier_` into weight-balanced chunks; fills `chunk_offsets_`.
  void PartitionFrontier(const Callbacks& callbacks);

  const uint32_t num_nodes_;
  const Options options_;
  const uint32_t resolved_threads_;

  std::vector<uint32_t> frontier_;
  std::vector<uint32_t> next_;
  EpochSet next_seen_;

  std::vector<size_t> chunk_offsets_;  // chunk c = [offsets[c], offsets[c+1])
  std::vector<ChunkPartial> partials_;
  WorkspacePool<Scratch> scratch_;
};

}  // namespace cyclerank

#endif  // CYCLERANK_COMMON_FRONTIER_H_
