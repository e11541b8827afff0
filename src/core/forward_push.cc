#include "core/forward_push.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/frontier.h"

namespace cyclerank {
namespace {

/// Deterministic big-residuals-first admission: pending nodes are bucketed
/// by the power-of-4 tier of their residual-to-threshold ratio, re-filed
/// when their residual crosses into a higher tier (stale entries are
/// skipped at drain time), and each round drains whole tiers top-down
/// until at least `kMinBatch` nodes are admitted.
///
/// Round-synchronous (Jacobi) pushes convert residual in smaller bites
/// than the old queue-carried (Gauss-Seidel) schedule — admitting the
/// whole pending set each round costs ~1.6× the pushes on BA graphs.
/// Draining the biggest ratios first lets small residuals keep
/// accumulating before their push, which empirically restores the
/// queue-carried push count (±5%) while staying a pure function of the
/// merged state — thread-count independence is untouched.
class TierQueue {
 public:
  /// 64 power-of-4 tiers cover every finite ratio ≥ 1 (4^64 ≈ 3·10^38
  /// saturates the top tier; the dangling-node pseudo-ratio lands there).
  static constexpr int kNumTiers = 64;
  static constexpr size_t kMinBatch = 32;

  explicit TierQueue(uint32_t num_nodes) : tier_(num_nodes, -1) {}

  /// True when no node is pending admission.
  bool empty() const { return live_ == 0; }

  /// Files `v` under the tier of `ratio` (> 1). Re-filing under a higher
  /// tier supersedes the old entry; equal or lower tiers are ignored.
  /// Returns the filed tier.
  int Update(uint32_t v, double ratio) {
    const int k = TierOf(ratio);
    if (k > tier_[v]) {
      if (tier_[v] < 0) ++live_;
      tier_[v] = static_cast<int8_t>(k);
      buckets_[k].push_back(v);
    }
    return k;
  }

  /// Drains whole buckets top-down until `kMinBatch` nodes are admitted
  /// or the hard `limit` is reached (a partially-drained bucket keeps its
  /// unadmitted suffix for the next round), handing each to `admit`.
  template <typename Fn>
  void Drain(size_t limit, const Fn& admit) {
    size_t admitted = 0;
    for (int k = kNumTiers - 1; k >= 0; --k) {
      std::vector<uint32_t>& bucket = buckets_[k];
      if (bucket.empty()) continue;
      for (size_t i = 0; i < bucket.size(); ++i) {
        if (admitted == limit) {
          bucket.erase(bucket.begin(),
                       bucket.begin() + static_cast<ptrdiff_t>(i));
          return;
        }
        const uint32_t v = bucket[i];
        if (tier_[v] != k) continue;  // superseded or already admitted
        tier_[v] = -1;
        --live_;
        admit(v);
        ++admitted;
      }
      bucket.clear();
      if (admitted >= kMinBatch) break;
    }
  }

 private:
  static int TierOf(double ratio) {
    // Biased IEEE-754 exponent >> 1 = floor(log4); ratio > 1 makes it
    // non-negative.
    const int k =
        static_cast<int>((std::bit_cast<uint64_t>(ratio) >> 52) - 1023) / 2;
    return k >= kNumTiers ? kNumTiers - 1 : k;
  }

  std::vector<int8_t> tier_;  // -1 = not pending
  std::vector<uint32_t> buckets_[kNumTiers];
  size_t live_ = 0;  // pending nodes (excluding superseded duplicates)
};

}  // namespace

Result<ForwardPushScores> ComputeForwardPushPpr(
    const Graph& g, NodeId reference, const ForwardPushOptions& options) {
  if (!g.IsValidNode(reference)) {
    return Status::OutOfRange("ForwardPush: reference node " +
                              std::to_string(reference) + " out of range");
  }
  if (!(options.alpha > 0.0) || !(options.alpha < 1.0)) {
    return Status::InvalidArgument("ForwardPush: alpha must be in (0,1)");
  }
  if (!(options.epsilon > 0.0)) {
    return Status::InvalidArgument("ForwardPush: epsilon must be positive");
  }

  const NodeId n = g.num_nodes();
  const double alpha = options.alpha;

  ForwardPushScores result;
  result.scores.assign(n, 0.0);

  // Hot per-node state, packed so the merge's inner loop touches one cache
  // line per delta: the residual, and the *bar* — the residual level at
  // which the node next needs (re-)filing in the tier queue. A node files
  // when it first exceeds its push threshold ε · out_degree (bar starts
  // there; as in ACL, dangling nodes push any positive residual) and again
  // whenever it crosses into a higher power-of-4 tier, so deltas that grow
  // a residual within its current tier cost one compare and no filing.
  struct HotState {
    double residual;
    double bar;
  };
  // Cold per-node state, read once per push / per filing, not per delta.
  struct ColdState {
    double threshold;      // ε · out_degree (0 for dangling)
    double inv_threshold;  // 1/threshold; 1e300 for dangling (0·inf = NaN)
  };
  std::vector<HotState> hot(n);
  std::vector<ColdState> cold(n);
  std::vector<uint32_t> degrees(n);
  for (NodeId u = 0; u < n; ++u) {
    const uint32_t deg = g.OutDegree(u);
    degrees[u] = deg;
    const double threshold =
        options.epsilon * static_cast<double>(deg);  // 0 iff dangling
    cold[u] = {threshold, deg == 0 ? 1e300 : 1.0 / threshold};
    hot[u] = {0.0, threshold};
  }
  hot[reference].residual = 1.0;

  FrontierEngine::Options engine_options;
  engine_options.num_threads = options.num_threads;
  FrontierEngine engine(n, engine_options);
  engine.Seed(reference);

  TierQueue pending(n);

  // Push counting is an integer sum, so relaxed atomic adds from the
  // expansion workers stay deterministic.
  std::atomic<uint64_t> pushes{0};

  FrontierEngine::Callbacks callbacks;
  callbacks.node_weights = degrees;
  callbacks.expand = [&](std::span<const uint32_t> chunk,
                         FrontierEngine::Emitter& out) {
    // Each frontier node appears in exactly one chunk, so consuming its
    // residual and crediting its estimate here is data-race-free; all
    // cross-node residual updates travel through `out` and are applied in
    // the deterministic merge.
    uint64_t chunk_pushes = 0;
    for (uint32_t u : chunk) {
      const double r_u = hot[u].residual;
      if (!(r_u > cold[u].threshold)) continue;
      ++chunk_pushes;
      hot[u].residual = 0.0;
      result.scores[u] += (1.0 - alpha) * r_u;

      const auto row = g.OutNeighbors(u);
      if (row.empty()) {
        // Dangling: the walk teleports home, so the α mass returns to the
        // reference node's residual.
        out.Delta(reference, alpha * r_u);
        continue;
      }
      const double share = alpha * r_u / static_cast<double>(row.size());
      out.Deltas(row, share);  // zero-copy: the group references the row
    }
    if (chunk_pushes > 0) {
      pushes.fetch_add(chunk_pushes, std::memory_order_relaxed);
    }
  };
  // Compaction buffer for the merge: targets whose delta pushed them over
  // their bar. Grown to the largest chunk's delta count, never shrunk.
  std::vector<uint32_t> crossed;
  callbacks.deltas = [&](std::span<const FrontierEngine::DeltaGroup> groups) {
    // The run's hot loop (once per logged delta). Branchless: the
    // unconditional store + conditional-move increment compacts
    // bar-crossing targets without a mispredict-prone branch; tier filing
    // — which does branch — runs over the small compacted tail.
    size_t total = 0;
    for (const FrontierEngine::DeltaGroup& group : groups) {
      total += group.targets == nullptr ? 1 : group.count;
    }
    if (crossed.size() < total) crossed.resize(total);
    uint32_t* crossed_tail = crossed.data();
    size_t count = 0;
    FrontierEngine::ForEachDelta(groups, [&](uint32_t v, double x) {
      const double r = hot[v].residual + x;
      hot[v].residual = r;
      crossed_tail[count] = v;
      count += r > hot[v].bar ? 1 : 0;
    });
    for (size_t i = 0; i < count; ++i) {
      const uint32_t v = crossed_tail[i];
      const int k =
          pending.Update(v, hot[v].residual * cold[v].inv_threshold);
      // Next filing once the residual crosses into tier k+1, i.e. exceeds
      // threshold · 4^(k+1) — the scale built by bit-packing the IEEE-754
      // exponent (4^(k+1) = 2^(2k+2); k < 64 keeps it finite). The top
      // tier never re-files (1e308 bar); a dangling node's bar stays 0,
      // and its re-filings are cheap tier-compare skips.
      hot[v].bar =
          k + 1 >= TierQueue::kNumTiers
              ? 1e308
              : cold[v].threshold *
                    std::bit_cast<double>(
                        static_cast<uint64_t>(1023 + 2 * (k + 1)) << 52);
    }
  };
  callbacks.round_done = [&](uint32_t) {
    // The cap only means truncation while work is actually pending: a cap
    // that lands exactly on the convergence point is still a converged
    // run, as with the old deque loop (queue drained == converged, no
    // matter the push count).
    const uint64_t done = pushes.load(std::memory_order_relaxed);
    if (options.max_pushes != 0 && done >= options.max_pushes &&
        !pending.empty()) {
      result.converged = false;
      return false;
    }
    // Admission is budgeted by the remaining cap (every admitted node
    // qualifies and will push next round), so `pushes` can never exceed
    // `max_pushes` — the cap is a hard safety valve, not advisory. The
    // budget is a function of the deterministic push count, so truncation
    // stays thread-count independent. The tier queue hands out each
    // pending node at most once, so the engine's dedup probe is
    // redundant; re-arm the admitted node's bar at its base threshold for
    // its next pending cycle.
    const size_t budget =
        options.max_pushes == 0
            ? std::numeric_limits<size_t>::max()
            : static_cast<size_t>(options.max_pushes - done);
    pending.Drain(budget, [&](uint32_t v) {
      hot[v].bar = cold[v].threshold;
      engine.SeedUnchecked(v);
    });
    return true;
  };
  engine.Run(callbacks);

  result.pushes = pushes.load(std::memory_order_relaxed);
  double mass = 0.0;
  for (const HotState& s : hot) mass += s.residual;
  result.residual_mass = mass;
  return result;
}

}  // namespace cyclerank
