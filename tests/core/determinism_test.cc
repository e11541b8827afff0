// Determinism contract of the parallel ranking kernels: for a fixed input
// (and seed), PageRank, CycleRank, and Monte-Carlo PPR must produce
// bit-identical output at every thread count. The kernels guarantee this
// by chunking work on thread-count-independent boundaries and combining
// partials in a fixed order (see src/core/README.md), so these tests
// compare with operator== on the raw double vectors — no tolerance.

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "core/cheirank.h"
#include "core/cyclerank.h"
#include "core/forward_push.h"
#include "core/monte_carlo.h"
#include "core/pagerank.h"
#include "datasets/generators.h"
#include "graph/graph_builder.h"

namespace cyclerank {
namespace {

Graph MakeBaGraph(NodeId n, uint64_t seed, double reciprocity = 0.4) {
  BarabasiAlbertConfig config;
  config.num_nodes = n;
  config.edges_per_node = 4;
  config.reciprocity = reciprocity;
  config.seed = seed;
  return GenerateBarabasiAlbert(config).value();
}

/// A graph where most nodes are dangling: one hub cycle 0→1→0 plus many
/// sinks fed by node 0. Stresses the precomputed dangling-node list.
Graph DanglingHeavyGraph(NodeId num_sinks) {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  for (NodeId s = 0; s < num_sinks; ++s) builder.AddEdge(0, 2 + s);
  return builder.Build().value();
}

TEST(DeterminismTest, PageRankBitIdenticalAcrossThreadCounts) {
  const Graph g = MakeBaGraph(600, 17);
  PageRankOptions options;
  options.num_threads = 1;
  const PageRankScores base = ComputePageRank(g, options).value();
  for (uint32_t threads : {2u, 4u, 8u}) {
    options.num_threads = threads;
    const PageRankScores other = ComputePageRank(g, options).value();
    EXPECT_EQ(base.scores, other.scores) << "threads=" << threads;
    EXPECT_EQ(base.iterations, other.iterations);
    EXPECT_EQ(base.residual, other.residual);
    EXPECT_EQ(base.converged, other.converged);
  }
}

TEST(DeterminismTest, PersonalizedPageRankAndCheiRankBitIdentical) {
  const Graph g = MakeBaGraph(400, 23);
  PageRankOptions options;
  options.num_threads = 1;
  const PageRankScores ppr1 =
      ComputePersonalizedPageRank(g, 3, options).value();
  const PageRankScores chei1 = ComputeCheiRank(g, options).value();
  for (uint32_t threads : {2u, 4u, 8u}) {
    options.num_threads = threads;
    EXPECT_EQ(ppr1.scores,
              ComputePersonalizedPageRank(g, 3, options).value().scores)
        << "threads=" << threads;
    EXPECT_EQ(chei1.scores, ComputeCheiRank(g, options).value().scores)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, PageRankOnDanglingHeavyGraph) {
  // 300 of 302 nodes are dangling; mass must still sum to 1 and the
  // parallel runs must match the serial one exactly.
  const Graph g = DanglingHeavyGraph(300);
  PageRankOptions options;
  options.num_threads = 1;
  const PageRankScores base = ComputePageRank(g, options).value();
  const double sum =
      std::accumulate(base.scores.begin(), base.scores.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (uint32_t threads : {2u, 8u}) {
    options.num_threads = threads;
    EXPECT_EQ(base.scores, ComputePageRank(g, options).value().scores)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, CycleRankBitIdenticalAcrossThreadCounts) {
  const Graph g = MakeBaGraph(300, 29, /*reciprocity=*/0.5);
  CycleRankOptions options;
  options.max_cycle_length = 4;
  options.collect_per_node_counts = true;
  options.num_threads = 1;
  const CycleRankScores base = ComputeCycleRank(g, 0, options).value();
  for (uint32_t threads : {2u, 8u}) {
    options.num_threads = threads;
    const CycleRankScores other = ComputeCycleRank(g, 0, options).value();
    EXPECT_EQ(base.scores, other.scores) << "threads=" << threads;
    EXPECT_EQ(base.total_cycles, other.total_cycles);
    EXPECT_EQ(base.cycles_by_length, other.cycles_by_length);
    EXPECT_EQ(base.cycle_counts_per_node, other.cycle_counts_per_node);
    EXPECT_EQ(base.dfs_expansions, other.dfs_expansions);
  }
}

TEST(DeterminismTest, CycleRankHighOutDegreeHub) {
  // A 500-branch hub: every branch is its own 2-cycle through the
  // reference. The branch driver processes these with at most one reusable
  // workspace per worker (sparse touched-node partials), instead of the
  // old dense O(out_degree × n) per-branch score vectors; output must be
  // exact and thread-count independent.
  GraphBuilder builder;
  const NodeId kBranches = 500;
  for (NodeId b = 0; b < kBranches; ++b) {
    builder.AddEdge(0, 1 + b);
    builder.AddEdge(1 + b, 0);
  }
  const Graph g = builder.Build().value();
  CycleRankOptions options;
  options.max_cycle_length = 3;
  options.num_threads = 1;
  const CycleRankScores base = ComputeCycleRank(g, 0, options).value();
  EXPECT_EQ(base.total_cycles, kBranches);
  EXPECT_DOUBLE_EQ(base.scores[1], std::exp(-2.0));
  // The reference accumulates one σ(2) per branch (sequential sum, so
  // compare with a tolerance, not bitwise against the product).
  EXPECT_NEAR(base.scores[0], static_cast<double>(kBranches) * std::exp(-2.0),
              1e-10);
  for (uint32_t threads : {2u, 8u}) {
    options.num_threads = threads;
    const CycleRankScores other = ComputeCycleRank(g, 0, options).value();
    EXPECT_EQ(base.scores, other.scores) << "threads=" << threads;
    EXPECT_EQ(base.dfs_expansions, other.dfs_expansions);
  }
}

TEST(DeterminismTest, CycleRankZeroOutDegreeReference) {
  // The reference has in-edges but no out-edges: no branches, no cycles,
  // only the root expansion — at every thread count.
  GraphBuilder builder;
  builder.AddEdge(1, 0);
  builder.AddEdge(2, 0);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 1);
  const Graph g = builder.Build().value();
  CycleRankOptions options;
  for (uint32_t threads : {1u, 2u, 8u}) {
    options.num_threads = threads;
    const CycleRankScores cr = ComputeCycleRank(g, 0, options).value();
    EXPECT_EQ(cr.total_cycles, 0u) << "threads=" << threads;
    EXPECT_EQ(cr.dfs_expansions, 1u);
    for (double s : cr.scores) EXPECT_EQ(s, 0.0);
  }
}

TEST(DeterminismTest, ForwardPushBitIdenticalAcrossThreadCounts) {
  const Graph g = MakeBaGraph(500, 31);
  ForwardPushOptions options;
  options.epsilon = 1e-8;  // thousands of pushes over many rounds
  options.num_threads = 1;
  const ForwardPushScores base = ComputeForwardPushPpr(g, 0, options).value();
  EXPECT_GT(base.pushes, 0u);
  for (uint32_t threads : {2u, 4u, 8u}) {
    options.num_threads = threads;
    const ForwardPushScores other =
        ComputeForwardPushPpr(g, 0, options).value();
    EXPECT_EQ(base.scores, other.scores) << "threads=" << threads;
    EXPECT_EQ(base.pushes, other.pushes) << "threads=" << threads;
    EXPECT_EQ(base.converged, other.converged);
    EXPECT_EQ(base.residual_mass, other.residual_mass);
  }
}

TEST(DeterminismTest, ForwardPushTruncationThreadCountIndependent) {
  // The max_pushes cap lands at a round boundary, so the truncated output
  // (including which rounds ran) is the same at every thread count.
  const Graph g = MakeBaGraph(400, 37);
  ForwardPushOptions options;
  options.epsilon = 1e-10;
  options.max_pushes = 200;
  options.num_threads = 1;
  const ForwardPushScores base = ComputeForwardPushPpr(g, 0, options).value();
  EXPECT_FALSE(base.converged);
  for (uint32_t threads : {2u, 4u, 8u}) {
    options.num_threads = threads;
    const ForwardPushScores other =
        ComputeForwardPushPpr(g, 0, options).value();
    EXPECT_EQ(base.scores, other.scores) << "threads=" << threads;
    EXPECT_EQ(base.pushes, other.pushes) << "threads=" << threads;
    EXPECT_EQ(base.converged, other.converged);
    EXPECT_EQ(base.residual_mass, other.residual_mass);
  }
}

TEST(DeterminismTest, ForwardPushDanglingHeavyAcrossThreadCounts) {
  // Teleport deltas from many dangling sinks all target the reference;
  // they must be accumulated in the same chunk order at every thread
  // count.
  const Graph g = DanglingHeavyGraph(300);
  ForwardPushOptions options;
  options.epsilon = 1e-9;
  options.num_threads = 1;
  const ForwardPushScores base = ComputeForwardPushPpr(g, 0, options).value();
  for (uint32_t threads : {2u, 8u}) {
    options.num_threads = threads;
    const ForwardPushScores other =
        ComputeForwardPushPpr(g, 0, options).value();
    EXPECT_EQ(base.scores, other.scores) << "threads=" << threads;
    EXPECT_EQ(base.pushes, other.pushes);
    EXPECT_EQ(base.residual_mass, other.residual_mass);
  }
}

TEST(DeterminismTest, CycleRankWithParallelPruningBfsBitIdentical) {
  // End-to-end: the pruning BFS now runs on the frontier engine with the
  // query's thread budget; scores and the work metric must stay identical.
  const Graph g = MakeBaGraph(300, 43, /*reciprocity=*/0.5);
  CycleRankOptions options;
  options.max_cycle_length = 5;
  options.use_pruning = true;
  options.num_threads = 1;
  const CycleRankScores base = ComputeCycleRank(g, 0, options).value();
  for (uint32_t threads : {2u, 4u, 8u}) {
    options.num_threads = threads;
    const CycleRankScores other = ComputeCycleRank(g, 0, options).value();
    EXPECT_EQ(base.scores, other.scores) << "threads=" << threads;
    EXPECT_EQ(base.dfs_expansions, other.dfs_expansions);
    EXPECT_EQ(base.total_cycles, other.total_cycles);
  }
}

TEST(DeterminismTest, MonteCarloBitIdenticalAcrossThreadCounts) {
  const Graph g = MakeBaGraph(200, 41);
  MonteCarloOptions options;
  options.num_walks = 50000;  // several shards
  options.seed = 7;
  options.num_threads = 1;
  const MonteCarloScores base = ComputeMonteCarloPpr(g, 0, options).value();
  for (uint32_t threads : {2u, 8u}) {
    options.num_threads = threads;
    const MonteCarloScores other = ComputeMonteCarloPpr(g, 0, options).value();
    EXPECT_EQ(base.scores, other.scores) << "threads=" << threads;
    EXPECT_EQ(base.total_steps, other.total_steps);
  }
}

TEST(DeterminismTest, MonteCarloZeroOutDegreeReference) {
  // A dangling reference teleports every step back home, so the visit
  // frequency concentrates entirely on the reference — for any threads.
  GraphBuilder builder;
  builder.AddEdge(1, 0);  // 0 has no out-edges
  const Graph g = builder.Build().value();
  MonteCarloOptions options;
  options.num_walks = 20000;
  for (uint32_t threads : {1u, 2u, 8u}) {
    options.num_threads = threads;
    const MonteCarloScores mc = ComputeMonteCarloPpr(g, 0, options).value();
    EXPECT_DOUBLE_EQ(mc.scores[0], 1.0) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(mc.scores[1], 0.0);
  }
}

}  // namespace
}  // namespace cyclerank
