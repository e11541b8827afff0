#include "common/frontier.h"

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace cyclerank {
namespace {

/// A tiny synthetic expansion: node u proposes u+1 and u+2 (mod n) as
/// candidates and sends them a delta of 1.0 / (u+1).
struct SyntheticTraversal {
  explicit SyntheticTraversal(uint32_t node_count) : n(node_count) {}

  FrontierEngine::Callbacks Hook(FrontierEngine* engine, uint32_t max_rounds) {
    FrontierEngine::Callbacks callbacks;
    callbacks.expand = [this](std::span<const uint32_t> chunk,
                              FrontierEngine::Emitter& out) {
      for (uint32_t u : chunk) {
        for (uint32_t step : {1u, 2u}) {
          const uint32_t v = (u + step) % n;
          out.Candidate(v);
          out.Delta(v, 1.0 / (u + 1.0));
        }
      }
    };
    callbacks.candidates = [this, engine](std::span<const uint32_t> batch) {
      for (uint32_t v : batch) {
        candidate_trace.push_back(v);
        if (!visited.count(v)) {
          visited.insert(v);
          engine->Next(v);
        }
      }
    };
    callbacks.deltas =
        [this](std::span<const FrontierEngine::DeltaGroup> groups) {
          FrontierEngine::ForEachDelta(groups, [this](uint32_t v, double x) {
            delta_trace.emplace_back(v, x);
            sums[v] += x;
          });
        };
    callbacks.round_done = [max_rounds](uint32_t round) {
      return round + 1 < max_rounds;
    };
    return callbacks;
  }

  const uint32_t n;
  std::set<uint32_t> visited;
  std::vector<uint32_t> candidate_trace;
  std::vector<std::pair<uint32_t, double>> delta_trace;
  std::map<uint32_t, double> sums;
};

FrontierEngine::Options WithThreads(uint32_t threads,
                                    uint64_t chunk_weight =
                                        FrontierEngine::kDefaultChunkWeight) {
  FrontierEngine::Options options;
  options.num_threads = threads;
  options.chunk_weight = chunk_weight;
  return options;
}

TEST(FrontierEngineTest, MergeTraceIdenticalAcrossThreadCounts) {
  // The candidate and delta callback sequences — not just the final state —
  // must be the same at every thread count. Use a tiny chunk weight so
  // every round splits into many chunks.
  SyntheticTraversal base(101);
  {
    FrontierEngine engine(101, WithThreads(1, /*chunk_weight=*/4));
    engine.Seed(0);
    base.visited.insert(0);
    engine.Run(base.Hook(&engine, 30));
  }
  EXPECT_FALSE(base.delta_trace.empty());
  for (uint32_t threads : {2u, 4u, 8u}) {
    SyntheticTraversal other(101);
    FrontierEngine engine(101, WithThreads(threads, /*chunk_weight=*/4));
    engine.Seed(0);
    other.visited.insert(0);
    engine.Run(other.Hook(&engine, 30));
    EXPECT_EQ(base.candidate_trace, other.candidate_trace)
        << "threads=" << threads;
    EXPECT_EQ(base.delta_trace, other.delta_trace) << "threads=" << threads;
    EXPECT_EQ(base.sums, other.sums);
  }
}

TEST(FrontierEngineTest, CandidatesDeduplicatedPerChunkNotPerRound) {
  // Nodes 0 and 10 both propose 20. With one chunk the emitter dedups;
  // with forced tiny chunks the two proposals arrive from distinct chunks
  // and the candidate callback must see both (merge-side dedup is the
  // caller's job).
  auto run = [](uint64_t chunk_weight) {
    FrontierEngine engine(32, WithThreads(1, chunk_weight));
    engine.Seed(0);
    engine.Seed(10);
    std::vector<uint32_t> seen;
    FrontierEngine::Callbacks callbacks;
    callbacks.expand = [](std::span<const uint32_t> chunk,
                          FrontierEngine::Emitter& out) {
      for (uint32_t u : chunk) {
        (void)u;
        out.Candidate(20);
        out.Candidate(20);  // chunk-level duplicate, always collapsed
      }
    };
    callbacks.candidates = [&seen](std::span<const uint32_t> batch) {
      seen.insert(seen.end(), batch.begin(), batch.end());
    };
    callbacks.round_done = [](uint32_t) { return false; };
    engine.Run(callbacks);
    return seen;
  };
  EXPECT_EQ(run(/*chunk_weight=*/1024), (std::vector<uint32_t>{20}));
  EXPECT_EQ(run(/*chunk_weight=*/1), (std::vector<uint32_t>{20, 20}));
}

TEST(FrontierEngineTest, DeltaLogPreservesEmissionOrderAndDuplicates) {
  // The delta channel is an append-only log: the merge callback sees every
  // emission in order (accumulation is the callback's job), whether logged
  // singly or as a bulk group sharing one value.
  FrontierEngine engine(8, WithThreads(1));
  engine.Seed(0);
  std::vector<std::pair<uint32_t, double>> merged;
  // Grouped targets are stored by reference, so the array must stay alive
  // until the round's merge (an adjacency row of an immutable graph, in
  // real traversals).
  const std::vector<uint32_t> row = {3, 5, 6};
  FrontierEngine::Callbacks callbacks;
  callbacks.expand = [&row](std::span<const uint32_t>,
                            FrontierEngine::Emitter& out) {
    out.Delta(5, 1.0);
    out.Deltas(row, 2.0);
    out.Delta(5, 4.0);
  };
  callbacks.deltas = [&merged](std::span<const FrontierEngine::DeltaGroup> g) {
    FrontierEngine::ForEachDelta(
        g, [&merged](uint32_t v, double x) { merged.emplace_back(v, x); });
  };
  callbacks.round_done = [](uint32_t) { return false; };
  engine.Run(callbacks);
  const std::vector<std::pair<uint32_t, double>> expected = {
      {5, 1.0}, {3, 2.0}, {5, 2.0}, {6, 2.0}, {5, 4.0}};
  EXPECT_EQ(merged, expected);
}

TEST(FrontierEngineTest, NextDeduplicatesWithinARound) {
  FrontierEngine engine(8, WithThreads(1));
  engine.Seed(0);
  uint32_t rounds = 0;
  std::vector<size_t> frontier_sizes;
  FrontierEngine::Callbacks callbacks;
  callbacks.expand = [&frontier_sizes](std::span<const uint32_t> chunk,
                                       FrontierEngine::Emitter& out) {
    frontier_sizes.push_back(chunk.size());
    out.Candidate(4);
  };
  callbacks.candidates = [&engine](std::span<const uint32_t> batch) {
    for (uint32_t v : batch) {
      engine.Next(v);
      engine.Next(v);  // double admission must not duplicate the frontier
    }
  };
  callbacks.round_done = [&rounds](uint32_t) { return ++rounds < 3; };
  engine.Run(callbacks);
  EXPECT_EQ(frontier_sizes, (std::vector<size_t>{1, 1, 1}));
}

TEST(FrontierEngineTest, SeedsAreDeduplicated) {
  FrontierEngine engine(8, WithThreads(1));
  engine.Seed(2);
  engine.Seed(2);
  engine.Seed(5);
  std::vector<uint32_t> expanded;
  FrontierEngine::Callbacks callbacks;
  callbacks.expand = [&expanded](std::span<const uint32_t> chunk,
                                 FrontierEngine::Emitter&) {
    expanded.insert(expanded.end(), chunk.begin(), chunk.end());
  };
  engine.Run(callbacks);
  EXPECT_EQ(expanded, (std::vector<uint32_t>{2, 5}));
}

TEST(FrontierEngineTest, RoundDoneMaySeedTheNextFrontier) {
  // Admission-policy traversals defer admission to round_done: nothing is
  // admitted during the merge, and round_done seeds whatever it chose.
  FrontierEngine engine(16, WithThreads(1));
  engine.Seed(0);
  std::vector<std::vector<uint32_t>> rounds_seen;
  FrontierEngine::Callbacks callbacks;
  callbacks.expand = [&rounds_seen](std::span<const uint32_t> chunk,
                                    FrontierEngine::Emitter&) {
    rounds_seen.emplace_back(chunk.begin(), chunk.end());
  };
  callbacks.round_done = [&engine](uint32_t round) {
    if (round == 0) {
      engine.Seed(7);
      engine.Seed(9);
      engine.Seed(7);  // deduplicated within the same admission batch
    }
    return true;  // round 1's frontier stays empty → loop ends
  };
  engine.Run(callbacks);
  ASSERT_EQ(rounds_seen.size(), 2u);
  EXPECT_EQ(rounds_seen[0], (std::vector<uint32_t>{0}));
  EXPECT_EQ(rounds_seen[1], (std::vector<uint32_t>{7, 9}));
}

TEST(FrontierEngineTest, EmptySeedRunsZeroRounds) {
  FrontierEngine engine(8, WithThreads(4));
  bool expanded = false;
  FrontierEngine::Callbacks callbacks;
  callbacks.expand = [&expanded](std::span<const uint32_t>,
                                 FrontierEngine::Emitter&) {
    expanded = true;
  };
  engine.Run(callbacks);
  EXPECT_FALSE(expanded);
}

TEST(FrontierEngineTest, ConcurrentEnginesDoNotInterfere) {
  // Several engines running in parallel threads, each multi-threaded on
  // the shared global pool. Under -DCYCLERANK_SANITIZE=thread this is the
  // engine-level TSan stress test.
  auto run_one = [](uint32_t seed) {
    SyntheticTraversal traversal(211);
    FrontierEngine engine(211, WithThreads(4, /*chunk_weight=*/8));
    engine.Seed(seed);
    traversal.visited.insert(seed);
    engine.Run(traversal.Hook(&engine, 40));
    return traversal.sums;
  };
  std::vector<std::map<uint32_t, double>> expected;
  for (uint32_t s = 0; s < 6; ++s) expected.push_back(run_one(s));
  std::vector<std::map<uint32_t, double>> got(6);
  std::vector<std::thread> workers;
  for (uint32_t s = 0; s < 6; ++s) {
    workers.emplace_back([&got, s, &run_one] { got[s] = run_one(s); });
  }
  for (auto& w : workers) w.join();
  for (uint32_t s = 0; s < 6; ++s) EXPECT_EQ(expected[s], got[s]);
}

}  // namespace
}  // namespace cyclerank
