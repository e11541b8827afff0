// Unit tests of the load benchmark's own arithmetic (harness.h).
#include "harness.h"

#include <gtest/gtest.h>

#include <vector>

namespace loadbench {
namespace {

TEST(PoissonSchedule, SameSeedSameStream) {
  Rng a(42), b(42), c(43);
  const auto sa = PoissonSchedule(a, 500.0, 2.0);
  const auto sb = PoissonSchedule(b, 500.0, 2.0);
  const auto sc = PoissonSchedule(c, 500.0, 2.0);
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
}

TEST(PoissonSchedule, SortedWithinWindowAtTheRate) {
  Rng rng(7);
  const auto due = PoissonSchedule(rng, 1000.0, 10.0);
  ASSERT_FALSE(due.empty());
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  EXPECT_GE(due.front(), 0.0);
  EXPECT_LT(due.back(), 10.0);
  // 10000 expected arrivals; the Poisson sd is 100.
  EXPECT_NEAR(static_cast<double>(due.size()), 10000.0, 500.0);
}

TEST(Zipf, SameSeedSameDraws) {
  const Zipf zipf(64, 1.0);
  Rng a(9), b(9);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(zipf.Draw(a), zipf.Draw(b));
}

TEST(Zipf, RankFrequenciesFollowTheLaw) {
  const Zipf zipf(10, 1.0);
  Rng rng(3);
  std::vector<int> counts(10, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Draw(rng)];
  double harmonic = 0.0;
  for (int r = 1; r <= 10; ++r) harmonic += 1.0 / r;
  for (int r = 0; r < 10; ++r) {
    const double want = n / ((r + 1) * harmonic);
    EXPECT_NEAR(counts[r], want, 0.05 * want) << "rank " << r;
  }
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(Percentile(v, 50), 5);
  EXPECT_EQ(Percentile(v, 90), 9);
  EXPECT_EQ(Percentile(v, 99), 10);
  EXPECT_EQ(Percentile(v, 0), 1);
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(TailPercentile, P99NeedsTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
  const Tail t = TailPercentile(Ramp(1000));
  EXPECT_EQ(t.percentile, 99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);
}

TEST(TailPercentile, FallsBackWhenTheRunIsShort) {
  // 999 samples: p99 has 9 beyond, p95 (rank 950) has 49.
  Tail t = TailPercentile(Ramp(999));
  EXPECT_EQ(t.percentile, 95);
  EXPECT_EQ(t.beyond, 49u);
  // 100 samples: p90 (rank 90) has 10 beyond.
  t = TailPercentile(Ramp(100));
  EXPECT_EQ(t.percentile, 90);
  EXPECT_EQ(t.value, 90);
  // 15 samples: only p50 is left, with 7 beyond.
  t = TailPercentile(Ramp(15));
  EXPECT_EQ(t.percentile, 50);
  EXPECT_EQ(t.beyond, 7u);
  EXPECT_EQ(TailPercentile({}).samples, 0u);
}

TEST(Digest, OrderAndFieldBoundariesMatter) {
  Digest a, b, c;
  a.Add("ab");
  a.Add("c");
  b.Add("a");
  b.Add("bc");
  c.Add("ab");
  c.Add("c");
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.Hex(), c.Hex());
  EXPECT_EQ(a.Hex().size(), 16u);
}

TEST(SelfTimes, ChildrenAreSubtractedOnce) {
  // root [0,100) with children [10,30), [20,50) (overlapping) and
  // [90,120) (clipped to 90..100); grandchild [12,14) only affects child 1.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},  {"a", 10, 30, 0, 1}, {"b", 20, 50, 0, 1},
      {"c", 90, 120, 0, 1},     {"a.x", 12, 14, 1, 1},
  };
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);  // covered: [10,50) + [90,100)
  EXPECT_EQ(self[1], 20 - 2);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 2);
}

TEST(SelfTimes, LeafAndEmpty) {
  EXPECT_TRUE(SelfTimes({}).empty());
  const auto self = SelfTimes({{"only", 5, 9, -1, 0}});
  EXPECT_EQ(self[0], 4);
}

}  // namespace
}  // namespace loadbench
