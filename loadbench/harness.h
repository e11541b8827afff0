// Arithmetic of the cyclerankd load benchmark, kept free of any platform
// dependency so harness_test.cc can check it in isolation: the seeded
// random streams (Poisson arrivals, Zipf popularity), the percentile and
// tail-percentile rules, the request-stream digest, and span self-time.
#ifndef LOADBENCH_HARNESS_H_
#define LOADBENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace loadbench {

/// SplitMix64: a tiny, portable generator. The standard library's
/// distributions are implementation-defined, so every draw the benchmark
/// makes goes through this and the helpers below; one seed therefore gives
/// one request stream on every compiler.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1), 53 bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Due offsets (seconds from the phase start) of a Poisson arrival process
/// at `rate` per second over `[0, duration)`.
inline std::vector<double> PoissonSchedule(Rng& rng, double rate,
                                           double duration) {
  std::vector<double> due;
  if (rate <= 0.0) return due;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= duration) return due;
    due.push_back(t);
  }
}

/// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup: rank r has weight
/// 1/(r+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  size_t Draw(Rng& rng) const {
    const double u = rng.Uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value
/// at index ceil(p/100 * n) - 1.
inline double Percentile(const std::vector<double>& sorted, double p) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

/// The reported tail of a latency sample.
struct Tail {
  double percentile = 0.0;  ///< e.g. 99
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;  ///< samples ranked above the percentile's index
};

/// The tail rule: the highest percentile of {99, 95, 90, 75, 50} with at
/// least `min_beyond` samples ranked beyond it — p99 once a run has 1000
/// samples. A run too short for even p50 reports p50 with what it has.
inline Tail TailPercentile(const std::vector<double>& sorted,
                           size_t min_beyond = 10) {
  Tail tail;
  tail.samples = sorted.size();
  if (sorted.empty()) return tail;
  for (double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const size_t n = sorted.size();
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n))), 1,
        n);
    tail.percentile = p;
    tail.value = sorted[rank - 1];
    tail.beyond = n - rank;
    if (tail.beyond >= min_beyond) break;
  }
  return tail;
}

/// Median of an unsorted sample (0 for an empty one).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// FNV-1a 64 over everything the generator will send, so two runs with one
/// seed can be shown to offer the same load.
class Digest {
 public:
  void Add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ull;
    }
    hash_ ^= 0xFF;  // field separator: ("ab","c") != ("a","bc")
    hash_ *= 0x100000001B3ull;
  }
  void Add(uint64_t value) { Add(std::to_string(value)); }
  uint64_t value() const { return hash_; }
  std::string Hex() const {
    static const char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) out[15 - i] = kDigits[(hash_ >> (4 * i)) & 0xF];
    return out;
  }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// One traced interval. `parent` indexes the same span vector (-1 = root);
/// spans of one query set share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children clipped to
/// the parent; overlapping children counted once).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, cursor);
      const int64_t hi = std::min(end, spans[i].end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

}  // namespace loadbench

#endif  // LOADBENCH_HARNESS_H_
