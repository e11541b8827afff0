// loadgen — the cyclerankd load benchmark.
//
//   loadgen --workload <catalog-hot|upload-cold|upload-churn> --seed N
//           --seconds S --trace <0|1> --daemon PATH --workdir DIR
//
// --trace 0 (end-to-end): spawns the real `cyclerankd` (listen_port=0)
// five times to time set-up, each followed by a burst of the upload phase,
// then on the last daemon runs an open-loop
// fixed-rate phase (Poisson arrivals; each query set timed from its due
// time: SUBMIT + SUBSCRIBE at the due time, GET_RESULTS when the EVENT
// arrives) and a closed-loop capacity phase with nproc clients, all
// through `NetClient` over loopback.
//
// --trace 1 (per layer): hosts the same `ApiGateway` + `NetServer` in this
// process, runs the fixed-rate phase untraced and traced, then probes
// sampled query sets layer by layer (wire cycle, in-process gateway twin,
// Datastore / BuildRequest / ResultCache / result_io replay), sweeps the
// kernels at 1 and nproc threads, times upload parsing, and reads the
// stores' counters. Spans are kept in memory and written to
// <workdir>/spans-<workload>-<seed>.tsv when the run ends.
//
// Every task must come back OK with a non-empty ranking, and a seeded
// sample is compared bit for bit with `RelevanceAlgorithm::Run` on the
// same graph in this process. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit codes: 0 correct,
// 1 incorrect results, 2 usage / set-up failure, 3 invalid run (the
// generator fell behind its schedule; no result is printed).

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "daemon.h"
#include "graph/io.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "platform/datastore.h"
#include "platform/gateway.h"
#include "platform/params.h"
#include "platform/platform_options.h"
#include "platform/registry.h"
#include "platform/result_io.h"
#include "workloads.h"

namespace loadbench {
namespace {

using cyclerank::QuerySet;
using cyclerank::RankedList;
using cyclerank::Status;
using cyclerank::StatusCode;
using cyclerank::TaskResult;
using cyclerank::TaskSpec;
using cyclerank::net::NetClient;

// ------------------------------------------------------------ settings --

constexpr int kSetupRepeats = 5;        ///< set-ups per run; setup_s = median
constexpr double kCpuWarmSeconds = 2.5;  ///< CoreKeeper time before any timing
constexpr double kDrainSeconds = 20.0;  ///< wait for stragglers after the last due
constexpr double kUploadMargin = 0.3;   ///< s between an upload's due and its first query
constexpr double kMaxLagP99Ms = 10.0;   ///< generator lateness that voids a run
constexpr size_t kSampledQuerySets = 12;  ///< checked bit for bit per phase
/// The capacity phase counts completions per window of about this length;
/// throughput is the median window's rate, so a host stall of a second or
/// two moves one window rather than the whole figure.
constexpr double kCapacityWindowSeconds = 1.0;
/// The fixed-rate phase's samples are cut, in due order, into windows of
/// this many; the tail rule applied to a window gives its p90, and the
/// reported tail is the median over windows. A whole-run p99 on this
/// sub-millisecond hit path lands on the brief host-level pauses that
/// delay every in-flight query set at once (1% of samples or so), and
/// swings between two modes from run to run; a window's p95 still moves
/// with how many such pauses a run happens to meet.
constexpr size_t kTailWindowSamples = 100;
const char* const kKernelAlgorithms[] = {"pagerank", "pers_pagerank",
                                         "cyclerank", "ppr_push"};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

void SleepUntil(int64_t ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(ns)));
}

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

// ------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("metric %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
  }

  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      out += (i ? ", " : "") + std::string("\"") + metrics_[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" +
             metrics_[i].unit + "\"}";
    }
    return out + "}}";
  }

 private:
  std::vector<Metric> metrics_;
};

// --------------------------------------------------------- correctness --

/// Validates every result as it arrives and keeps a seeded sample of
/// rankings for the bit-for-bit comparison with an in-process run.
class Checker {
 public:
  /// Failed tasks of one query set's results (0 = all OK, non-empty, and
  /// matching the submitted specs).
  uint64_t Check(const QuerySet& qs, const std::vector<TaskResult>& results,
                 bool sample) {
    uint64_t failed = 0;
    for (size_t i = 0; i < qs.tasks.size(); ++i) {
      if (i >= results.size()) {
        ++failed;
        continue;
      }
      const TaskResult& r = results[i];
      const bool ok = r.status.ok() && !r.ranking.empty() &&
                      r.spec.dataset == qs.tasks[i].dataset &&
                      r.spec.algorithm == qs.tasks[i].algorithm;
      if (!ok) {
        ++failed;
        Note("task " + qs.tasks[i].ToString() + ": " + r.status.ToString() +
             (r.ranking.empty() ? " (empty ranking)" : ""));
      } else if (sample) {
        std::lock_guard<std::mutex> lock(mu_);
        samples_.push_back({qs.tasks[i], r.ranking});
      }
    }
    return failed;
  }

  void Note(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (notes_++ < 5) std::fprintf(stderr, "loadgen: FAILED %s\n", what.c_str());
  }

  /// Re-runs every sampled task with `RelevanceAlgorithm::Run` on the same
  /// graph and params; returns the number of mismatches.
  uint64_t VerifySamples(Workload& workload, size_t* checked) {
    uint64_t mismatches = 0;
    for (const auto& [spec, ranking] : samples_) {
      if (!SameAsReference(workload, spec, ranking)) {
        ++mismatches;
        Note("ranking differs from RelevanceAlgorithm::Run: " + spec.ToString());
      }
    }
    *checked = samples_.size();
    return mismatches;
  }

 private:
  static bool SameAsReference(Workload& workload, const TaskSpec& spec,
                              const RankedList& got) {
    cyclerank::GraphPtr graph = workload.GraphOf(spec.dataset);
    if (graph == nullptr) return false;
    auto algorithm = cyclerank::AlgorithmRegistry::Default().Find(spec.algorithm);
    auto request = cyclerank::BuildRequest(*graph, spec.params);
    if (!algorithm.ok() || !request.ok()) return false;
    auto want = (*algorithm)->Run(*graph, *request);
    if (!want.ok() || want->size() != got.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].node != (*want)[i].node ||
          std::memcmp(&got[i].score, &(*want)[i].score, sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  }

  std::mutex mu_;
  std::vector<std::pair<TaskSpec, RankedList>> samples_;
  int notes_ = 0;
};

// ------------------------------------------------------------- streams --

/// An open-loop phase's offered load, generated before it starts.
struct Stream {
  std::vector<Draw> draws;
  std::vector<double> due;         ///< s from phase start, parallel to draws
  std::vector<bool> sampled;       ///< parallel to draws
  std::vector<size_t> uploads;     ///< streamed upload indices, in order
  std::vector<double> upload_due;  ///< parallel to uploads
};

void DigestQuerySet(Digest& digest, const QuerySet& qs) {
  for (const TaskSpec& t : qs.tasks) digest.Add(t.ToString());
}

/// Poisson arrivals at the workload's rate for `seconds`; uploads (if the
/// workload streams them) every 1/upload_rate s starting at `*next_upload`.
Stream MakeStream(Workload& w, Rng& rng, double seconds, size_t* next_upload,
                  Digest& digest) {
  Stream s;
  if (w.upload_rate > 0.0) {
    for (double t = 0.5 / w.upload_rate; t < seconds; t += 1.0 / w.upload_rate) {
      if (*next_upload >= w.uploads.size()) break;
      s.uploads.push_back((*next_upload)++);
      s.upload_due.push_back(t);
    }
  }
  s.due = PoissonSchedule(rng, w.rate_qps, seconds);
  const size_t first_streamed = s.uploads.empty() ? *next_upload : s.uploads[0];
  size_t live_streamed = 0;
  const double sample_p =
      std::min(1.0, static_cast<double>(kSampledQuerySets) /
                        std::max(1.0, w.rate_qps * seconds));
  for (double due : s.due) {
    while (live_streamed < s.upload_due.size() &&
           s.upload_due[live_streamed] + kUploadMargin <= due) {
      ++live_streamed;
    }
    s.draws.push_back(w.Next(rng, first_streamed + live_streamed));
    s.sampled.push_back(rng.Uniform() < sample_p);
    digest.Add(static_cast<uint64_t>(std::llround(due * 1e9)));
    DigestQuerySet(digest, s.draws.back().query_set);
  }
  for (size_t i = 0; i < s.uploads.size(); ++i) {
    digest.Add(static_cast<uint64_t>(std::llround(s.upload_due[i] * 1e9)));
    digest.Add(w.uploads[s.uploads[i]].name);
  }
  return s;
}

// -------------------------------------------------------------- phases --

struct PhaseStats {
  std::string name;
  uint64_t sent = 0, succeeded = 0, failed = 0, refused = 0;  // query sets
  uint64_t tasks = 0, tasks_failed = 0;
  uint64_t uploads = 0, uploads_failed = 0;
  std::vector<double> latency_ms, lag_ms, upload_ms;
  std::vector<double> latency_due_s;  ///< due offset of each latency sample
  std::vector<double> task_seconds;  ///< TaskResult.seconds, traced runs
  /// Submit-to-EVENT time minus the slowest task's `TaskResult.seconds`,
  /// traced runs.
  std::vector<double> queue_wait_ms;

  void Merge(const PhaseStats& o) {
    sent += o.sent;
    succeeded += o.succeeded;
    failed += o.failed;
    refused += o.refused;
    tasks += o.tasks;
    tasks_failed += o.tasks_failed;
    uploads += o.uploads;
    uploads_failed += o.uploads_failed;
    Append(latency_ms, o.latency_ms);
    Append(latency_due_s, o.latency_due_s);
    Append(lag_ms, o.lag_ms);
    Append(upload_ms, o.upload_ms);
    Append(task_seconds, o.task_seconds);
    Append(queue_wait_ms, o.queue_wait_ms);
  }

  static void Append(std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  }

  void Print() const {
    std::printf("phase %-10s sent=%llu succeeded=%llu failed=%llu "
                "refused=%llu tasks=%llu tasks_failed=%llu uploads=%llu "
                "uploads_failed=%llu\n",
                name.c_str(), (unsigned long long)sent,
                (unsigned long long)succeeded, (unsigned long long)failed,
                (unsigned long long)refused, (unsigned long long)tasks,
                (unsigned long long)tasks_failed, (unsigned long long)uploads,
                (unsigned long long)uploads_failed);
  }
};

bool IsRefusal(const Status& s) {
  return s.code() == StatusCode::kUnavailable;
}

/// Counts one query set's outcome into `stats`.
void Account(PhaseStats& stats, const QuerySet& qs, const Status& submit,
             uint64_t tasks_failed) {
  stats.tasks += qs.tasks.size();
  if (!submit.ok()) {
    stats.tasks_failed += qs.tasks.size();
    ++(IsRefusal(submit) ? stats.refused : stats.failed);
  } else if (tasks_failed != 0) {
    stats.tasks_failed += tasks_failed;
    ++stats.failed;
  } else {
    ++stats.succeeded;
  }
}

/// Uploads of a stream done so far (they complete in order on one
/// connection); queries wait for the upload they name.
struct UploadProgress {
  std::atomic<size_t> done{0};  ///< workload upload indices < done are live
};

bool Connect(NetClient& client, uint16_t port, Checker& checker) {
  const Status s = client.Connect("127.0.0.1", port);
  if (!s.ok()) checker.Note("connect: " + s.ToString());
  return s.ok();
}

/// One generator thread of an open-loop phase: submits its share of the
/// arrivals at their due times and collects results as EVENTs arrive.
void OpenLoopThread(uint16_t port, const Stream& s, size_t tid, size_t threads,
                    int64_t t0, const UploadProgress& progress,
                    Checker& checker, PhaseStats& stats,
                    std::vector<Span>* spans) {
  std::vector<size_t> mine;
  for (size_t i = tid; i < s.draws.size(); i += threads) mine.push_back(i);
  NetClient client;
  if (!Connect(client, port, checker)) {
    for (size_t a : mine) {
      Account(stats, s.draws[a].query_set, Status::Unavailable("no connection"), 0);
    }
    return;
  }
  struct InFlight {
    size_t arrival;
    int64_t root;  // span index, -1 untraced
    int64_t submit_start;
    int64_t wait_start;
  };
  std::unordered_map<std::string, InFlight> inflight;
  const int64_t last_due =
      t0 + (s.due.empty() ? 0 : static_cast<int64_t>(s.due.back() * 1e9));
  const int64_t drain_deadline =
      last_due + static_cast<int64_t>(kDrainSeconds * 1e9);
  const auto span = [&](const char* name, int64_t start, int64_t end,
                        int64_t parent, uint64_t request) -> int64_t {
    if (spans == nullptr) return -1;
    spans->push_back({name, start, end, parent, request});
    return static_cast<int64_t>(spans->size()) - 1;
  };

  // The generator's own lateness: how long after a send became possible
  // (due, this thread done with its previous round trip, and the named
  // upload live) it actually went out. Waiting on the daemon is not lag;
  // it is in the latency, which counts from the due time regardless.
  int64_t busy_until = 0;
  size_t next = 0;
  while (next < mine.size() || !inflight.empty()) {
    const int64_t now = NowNs();
    double wait_s;
    if (next < mine.size()) {
      const size_t a = mine[next];
      const int64_t due = t0 + static_cast<int64_t>(s.due[a] * 1e9);
      const Draw& draw = s.draws[a];
      const bool live = draw.needs_upload < 0 ||
                        static_cast<size_t>(draw.needs_upload) <
                            progress.done.load(std::memory_order_acquire);
      if (now >= due && !live) busy_until = now;
      if (now >= due && live) {
        ++stats.sent;
        stats.lag_ms.push_back(Ms(now - std::max(due, busy_until)));
        const int64_t root = span("qs", due, due, -1, a);
        const int64_t t1 = NowNs();
        auto id = client.SubmitQuerySet(draw.query_set);
        const int64_t t2 = NowNs();
        span("net.submit", t1, t2, root, a);
        Status status = id.status();
        if (id.ok()) status = client.Subscribe(*id);
        const int64_t t3 = NowNs();
        span("net.subscribe", t2, t3, root, a);
        if (!status.ok()) {
          checker.Note("submit: " + status.ToString());
          Account(stats, draw.query_set, status, 0);
          if (root >= 0) (*spans)[static_cast<size_t>(root)].end_ns = t3;
        } else {
          inflight[*id] = {a, root, t1, t3};
        }
        busy_until = t3;
        ++next;
        continue;
      }
      if (now < due) {
        const int64_t left = due - now;
        if (left <= 1'100'000) {  // poll() sleeps in whole ms; finish exactly
          SleepUntil(due);
          continue;
        }
        wait_s = static_cast<double>(left - 1'000'000) / 1e9;
      } else {
        wait_s = 0.0005;  // due, but its upload is not live yet
      }
    } else {
      if (now >= drain_deadline) break;
      wait_s = static_cast<double>(drain_deadline - now) / 1e9;
    }

    auto event = client.NextEvent(wait_s);
    if (!event.ok()) {
      if (event.status().code() == StatusCode::kDeadlineExceeded) continue;
      checker.Note("event: " + event.status().ToString());
      break;
    }
    const int64_t got_event = NowNs();
    auto it = inflight.find(event->comparison.comparison_id);
    if (it == inflight.end()) continue;
    const InFlight f = it->second;
    inflight.erase(it);
    const Draw& draw = s.draws[f.arrival];
    span("net.wait", f.wait_start, got_event, f.root, f.arrival);
    auto results = client.GetResults(event->comparison.comparison_id);
    const int64_t t5 = NowNs();
    span("net.results", got_event, t5, f.root, f.arrival);
    uint64_t bad = draw.query_set.tasks.size();
    if (results.ok()) {
      bad = checker.Check(draw.query_set, *results, s.sampled[f.arrival]);
    } else {
      checker.Note("results: " + results.status().ToString());
    }
    const int64_t done = NowNs();
    busy_until = done;
    span("client.check", t5, done, f.root, f.arrival);
    const int64_t due = t0 + static_cast<int64_t>(s.due[f.arrival] * 1e9);
    Account(stats, draw.query_set, Status::OK(), bad);
    if (bad == 0) {
      stats.latency_ms.push_back(Ms(done - due));
      stats.latency_due_s.push_back(s.due[f.arrival]);
    }
    if (spans != nullptr && results.ok()) {
      (*spans)[static_cast<size_t>(f.root)].end_ns = done;
      double slowest = 0.0;
      for (const TaskResult& r : *results) {
        stats.task_seconds.push_back(r.seconds);
        slowest = std::max(slowest, r.seconds);
      }
      stats.queue_wait_ms.push_back(Ms(got_event - f.submit_start) -
                                    slowest * 1e3);
    }
  }
  // Anything still in flight missed the drain deadline: failed.
  for (const auto& [id, f] : inflight) {
    checker.Note("query set " + id + " never completed");
    Account(stats, s.draws[f.arrival].query_set, Status::OK(),
            s.draws[f.arrival].query_set.tasks.size());
  }
  for (size_t i = next; i < mine.size(); ++i) {
    Account(stats, s.draws[mine[i]].query_set,
            Status::Unavailable("never sent"), 0);
  }
}

/// The uploader of a streaming phase: one connection, uploads in order at
/// their due times.
void UploadThread(uint16_t port, const Workload& w, const Stream& s, int64_t t0,
                  UploadProgress& progress, Checker& checker,
                  PhaseStats& stats) {
  NetClient client;
  const bool connected = Connect(client, port, checker);
  for (size_t i = 0; i < s.uploads.size(); ++i) {
    const int64_t due = t0 + static_cast<int64_t>(s.upload_due[i] * 1e9);
    SleepUntil(due);
    const int64_t start = NowNs();
    stats.lag_ms.push_back(Ms(start - due));
    const UploadInput& up = w.uploads[s.uploads[i]];
    const Status st = connected ? client.UploadDataset(up.name, up.text)
                                : Status::Unavailable("not connected");
    ++stats.uploads;
    if (st.ok()) {
      stats.upload_ms.push_back(Ms(NowNs() - start));
    } else {
      ++stats.uploads_failed;
      checker.Note("upload " + up.name + ": " + st.ToString());
    }
    // Even a failed upload advances, so its queries fail instead of hang.
    progress.done.store(s.uploads[i] + 1, std::memory_order_release);
  }
}

/// Runs an open-loop phase with nproc/2 query connections, plus one for
/// the uploader when the stream carries uploads. Half the cores leave the
/// other half to the daemon: the generator must not be what queues.
PhaseStats RunOpenLoop(const std::string& name, uint16_t port, Workload& w,
                       const Stream& s, UploadProgress& progress,
                       Checker& checker, std::vector<Span>* spans) {
  const size_t threads = std::max<size_t>(1, Nproc() / 2);
  std::vector<PhaseStats> per(threads + 1);
  std::vector<std::vector<Span>> per_spans(threads);
  const int64_t t0 = NowNs() + 20'000'000;  // let every thread connect first
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      OpenLoopThread(port, s, t, std::max<size_t>(threads, 1), t0, progress,
                     checker, per[t], spans ? &per_spans[t] : nullptr);
    });
  }
  if (!s.uploads.empty()) {
    pool.emplace_back([&] {
      UploadThread(port, w, s, t0, progress, checker, per[threads]);
    });
  }
  for (auto& th : pool) th.join();
  PhaseStats total;
  total.name = name;
  for (const auto& p : per) total.Merge(p);
  if (spans != nullptr) {
    for (const auto& local : per_spans) {
      const int64_t base = static_cast<int64_t>(spans->size());
      for (Span sp : local) {
        if (sp.parent >= 0) sp.parent += base;
        spans->push_back(sp);
      }
    }
  }
  return total;
}

/// One synchronous query-set cycle: submit, wait, results, check.
Status SyncCycle(NetClient& client, const QuerySet& qs, Checker& checker,
                 bool sample, uint64_t* bad,
                 std::vector<TaskResult>* out = nullptr) {
  *bad = qs.tasks.size();
  auto id = client.SubmitQuerySet(qs);
  if (!id.ok()) return id.status();
  auto waited = client.WaitForCompletion(*id, 60.0);
  if (!waited.ok()) return waited.status();
  auto results = client.GetResults(*id);
  if (!results.ok()) return results.status();
  *bad = checker.Check(qs, *results, sample);
  if (out != nullptr) *out = std::move(results).value();
  return Status::OK();
}

/// Closed loop: nproc clients, each sending its next query set as soon as
/// the previous one completed; counts completions inside the window.
PhaseStats RunCapacity(uint16_t port, const std::vector<QuerySet>& sets,
                       double seconds, Checker& checker, double* qps) {
  const size_t clients = Nproc();
  std::vector<PhaseStats> per(clients);
  std::atomic<size_t> next{0};
  std::atomic<bool> exhausted{false};
  std::vector<std::vector<int64_t>> completed(clients);
  const int64_t t0 = NowNs() + 20'000'000;
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      NetClient client;
      if (!Connect(client, port, checker)) {
        Account(per[c], sets[c % sets.size()], Status::Unavailable("no connection"), 0);
        return;
      }
      SleepUntil(t0);
      while (NowNs() < end) {
        const size_t i = next.fetch_add(1);
        if (i >= sets.size()) {
          exhausted = true;
          break;
        }
        ++per[c].sent;
        uint64_t bad = 0;
        const int64_t start = NowNs();
        const Status st = SyncCycle(client, sets[i], checker, false, &bad);
        const int64_t done = NowNs();
        if (!st.ok()) checker.Note("capacity: " + st.ToString());
        Account(per[c], sets[i], st, bad);
        if (st.ok() && bad == 0) per[c].latency_ms.push_back(Ms(done - start));
        if (st.ok() && bad == 0 && done <= end) completed[c].push_back(done - t0);
      }
    });
  }
  for (auto& th : pool) th.join();
  PhaseStats total;
  total.name = "capacity";
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / kCapacityWindowSeconds));
  const double window_s = seconds / static_cast<double>(windows);
  std::vector<double> counts(windows, 0.0);
  for (size_t c = 0; c < clients; ++c) {
    total.Merge(per[c]);
    for (int64_t at : completed[c]) {
      const size_t w = static_cast<size_t>(static_cast<double>(at) / 1e9 / window_s);
      counts[std::min(w, windows - 1)] += 1.0;
    }
  }
  if (exhausted) checker.Note("capacity phase ran out of pre-generated query sets");
  std::printf("capacity completions per %.2f s window:", window_s);
  for (double n : counts) std::printf(" %.0f", n);
  std::printf("\n");
  *qps = Median(counts) / window_s;
  return total;
}

// --------------------------------------------------------------- setup --

/// Keeps every core from idling while it lives: one SCHED_IDLE thread per
/// core spins, and any other runnable thread preempts it. On a shared VM a
/// vCPU that sat idle runs slow for a second or two once work arrives (on
/// a 4-vCPU VM, set-up after an idle pause read twice as long as right
/// after other work). It also slows busy cores a little (set-up read ~25%
/// longer with it running), so it runs only before timing starts and
/// during the upload phase.
class CoreKeeper {
 public:
  CoreKeeper() {
    for (size_t t = 0; t < Nproc(); ++t) {
      threads_.emplace_back([this] {
        sched_param param{};
        (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        volatile uint64_t x = 0;
        while (!stop_.load(std::memory_order_relaxed)) {
          for (int i = 0; i < 10000; ++i) x = x + 1;
        }
      });
    }
  }
  ~CoreKeeper() {
    stop_ = true;
    for (auto& t : threads_) t.join();
  }
  CoreKeeper(const CoreKeeper&) = delete;
  CoreKeeper& operator=(const CoreKeeper&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Set-up on a fresh server: the workload's set-up uploads, then its
/// warm-up query sets spread over nproc connections.
PhaseStats RunSetup(uint16_t port, Workload& w,
                    const std::vector<QuerySet>& warmup, Checker& checker) {
  PhaseStats stats;
  stats.name = "warm-up";
  {
    NetClient client;
    if (!Connect(client, port, checker)) {
      ++stats.uploads_failed;
      return stats;
    }
    for (size_t i = 0; i < w.setup_uploads; ++i) {
      const int64_t start = NowNs();
      const Status st = client.UploadDataset(w.uploads[i].name, w.uploads[i].text);
      ++stats.uploads;
      if (st.ok()) {
        stats.upload_ms.push_back(Ms(NowNs() - start));
      } else {
        ++stats.uploads_failed;
        checker.Note("set-up upload " + w.uploads[i].name + ": " + st.ToString());
      }
    }
  }
  const size_t clients = std::min(Nproc(), std::max<size_t>(1, warmup.size()));
  std::vector<PhaseStats> per(clients);
  std::vector<std::thread> pool;
  for (size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      NetClient client;
      const bool connected = Connect(client, port, checker);
      for (size_t i = c; i < warmup.size(); i += clients) {
        if (!connected) {
          Account(per[c], warmup[i], Status::Unavailable("no connection"), 0);
          continue;
        }
        ++per[c].sent;
        uint64_t bad = 0;
        const Status st = SyncCycle(client, warmup[i], checker, false, &bad);
        if (!st.ok()) checker.Note("warm-up: " + st.ToString());
        Account(per[c], warmup[i], st, bad);
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& p : per) stats.Merge(p);
  return stats;
}

/// Uploads `w.probe_uploads[begin, end)` back to back on one connection,
/// with a CoreKeeper running: one upload keeps one core busy and leaves
/// the rest idle, and whether the parsing thread woke on a busy or an idle
/// core decided between ~5 and ~7 ms per upload.
PhaseStats RunUploadPhase(uint16_t port, const Workload& w, size_t begin,
                          size_t end, Checker& checker) {
  PhaseStats stats;
  stats.name = "uploads";
  NetClient client;
  const bool connected = Connect(client, port, checker);
  CoreKeeper keeper;
  for (size_t i = begin; i < end && i < w.probe_uploads.size(); ++i) {
    const UploadInput& up = w.probe_uploads[i];
    const int64_t start = NowNs();
    const Status st = connected ? client.UploadDataset(up.name, up.text)
                                : Status::Unavailable("not connected");
    ++stats.uploads;
    if (st.ok()) {
      stats.upload_ms.push_back(Ms(NowNs() - start));
    } else {
      ++stats.uploads_failed;
      checker.Note("upload " + up.name + ": " + st.ToString());
    }
  }
  return stats;
}

// ----------------------------------------------------------------- run --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon;
  std::string workdir = ".";
};

/// Inputs of one run, all derived from the seed.
struct Plan {
  std::unique_ptr<Workload> workload;
  std::vector<QuerySet> warmup;
  Stream fixed;                      // the fixed-rate phase (traced: untraced half)
  Stream traced;                     // traced runs only
  std::vector<QuerySet> capacity;    // closed-loop list (untraced runs)
  std::vector<QuerySet> probes;      // traced runs only
  std::string digest;
};

/// Length of the fixed-rate phase; a traced run has two of them (untraced
/// and traced) plus the probes.
double FixedRateSeconds(const Args& args, const Workload& w) {
  return args.seconds * (args.trace ? 0.35 : 1.0 - w.capacity_share);
}

Plan MakePlan(const Args& args) {
  Plan plan;
  // Uploads are pre-generated for the longest stream any workload runs.
  plan.workload = Workload::Create(args.workload, args.seed, args.seconds);
  if (plan.workload == nullptr) return plan;
  Workload& w = *plan.workload;
  const double fixed_s = FixedRateSeconds(args, w);
  Digest digest;
  digest.Add(args.workload);
  digest.Add(w.options);
  for (const auto* list : {&w.uploads, &w.probe_uploads}) {
    for (const UploadInput& up : *list) {
      digest.Add(up.name);
      digest.Add(up.text);
    }
  }
  Rng rng(args.seed ^ 0x5EEDF00Dull);
  plan.warmup = w.WarmUp(rng);
  for (const QuerySet& qs : plan.warmup) DigestQuerySet(digest, qs);
  size_t next_upload = w.setup_uploads;
  plan.fixed = MakeStream(w, rng, fixed_s, &next_upload, digest);
  if (args.trace) {
    plan.traced = MakeStream(w, rng, fixed_s, &next_upload, digest);
    for (int i = 0; i < 64; ++i) {
      plan.probes.push_back(w.Next(rng, next_upload).query_set);
      DigestQuerySet(digest, plan.probes.back());
    }
  } else {
    const double capacity_s = args.seconds * w.capacity_share;
    const size_t n = static_cast<size_t>(w.capacity_bound_qps * capacity_s);
    for (size_t i = 0; i < n; ++i) {
      plan.capacity.push_back(w.Next(rng, next_upload).query_set);
      DigestQuerySet(digest, plan.capacity.back());
    }
  }
  plan.digest = digest.Hex();
  return plan;
}

std::string DaemonOptions(const Workload& w, const std::string& spill_dir) {
  std::string options = "listen_port=0";
  if (!w.options.empty()) options += ", " + w.options;
  if (!spill_dir.empty()) options += ", spill_dir=" + spill_dir;
  return options;
}

std::string FreshDir(const std::string& workdir, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(workdir) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// The tail rule applied per window of `kTailWindowSamples` samples in due
/// order (a short last window joins the one before); returns the median
/// of the windows' tails.
double WindowedTail(const PhaseStats& phase) {
  std::vector<size_t> order(phase.latency_ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return phase.latency_due_s[a] < phase.latency_due_s[b];
  });
  const size_t windows = std::max<size_t>(1, order.size() / kTailWindowSamples);
  std::vector<double> tails;
  Tail tail;
  for (size_t w = 0; w < windows; ++w) {
    const size_t end = w + 1 == windows ? order.size() : (w + 1) * kTailWindowSamples;
    std::vector<double> window;
    for (size_t i = w * kTailWindowSamples; i < end; ++i) {
      window.push_back(phase.latency_ms[order[i]]);
    }
    std::sort(window.begin(), window.end());
    tail = TailPercentile(window);
    tails.push_back(tail.value);
  }
  std::printf("qs_latency_tail_ms: median over %zu windows of %zu+ samples "
              "of each window's p%g (%zu samples beyond it in the last)\n",
              windows, kTailWindowSamples, tail.percentile, tail.beyond);
  return Median(tails);
}

void PrintLatency(const char* what, const std::vector<double>& ms) {
  std::vector<double> sorted = ms;
  std::sort(sorted.begin(), sorted.end());
  const Tail tail = TailPercentile(sorted);
  std::printf("%s: n=%zu p50=%.4f ms tail=p%g %.4f ms (%zu samples beyond)\n",
              what, sorted.size(), sorted.empty() ? 0.0 : Percentile(sorted, 50),
              tail.percentile, tail.value, tail.beyond);
}

/// Finishes a run: bit-for-bit sample check, totals, the JSON line.
int Finish(Plan& plan, Checker& checker,
           std::vector<PhaseStats>& phases, Report& report) {
  uint64_t attempted = 0, failed = 0;
  for (const PhaseStats& p : phases) {
    p.Print();
    attempted += p.tasks + p.uploads;
    failed += p.tasks_failed + p.uploads_failed;
  }
  size_t checked = 0;
  const uint64_t mismatches = checker.VerifySamples(*plan.workload, &checked);
  failed += mismatches;
  std::printf("reference check: %zu sampled tasks compared bit for bit with "
              "RelevanceAlgorithm::Run, %llu mismatches\n",
              checked, (unsigned long long)mismatches);
  std::printf("tasks_failed_frac=%.6g (%llu of %llu attempted)\n",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              (unsigned long long)failed, (unsigned long long)attempted);
  const bool correct = failed == 0 && attempted > 0 && checked > 0;
  std::printf("%s\n", report.Json(correct, std::max<uint64_t>(attempted, 1),
                                   failed).c_str());
  return correct ? 0 : 1;
}

bool LagValid(const PhaseStats& fixed) {
  std::vector<double> lag = fixed.lag_ms;
  std::sort(lag.begin(), lag.end());
  const double p99 = lag.empty() ? 0.0 : Percentile(lag, 99);
  std::printf("loadgen lag: p99=%.4f ms over %zu sends (limit %.1f ms)\n", p99,
              lag.size(), kMaxLagP99Ms);
  if (p99 > kMaxLagP99Ms) {
    std::fprintf(stderr,
                 "loadgen: INVALID run: the generator fell behind its "
                 "schedule (lag p99 %.3f ms > %.1f ms); not reported\n",
                 p99, kMaxLagP99Ms);
    return false;
  }
  return true;
}

// ------------------------------------------------- end-to-end (trace 0) --

int RunEndToEnd(const Args& args, Plan& plan) {
  Workload& w = *plan.workload;
  Checker checker;
  std::vector<PhaseStats> phases;
  std::vector<double> setup_s;
  PhaseStats uploads;
  uploads.name = "uploads";
  ChildDaemon daemon;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    daemon.Stop();
    const std::string spill =
        w.spill ? FreshDir(args.workdir, "spill/" + std::to_string(rep)) : "";
    const int64_t start = NowNs();
    std::string error;
    if (!daemon.Start(args.daemon, DaemonOptions(w, spill),
                      args.workdir + "/cyclerankd.log", 30.0, &error)) {
      std::fprintf(stderr, "loadgen: %s\n", error.c_str());
      return 2;
    }
    PhaseStats warm = RunSetup(daemon.port(), w, plan.warmup, checker);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    warm.name = "warm-up#" + std::to_string(rep + 1);
    phases.push_back(std::move(warm));
    // A share of the upload phase on each set-up's daemon, untimed by
    // setup_s: a single burst met one heap layout and one host state, and
    // its median read 4.9 to 7.2 ms across five catalog-hot runs.
    const size_t n = w.probe_uploads.size();
    uploads.Merge(RunUploadPhase(daemon.port(), w, n * rep / kSetupRepeats,
                                 n * (rep + 1) / kSetupRepeats, checker));
  }

  UploadProgress progress;
  progress.done = w.setup_uploads;
  PhaseStats fixed = RunOpenLoop("fixed-rate", daemon.port(), w, plan.fixed,
                                 progress, checker, nullptr);
  if (!LagValid(fixed)) return 3;
  // Peak RSS after the fixed-rate phase: a fixed rate x length, so memory
  // retained per query set shows, not how far the capacity phase got.
  const double rss_mb = daemon.PeakRssMb();
  std::vector<double> upload_ms = fixed.upload_ms;
  PhaseStats::Append(upload_ms, uploads.upload_ms);
  const double fixed_s = FixedRateSeconds(args, w);
  const double capacity_s = args.seconds * w.capacity_share;
  // Without a capacity phase, throughput is the fixed-rate phase's goodput:
  // query sets completed correctly per second at the offered rate.
  double qps = static_cast<double>(fixed.succeeded) / fixed_s;
  PhaseStats capacity;
  capacity.name = "capacity";
  if (capacity_s > 0) {
    capacity = RunCapacity(daemon.port(), plan.capacity, capacity_s, checker,
                           &qps);
  }
  daemon.Stop();

  std::vector<double> lat = fixed.latency_ms;
  std::sort(lat.begin(), lat.end());
  std::printf("workload %s seed %llu: open loop at %.0f qs/s (+%.1f uploads/s) "
              "for %.2f s on %zu+%d connections\n",
              args.workload.c_str(), (unsigned long long)args.seed, w.rate_qps,
              w.upload_rate, fixed_s, std::max<size_t>(1, Nproc() / 2),
              w.upload_rate > 0 ? 1 : 0);
  if (capacity_s > 0) {
    std::printf("throughput_qps: closed loop, %zu clients for %.2f s\n",
                Nproc(), capacity_s);
  } else {
    std::printf("throughput_qps: goodput of the fixed-rate phase\n");
  }
  std::printf("request_stream_digest=%s\n", plan.digest.c_str());
  std::printf("daemon options: %s\n", DaemonOptions(w, w.spill ? "<tmp>" : "").c_str());
  PrintLatency("query-set latency", fixed.latency_ms);
  if (capacity_s > 0) PrintLatency("capacity query-set cycle", capacity.latency_ms);
  const double tail_ms = WindowedTail(fixed);
  std::printf("upload_latency_p50_ms over %zu uploads (%zu streamed, %zu "
              "in the upload phase)\n", upload_ms.size(),
              fixed.upload_ms.size(), uploads.upload_ms.size());
  std::printf("setup_s samples:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  Report report;
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("qs_latency_p50_ms", lat.empty() ? 0.0 : Percentile(lat, 50), "ms");
  report.Add("qs_latency_tail_ms", tail_ms, "ms");
  report.Add("throughput_qps", qps, "1/s");
  report.Add("upload_latency_p50_ms", Median(upload_ms), "ms");
  report.Add("daemon_rss_peak_mb", rss_mb, "MiB");
  phases.push_back(std::move(fixed));
  phases.push_back(std::move(uploads));
  phases.push_back(std::move(capacity));
  return Finish(plan, checker, phases, report);
}

// ---------------------------------------------------- per layer (trace 1) --

/// Durations (µs) of every span, grouped by name.
std::map<std::string, std::vector<double>> DurationsByName(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> by;
  for (const Span& s : spans) by[s.name].push_back(Us(s.duration_ns()));
  return by;
}

double MedianOf(const std::map<std::string, std::vector<double>>& by,
                const std::string& name) {
  auto it = by.find(name);
  return it == by.end() ? 0.0 : Median(it->second);
}

/// Median wall time (ms) of `algorithm` on `graph` at `threads` threads.
double KernelMs(const cyclerank::Graph& graph, const std::string& algorithm,
                const std::string& reference, uint32_t threads) {
  auto algo = cyclerank::AlgorithmRegistry::Default().Find(algorithm);
  cyclerank::ParamMap params;
  params.Set("source", reference);
  if (algorithm == "cyclerank") params.Set("k", "3");
  auto request = cyclerank::BuildRequest(graph, params);
  if (!algo.ok() || !request.ok()) return 0.0;
  request->num_threads = threads;
  std::vector<double> ms;
  const int64_t budget_end = NowNs() + 1'000'000'000;
  for (int rep = 0; rep < 7 && (rep < 3 || NowNs() < budget_end); ++rep) {
    const int64_t start = NowNs();
    (void)(*algo)->Run(graph, *request);
    ms.push_back(Ms(NowNs() - start));
  }
  return Median(ms);
}

int RunTraced(const Args& args, Plan& plan) {
  Workload& w = *plan.workload;
  Checker checker;
  std::vector<PhaseStats> phases;
  std::vector<Span> spans;

  auto parsed = cyclerank::PlatformOptions::FromString(DaemonOptions(
      w, w.spill ? FreshDir(args.workdir, "spill/traced") : ""));
  if (!parsed.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const cyclerank::PlatformOptions options = *parsed;
  cyclerank::Datastore store(&cyclerank::DatasetCatalog::BuiltIn(), options);
  cyclerank::ApiGateway gateway(&store, &cyclerank::AlgorithmRegistry::Default(),
                                options);
  cyclerank::net::NetServer server(&gateway, options);
  if (const Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", st.ToString().c_str());
    return 2;
  }
  const uint16_t port = server.port();

  phases.push_back(RunSetup(port, w, plan.warmup, checker));

  UploadProgress progress;
  progress.done = w.setup_uploads;
  PhaseStats untraced = RunOpenLoop("untraced", port, w, plan.fixed, progress,
                                    checker, nullptr);
  if (!LagValid(untraced)) return 3;

  const auto cache0 = store.result_cache().stats();
  const auto net0 = server.stats();
  PhaseStats traced = RunOpenLoop("traced", port, w, plan.traced, progress,
                                  checker, &spans);
  const auto cache1 = store.result_cache().stats();
  const auto net1 = server.stats();
  PhaseStats uploads =
      RunUploadPhase(port, w, 0, w.probe_uploads.size(), checker);
  std::vector<double> upload_ms = untraced.upload_ms;
  PhaseStats::Append(upload_ms, traced.upload_ms);
  PhaseStats::Append(upload_ms, uploads.upload_ms);

  // Probes: wire cycle, its in-process twin, a second (hit) wire cycle, and
  // a replay of each task through the layers' public functions.
  PhaseStats probe;
  probe.name = "probe";
  std::vector<double> transport_us, encode_us, bytes_per_qs;
  uint64_t twin_tasks = 0;  // tasks submitted in-process, stored like the rest
  {
    NetClient client;
    if (Connect(client, port, checker)) {
      const int64_t probe_end =
          NowNs() + static_cast<int64_t>(args.seconds * 0.3 * 1e9);
      for (size_t p = 0; p < plan.probes.size() && NowNs() < probe_end; ++p) {
        const QuerySet& qs = plan.probes[p];
        const uint64_t rid = 1'000'000 + p;
        const auto add = [&](const char* name, int64_t a, int64_t b,
                             int64_t parent) {
          spans.push_back({name, a, b, parent, rid});
          return static_cast<int64_t>(spans.size()) - 1;
        };
        // Synchronous wire cycle: SUBMIT, WAIT, GET_RESULTS.
        const int64_t w0 = NowNs();
        const int64_t wire = add("probe.wire", w0, w0, -1);
        auto id = client.SubmitQuerySet(qs);
        const int64_t w1 = NowNs();
        add("net.submit_rtt", w0, w1, wire);
        Status st = id.status();
        if (st.ok()) st = client.WaitForCompletion(*id, 60.0).status();
        const int64_t w2 = NowNs();
        add("net.wait_rtt", w1, w2, wire);
        std::vector<TaskResult> results;
        if (st.ok()) {
          auto r = client.GetResults(*id);
          st = r.status();
          if (r.ok()) results = std::move(r).value();
        }
        const int64_t w3 = NowNs();
        add("net.results_rtt", w2, w3, wire);
        spans[static_cast<size_t>(wire)].end_ns = w3;
        ++probe.sent;
        const uint64_t bad = st.ok() ? checker.Check(qs, results, p < 4) : 0;
        if (!st.ok()) checker.Note("probe: " + st.ToString());
        Account(probe, qs, st, bad);
        if (!st.ok() || bad != 0) continue;

        // In-process twin of the same cycle (a cache hit by now).
        const int64_t g0 = NowNs();
        const int64_t twin = add("probe.twin", g0, g0, -1);
        twin_tasks += qs.tasks.size();
        auto gid = gateway.SubmitQuerySet(qs);
        const int64_t g1 = NowNs();
        add("gateway.submit", g0, g1, twin);
        if (gid.ok()) (void)gateway.WaitForCompletion(*gid, 60.0);
        const int64_t g2 = NowNs();
        add("gateway.wait", g1, g2, twin);
        if (gid.ok()) (void)gateway.GetResults(*gid);
        const int64_t g3 = NowNs();
        add("gateway.results", g2, g3, twin);
        spans[static_cast<size_t>(twin)].end_ns = g3;

        // The same wire cycle again, now also a hit: wire minus twin.
        const int64_t h0 = NowNs();
        uint64_t hit_bad = 0;
        const Status hit = SyncCycle(client, qs, checker, false, &hit_bad);
        const int64_t h1 = NowNs();
        add("probe.wire_hit", h0, h1, -1);
        ++probe.sent;
        Account(probe, qs, hit, hit_bad);
        if (hit.ok() && gid.ok()) transport_us.push_back(Us((h1 - h0) - (g3 - g0)));

        // Replay through the layers' public functions.
        const int64_t r0 = NowNs();
        const int64_t replay = add("probe.replay", r0, r0, -1);
        double encode = 0.0, bytes = 0.0;
        for (const TaskResult& r : results) {
          const TaskSpec& spec = r.spec;
          int64_t a = NowNs();
          auto graph = store.GetDataset(spec.dataset);
          int64_t b = NowNs();
          add("datastore.get_dataset", a, b, replay);
          if (!graph.ok()) continue;
          auto request = cyclerank::BuildRequest(**graph, spec.params);
          a = NowNs();
          add("params.build_request", b, a, replay);
          const auto generation = store.DatasetCacheGeneration(spec.dataset);
          if (generation.has_value()) {
            const std::string key = cyclerank::TaskFingerprint(
                spec.dataset, *generation, spec.algorithm, spec.params);
            a = NowNs();
            auto cached = store.result_cache().Get(key);
            b = NowNs();
            if (cached.has_value()) add("cache.get", a, b, replay);
          }
          a = NowNs();
          const std::string blob = cyclerank::SerializeTaskResult(r);
          b = NowNs();
          add("result_io.encode", a, b, replay);
          encode += Us(b - a);
          bytes += static_cast<double>(blob.size());
        }
        spans[static_cast<size_t>(replay)].end_ns = NowNs();
        encode_us.push_back(encode);
        bytes_per_qs.push_back(bytes);
      }
    }
  }

  const auto cache2 = store.result_cache().stats();
  const auto graph_stats = store.graph_store().stats();
  const cyclerank::SpillTierStats spill =
      store.dataset_spill() ? store.dataset_spill()->stats()
                            : cyclerank::SpillTierStats{};
  const size_t stored = store.NumStoredResults();
  server.Shutdown();
  gateway.Shutdown();

  // Kernel sweep and parse timing, in this process on the workload's data.
  Report report;
  const size_t nproc = Nproc();
  cyclerank::GraphPtr kernel_graph = w.GraphOf(w.kernel_dataset);
  std::printf("kernel sweep on %s (%u nodes, %llu edges), reference %s\n",
              w.kernel_dataset.c_str(), kernel_graph ? kernel_graph->num_nodes() : 0,
              kernel_graph ? (unsigned long long)kernel_graph->num_edges() : 0ull,
              w.kernel_reference.c_str());
  std::vector<Metric> kernels;
  for (const char* algorithm : kKernelAlgorithms) {
    const double t1 = kernel_graph ? KernelMs(*kernel_graph, algorithm,
                                              w.kernel_reference, 1) : 0.0;
    const double tn = kernel_graph ? KernelMs(*kernel_graph, algorithm,
                                              w.kernel_reference,
                                              static_cast<uint32_t>(nproc)) : 0.0;
    kernels.push_back({std::string("core.kernel_ms.") + algorithm + ".t1", t1, "ms"});
    kernels.push_back({std::string("core.kernel_ms.") + algorithm + ".tn", tn, "ms"});
    kernels.push_back({std::string("core.kernel_speedup.") + algorithm,
                       tn > 0 ? t1 / tn : 0.0, "x"});
  }
  std::vector<double> parse_ms;
  double parse_bytes = 0.0, parse_total_ms = 0.0;
  for (size_t i = 0; i < w.uploads.size() && i < 8; ++i) {
    const int64_t a = NowNs();
    (void)cyclerank::ReadGraphFromString(w.uploads[i].text);
    const double ms = Ms(NowNs() - a);
    parse_ms.push_back(ms);
    parse_total_ms += ms;
    parse_bytes += static_cast<double>(w.uploads[i].text.size());
  }
  uint64_t uploaded_bytes = 0;
  for (size_t i = 0; i < progress.done.load(); ++i) {
    uploaded_bytes += w.uploads[i].text.size();
  }

  // Derived per-layer figures.
  const auto by = DurationsByName(spans);
  const std::vector<int64_t> self = SelfTimes(spans);
  double root_ns = 0.0, covered_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, "qs") != 0) continue;
    root_ns += static_cast<double>(spans[i].duration_ns());
    covered_ns += static_cast<double>(spans[i].duration_ns() - self[i]);
  }
  std::vector<double> lat_u = untraced.latency_ms, lat_t = traced.latency_ms;
  std::sort(lat_u.begin(), lat_u.end());
  std::sort(lat_t.begin(), lat_t.end());
  const double p50_u = lat_u.empty() ? 0.0 : Percentile(lat_u, 50);
  const double p50_t = lat_t.empty() ? 0.0 : Percentile(lat_t, 50);
  const uint64_t lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
  const uint64_t traced_qs = traced.succeeded + traced.failed;
  const uint64_t frames = (net1.frames_received - net0.frames_received) +
                          (net1.frames_sent - net0.frames_sent);
  uint64_t tasks_total = 0;
  for (const PhaseStats& p : phases) tasks_total += p.tasks;
  tasks_total += untraced.tasks + traced.tasks + probe.tasks + twin_tasks;
  std::vector<double> lag = traced.lag_ms;
  std::sort(lag.begin(), lag.end());

  std::printf("workload %s seed %llu (traced, in-process server)\n",
              args.workload.c_str(), (unsigned long long)args.seed);
  std::printf("request_stream_digest=%s\n", plan.digest.c_str());
  PrintLatency("untraced query-set latency", untraced.latency_ms);
  PrintLatency("traced query-set latency", traced.latency_ms);
  std::printf("cache lookups in the traced phase: %llu (hit ratio base)\n",
              (unsigned long long)lookups);

  report.Add("net.submit_rtt_us", MedianOf(by, "net.submit_rtt"), "us");
  report.Add("net.wait_rtt_us", MedianOf(by, "net.wait_rtt"), "us");
  report.Add("net.results_rtt_us", MedianOf(by, "net.results_rtt"), "us");
  report.Add("net.transport_us", Median(transport_us), "us");
  report.Add("net.frames_per_qs",
             traced_qs ? static_cast<double>(frames) / traced_qs : 0.0, "count");
  report.Add("net.upload_rtt_ms", Median(upload_ms), "ms");
  report.Add("gateway.submit_us", MedianOf(by, "gateway.submit"), "us");
  report.Add("gateway.wait_us", MedianOf(by, "gateway.wait"), "us");
  report.Add("gateway.results_us", MedianOf(by, "gateway.results"), "us");
  report.Add("cache.hit_ratio",
             lookups ? static_cast<double>(cache1.hits - cache0.hits) / lookups
                     : 0.0,
             "ratio");
  report.Add("cache.get_us", MedianOf(by, "cache.get"), "us");
  report.Add("cache.evictions", static_cast<double>(cache2.evictions), "count");
  report.Add("cache.invalidations", static_cast<double>(cache2.invalidations),
             "count");
  report.Add("result_store.entries_per_task",
             tasks_total ? static_cast<double>(stored) / tasks_total : 0.0,
             "ratio");
  report.Add("result_io.encode_us", Median(encode_us), "us");
  report.Add("result_io.bytes_per_qs", Median(bytes_per_qs), "B");
  report.Add("scheduler.queue_wait_ms", Median(traced.queue_wait_ms), "ms");
  const uint64_t traced_tasks = traced.tasks;
  const uint64_t resolved = (cache1.hits - cache0.hits) +
                            (cache1.insertions - cache0.insertions);
  report.Add("scheduler.coalesced_tasks",
             traced_tasks > resolved ? static_cast<double>(traced_tasks - resolved)
                                     : 0.0,
             "count");
  report.Add("scheduler.refused",
             static_cast<double>(untraced.refused + traced.refused), "count");
  report.Add("executor.task_ms", Median(traced.task_seconds) * 1e3, "ms");
  report.Add("params.build_request_us", MedianOf(by, "params.build_request"), "us");
  for (const Metric& m : kernels) report.Add(m.name, m.value, m.unit);
  report.Add("datastore.get_dataset_us", MedianOf(by, "datastore.get_dataset"), "us");
  report.Add("graph_store.hits", static_cast<double>(graph_stats.hits), "count");
  report.Add("graph_store.evictions", static_cast<double>(graph_stats.evictions),
             "count");
  report.Add("graph_store.reloads", static_cast<double>(graph_stats.reloads),
             "count");
  report.Add("spill.spills", static_cast<double>(spill.spills), "count");
  report.Add("spill.reloads", static_cast<double>(spill.reloads), "count");
  report.Add("spill.buffer_hits", static_cast<double>(spill.buffer_hits), "count");
  report.Add("spill.backpressure_waits",
             static_cast<double>(spill.backpressure_waits), "count");
  report.Add("spill.bytes_per_upload_byte",
             uploaded_bytes ? static_cast<double>(spill.bytes) / uploaded_bytes
                            : 0.0,
             "ratio");
  report.Add("graph.parse_ms", Median(parse_ms), "ms");
  report.Add("graph.parse_mb_per_s",
             parse_total_ms > 0 ? parse_bytes / 1e6 / (parse_total_ms / 1e3) : 0.0,
             "MB/s");
  report.Add("loadgen.lag_p99_ms", lag.empty() ? 0.0 : Percentile(lag, 99), "ms");
  report.Add("trace.overhead_frac", p50_u > 0 ? p50_t / p50_u - 1.0 : 0.0,
             "ratio");
  report.Add("trace.coverage_frac", root_ns > 0 ? covered_ns / root_ns : 0.0,
             "ratio");

  // Spans, kept in memory until now.
  const std::string path = args.workdir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".tsv";
  std::ofstream out(path);
  out << "index\tname\tstart_ns\tend_ns\tparent\trequest\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    out << i << '\t' << spans[i].name << '\t' << spans[i].start_ns << '\t'
        << spans[i].end_ns << '\t' << spans[i].parent << '\t'
        << spans[i].request << '\n';
  }
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());

  phases.push_back(std::move(untraced));
  phases.push_back(std::move(traced));
  phases.push_back(std::move(uploads));
  phases.push_back(std::move(probe));
  return Finish(plan, checker, phases, report);
}

int Usage() {
  std::fputs("usage: loadgen --workload <catalog-hot|upload-cold|upload-churn> "
             "--seed N --seconds S --trace <0|1> --daemon PATH --workdir DIR\n",
             stderr);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--daemon") args.daemon = value;
    else if (key == "--workdir") args.workdir = value;
    else return Usage();
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();
  std::signal(SIGPIPE, SIG_IGN);
  const int64_t start = NowNs();
  Plan plan = MakePlan(args);
  if (plan.workload == nullptr) return Usage();
  std::printf("inputs generated in %.3f s; host nproc=%zu\n",
              static_cast<double>(NowNs() - start) / 1e9, Nproc());
  std::filesystem::create_directories(args.workdir);
  if (!args.trace && args.daemon.empty()) return Usage();
  {
    CoreKeeper keeper;
    std::this_thread::sleep_for(std::chrono::duration<double>(kCpuWarmSeconds));
  }
  const int code = args.trace ? RunTraced(args, plan) : RunEndToEnd(args, plan);
  // Drop the spill tiers and flush the deletions now, so a run's disk
  // traffic does not spill into the next run's measurements.
  std::filesystem::remove_all(std::filesystem::path(args.workdir) / "spill");
  ::sync();
  return code;
}

}  // namespace
}  // namespace loadbench

int main(int argc, char** argv) { return loadbench::Main(argc, argv); }
