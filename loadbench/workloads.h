// The three workloads of the cyclerankd load benchmark. Each turns a seed
// into everything the generator will send — upload texts, warm-up query
// sets and the query-set stream — before any daemon starts, so the daemon
// only ever sees generated inputs and one seed always offers one load.
#ifndef LOADBENCH_WORKLOADS_H_
#define LOADBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "harness.h"
#include "platform/task.h"

namespace loadbench {

struct UploadInput {
  std::string name;
  std::string text;  ///< edgelist, as a user would upload it
};

/// One query set of a stream. `needs_upload` names the upload (index into
/// `Workload::uploads`) that must be live before it is sent, or -1.
struct Draw {
  cyclerank::QuerySet query_set;
  int64_t needs_upload = -1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The named workload with inputs generated from `seed`; `stream_seconds`
  /// sizes how many streamed uploads it pre-generates. Null for an unknown
  /// name.
  static std::unique_ptr<Workload> Create(const std::string& name,
                                          uint64_t seed,
                                          double stream_seconds);

  /// PlatformOptions text for the daemon, without `listen_port` and
  /// `spill_dir` (the runner adds those).
  std::string options;
  bool spill = false;         ///< runs with a fresh `spill_dir`
  double rate_qps = 0.0;      ///< open-loop query sets per second
  double upload_rate = 0.0;   ///< open-loop uploads per second
  /// Share of the run's seconds given to a closed-loop capacity phase
  /// (0 = none; the fixed-rate phase then takes the whole run).
  double capacity_share = 0.0;
  /// Upper bound on closed-loop capacity, used to pre-generate enough
  /// distinct query sets for the capacity phase.
  double capacity_bound_qps = 0.0;
  std::vector<UploadInput> uploads;  ///< [0, setup_uploads) at setup
  size_t setup_uploads = 0;
  /// Graphs uploaded back to back, a share after each set-up, and never
  /// queried: the upload latency of workloads that stream no uploads
  /// (uploading during their fixed-rate phase would put upload stalls
  /// into their query tail).
  std::vector<UploadInput> probe_uploads;
  /// Where the kernel sweep of the traced run runs.
  std::string kernel_dataset;
  std::string kernel_reference;

  /// Query sets sent once during set-up, after the set-up uploads.
  virtual std::vector<cyclerank::QuerySet> WarmUp(Rng& rng) = 0;

  /// The next query set of the stream. `live_uploads` is how many uploads
  /// are due far enough in the past to be queried.
  virtual Draw Next(Rng& rng, size_t live_uploads) = 0;

  /// The graph a dataset name denotes — a catalog graph or the parse of an
  /// upload text — built in this process the way the daemon builds it.
  cyclerank::GraphPtr GraphOf(const std::string& dataset);

 protected:
  /// Parses `upload`, remembers the graph under its name, and returns up to
  /// `max_refs` labels of nodes on a 2-cycle (so every personalized
  /// ranking, CycleRank included, is non-empty).
  std::vector<std::string> AddUpload(UploadInput upload, Rng& rng,
                                     size_t max_refs);

  static constexpr size_t kProbeUploads = 60;

  /// Fills `probe_uploads` with 3000-node Barabási–Albert graphs: big
  /// enough that parsing, not thread wake-ups, dominates the round trip,
  /// and of one kind, so upload times have one mode (see UploadChurn).
  void AddProbeUploads(const std::string& prefix, Rng& rng);

  std::map<std::string, cyclerank::GraphPtr> graphs_;
};

/// Labels of up to `max_refs` nodes of `g` that lie on a 2-cycle, in a
/// seeded order. Labels that do not survive `ParamMap` text (a comma,
/// semicolon or '=' in them) are skipped: such a label cannot travel as a
/// `source=` parameter over CYRQ1.
std::vector<std::string> CycleReferences(const cyclerank::Graph& g, Rng& rng,
                                         size_t max_refs);

}  // namespace loadbench

#endif  // LOADBENCH_WORKLOADS_H_
