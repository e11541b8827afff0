#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "datasets/catalog.h"
#include "datasets/generators.h"
#include "graph/io.h"

namespace loadbench {

using cyclerank::Graph;
using cyclerank::GraphPtr;
using cyclerank::NodeId;
using cyclerank::ParamMap;
using cyclerank::QuerySet;
using cyclerank::TaskSpec;

namespace {

/// The demo's seven algorithms; the personalized ones and CycleRank take
/// `source=`.
const char* const kDemoAlgorithms[] = {
    "pagerank", "pers_pagerank", "cheirank",  "pers_cheirank",
    "2drank",   "pers_2drank",   "cyclerank",
};

bool TakesSource(const std::string& algorithm) {
  return algorithm.rfind("pers_", 0) == 0 || algorithm == "cyclerank" ||
         algorithm == "ppr_push";
}

TaskSpec Task(const std::string& dataset, const std::string& algorithm,
              const std::string& source, const std::string& extra = "") {
  TaskSpec spec;
  spec.dataset = dataset;
  spec.algorithm = algorithm;
  if (!source.empty()) spec.params.Set("source", source);
  if (algorithm == "cyclerank") spec.params.Set("k", "3");
  if (!extra.empty()) {
    auto parsed = ParamMap::Parse(extra);
    for (const std::string& key : parsed->Keys()) {
      spec.params.Set(key, *parsed->Get(key));
    }
  }
  return spec;
}

/// `count` distinct picks from [0, n), in draw order.
std::vector<size_t> Distinct(Rng& rng, size_t n, size_t count) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  for (size_t i = 0; i < count && i < n; ++i) {
    std::swap(all[i], all[i + rng.Below(n - i)]);
  }
  all.resize(std::min(count, n));
  return all;
}

std::string EdgeListText(const Graph& g) {
  auto text = cyclerank::WriteGraphToString(g, cyclerank::GraphFormat::kEdgeList);
  return text.ok() ? std::move(text).value() : std::string();
}

UploadInput GeneratedUpload(const std::string& name, bool wiki, NodeId nodes,
                            uint64_t seed) {
  cyclerank::Result<Graph> g = Graph();
  if (wiki) {
    cyclerank::WikiLikeConfig config;
    config.cluster_size = 100;
    config.num_clusters = std::max<uint32_t>(1, nodes / config.cluster_size);
    config.num_hubs = 4 + config.num_clusters / 10;
    config.seed = seed;
    g = cyclerank::GenerateWikiLike(config);
  } else {
    cyclerank::BarabasiAlbertConfig config;
    config.num_nodes = nodes;
    config.edges_per_node = 5;
    config.reciprocity = 0.3;
    config.seed = seed;
    g = cyclerank::GenerateBarabasiAlbert(config);
  }
  return {name, g.ok() ? EdgeListText(*g) : std::string()};
}

// --------------------------------------------------------- catalog-hot --
// Zipf draws over a fixed pool of algorithm- and dataset-comparison query
// sets on the built-in catalog (plus a few small user uploads made at
// set-up), so after warm-up nearly every task is a ResultCache hit.
class CatalogHot : public Workload {
 public:
  static constexpr size_t kPoolSize = 512;
  static constexpr size_t kTasks = 4;  ///< per query set, both kinds
  static constexpr size_t kUploads = 4;

  explicit CatalogHot(uint64_t seed) {
    rate_qps = 300.0;
    Rng rng(seed);
    for (size_t i = 0; i < kUploads; ++i) {
      const std::string name = "user-" + std::to_string(seed) + "-" +
                               std::to_string(i);
      AddDataset(AddUpload(GeneratedUpload(name, i % 2 == 1, 1000, rng.Next()),
                           rng, 32),
                 name);
    }
    setup_uploads = uploads.size();
    AddProbeUploads("user-" + std::to_string(seed) + "-", rng);
    auto& catalog = cyclerank::DatasetCatalog::BuiltIn();
    size_t largest = 0;
    for (const auto& info : catalog.List()) {
      auto g = catalog.Load(info.name);
      if (!g.ok() || (*g)->num_nodes() > 1500) continue;
      graphs_[info.name] = *g;
      auto refs = CycleReferences(**g, rng, 32);
      if (refs.empty()) continue;
      if ((*g)->num_nodes() > largest) {
        largest = (*g)->num_nodes();
        kernel_dataset = info.name;
        kernel_reference = refs.front();
      }
      AddDataset(std::move(refs), info.name);
    }
    // Pool position sets popularity, and positions map to datasets and
    // algorithms in a fixed rotation: the seed draws references, companion
    // algorithms and arrivals, not whether the most requested query sets
    // land on large or small graphs (with random datasets, seeds differed
    // by 15% in median latency while reruns of one seed agreed within 2%).
    for (size_t i = 0; i < kPoolSize; ++i) {
      pool_.push_back(i % 2 == 0 ? AlgorithmComparison(i / 2, rng)
                                 : DatasetComparison(i / 2, rng));
    }
    // s = 0.4: popular query sets repeat, yet no handful of them (and
    // their ranking sizes) decides a run's latency or memory.
    zipf_ = std::make_unique<Zipf>(pool_.size(), 0.4);
  }

  std::vector<QuerySet> WarmUp(Rng&) override { return pool_; }

  Draw Next(Rng& rng, size_t) override {
    return {pool_[zipf_->Draw(rng)], -1};
  }

 private:
  void AddDataset(std::vector<std::string> refs, const std::string& name) {
    if (refs.empty()) return;
    names_.push_back(name);
    refs_.push_back(std::move(refs));
  }

  std::string RefOf(size_t dataset, Rng& rng) const {
    return refs_[dataset][rng.Below(refs_[dataset].size())];
  }

  /// The `slot`-th dataset of the rotation and a reference node, CycleRank
  /// against three others.
  QuerySet AlgorithmComparison(size_t slot, Rng& rng) const {
    const size_t d = slot % names_.size();
    const std::string ref = RefOf(d, rng);
    QuerySet qs;
    qs.tasks.push_back(Task(names_[d], "cyclerank", ref));
    for (size_t a : Distinct(rng, 6, kTasks - 1)) {
      const std::string algorithm = kDemoAlgorithms[a];
      qs.tasks.push_back(
          Task(names_[d], algorithm, TakesSource(algorithm) ? ref : ""));
    }
    return qs;
  }

  /// The `slot`-th algorithm of the rotation across the next four datasets
  /// of the rotation, each with its own reference.
  QuerySet DatasetComparison(size_t slot, Rng& rng) const {
    const std::string algorithm = kDemoAlgorithms[slot % 7];
    QuerySet qs;
    for (size_t k = 0; k < kTasks; ++k) {
      const size_t d = (slot * kTasks + k) % names_.size();
      qs.tasks.push_back(Task(names_[d], algorithm,
                              TakesSource(algorithm) ? RefOf(d, rng) : ""));
    }
    return qs;
  }

  std::vector<std::string> names_;
  std::vector<std::vector<std::string>> refs_;
  std::vector<QuerySet> pool_;
  std::unique_ptr<Zipf> zipf_;
};

// --------------------------------------------------------- upload-cold --
// Two generated graphs of tens of thousands of nodes uploaded at set-up;
// every later query set has a fresh reference node, so no task ever hits
// the cache and the kernels, scheduler and executors do the work.
class UploadCold : public Workload {
 public:
  static constexpr NodeId kNodes = 12000;
  static constexpr const char* kMix[] = {"pagerank", "pers_pagerank",
                                         "pers_cheirank", "cyclerank",
                                         "ppr_push"};

  explicit UploadCold(uint64_t seed) {
    rate_qps = 70.0;
    capacity_share = 0.4;
    capacity_bound_qps = 1000.0;
    Rng rng(seed);
    for (int i = 0; i < 2; ++i) {
      const std::string name = std::string(i == 0 ? "cold-ba-" : "cold-wiki-") +
                               std::to_string(seed);
      refs_.push_back(AddUpload(GeneratedUpload(name, i == 1, kNodes, rng.Next()),
                                rng, kNodes));
      names_.push_back(name);
    }
    setup_uploads = uploads.size();
    AddProbeUploads("cold-user-" + std::to_string(seed) + "-", rng);
    kernel_dataset = names_[0];
    kernel_reference = refs_[0].front();
    next_ref_.assign(names_.size(), 0);
  }

  /// PageRank and personalized PageRank on each graph: power iterations
  /// whose cost does not hinge on the reference node drawn, so set-up time
  /// does not either (one hub-rooted CycleRank would double it).
  std::vector<QuerySet> WarmUp(Rng&) override {
    std::vector<QuerySet> sets;
    for (size_t i = 0; i < 8; ++i) {
      const size_t g = i % names_.size();
      const std::string& ref = refs_[g][next_ref_[g]++ % refs_[g].size()];
      QuerySet qs;
      for (const char* algorithm : {"pagerank", "pers_pagerank"}) {
        qs.tasks.push_back(Task(names_[g], algorithm, ref, "top_k=100"));
      }
      sets.push_back(std::move(qs));
    }
    return sets;
  }

  /// Two of the mix on one graph, sharing a reference node never used
  /// before in this run (wrapping only past 10k query sets per graph).
  Draw Next(Rng& rng, size_t) override {
    const size_t g = rng.Below(names_.size());
    const std::string& ref = refs_[g][next_ref_[g]++ % refs_[g].size()];
    QuerySet qs;
    for (size_t a : Distinct(rng, std::size(kMix), 2)) {
      qs.tasks.push_back(Task(names_[g], kMix[a], ref, "top_k=100"));
    }
    return {std::move(qs), -1};
  }

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<std::string>> refs_;
  std::vector<size_t> next_ref_;
};

// -------------------------------------------------------- upload-churn --
// A stream of fresh mid-sized graphs under fresh names into a graph store
// smaller than the working set (spilling to disk), with queries Zipf by
// recency over the recent uploads.
class UploadChurn : public Workload {
 public:
  static constexpr size_t kSetupUploads = 6;
  static constexpr size_t kRecencyWindow = 24;
  static constexpr size_t kRefsPerGraph = 2;
  static constexpr size_t kResidentGraphs = 6;
  static constexpr const char* kMix[] = {"pers_pagerank", "ppr_push",
                                         "cyclerank", "pagerank"};

  explicit UploadChurn(uint64_t seed, double stream_seconds) {
    rate_qps = 150.0;
    upload_rate = 6.0;
    spill = true;
    Rng rng(seed);
    const size_t total =
        kSetupUploads +
        static_cast<size_t>(std::ceil(upload_rate * stream_seconds)) + 4;
    size_t graph_bytes = 0;
    // All Barabási–Albert: alternating with wiki-like graphs (2.3x the
    // edges) made upload times bimodal, and their median fell in the gap
    // between the two modes, where it swung by a quarter from run to run.
    for (size_t i = 0; i < total; ++i) {
      const std::string name =
          "churn-" + std::to_string(seed) + "-" + std::to_string(i);
      refs_.push_back(AddUpload(GeneratedUpload(name, false, 3000, rng.Next()),
                                rng, kRefsPerGraph));
      graph_bytes += graphs_[name]->MemoryBytes();
    }
    setup_uploads = kSetupUploads;
    kernel_dataset = uploads[0].name;
    kernel_reference = refs_[0].front();
    options = "graph_store_bytes=" +
              std::to_string(graph_bytes / total * kResidentGraphs);
    zipf_ = std::make_unique<Zipf>(kRecencyWindow, 1.0);
  }

  /// PageRank and personalized PageRank on each set-up upload, for the
  /// same reason as upload-cold's warm-up.
  std::vector<QuerySet> WarmUp(Rng&) override {
    std::vector<QuerySet> sets;
    for (size_t u = 0; u < kSetupUploads; ++u) {
      QuerySet qs;
      for (const char* algorithm : {"pagerank", "pers_pagerank"}) {
        qs.tasks.push_back(Task(uploads[u].name, algorithm, refs_[u][0]));
      }
      sets.push_back(std::move(qs));
    }
    return sets;
  }

  /// Two tasks on one recently uploaded graph.
  Draw Next(Rng& rng, size_t live_uploads) override {
    const size_t live = std::clamp<size_t>(live_uploads, 1, uploads.size());
    const size_t recency = std::min(zipf_->Draw(rng), live - 1);
    const size_t u = live - 1 - recency;
    QuerySet qs;
    for (size_t a : Distinct(rng, std::size(kMix), 2)) {
      qs.tasks.push_back(Task(uploads[u].name, kMix[a],
                              refs_[u][rng.Below(refs_[u].size())]));
    }
    return {std::move(qs), static_cast<int64_t>(u)};
  }

 private:
  std::vector<std::vector<std::string>> refs_;
  std::unique_ptr<Zipf> zipf_;
};

}  // namespace

std::vector<std::string> CycleReferences(const Graph& g, Rng& rng,
                                         size_t max_refs) {
  std::vector<NodeId> on_cycle;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      if (v != u && g.HasEdge(v, u)) {
        on_cycle.push_back(u);
        break;
      }
    }
  }
  std::vector<std::string> labels;
  for (size_t i : Distinct(rng, on_cycle.size(), on_cycle.size())) {
    if (labels.size() == max_refs) break;
    std::string label = g.NodeName(on_cycle[i]);
    auto parsed = ParamMap::Parse("source=" + label);
    if (parsed.ok() && parsed->Get("source") == label) {
      labels.push_back(std::move(label));
    }
  }
  return labels;
}

std::vector<std::string> Workload::AddUpload(UploadInput upload, Rng& rng,
                                             size_t max_refs) {
  auto parsed = cyclerank::ReadGraphFromString(upload.text);
  std::vector<std::string> refs;
  if (parsed.ok()) {
    auto g = std::make_shared<const Graph>(std::move(parsed).value());
    refs = CycleReferences(*g, rng, max_refs);
    graphs_[upload.name] = std::move(g);
  }
  uploads.push_back(std::move(upload));
  return refs;
}

void Workload::AddProbeUploads(const std::string& prefix, Rng& rng) {
  for (size_t i = 0; i < kProbeUploads; ++i) {
    probe_uploads.push_back(GeneratedUpload(prefix + "p" + std::to_string(i),
                                            false, 3000, rng.Next()));
  }
}

GraphPtr Workload::GraphOf(const std::string& dataset) {
  auto it = graphs_.find(dataset);
  if (it != graphs_.end()) return it->second;
  auto loaded = cyclerank::DatasetCatalog::BuiltIn().Load(dataset);
  if (!loaded.ok()) return nullptr;
  graphs_[dataset] = *loaded;
  return *loaded;
}

std::unique_ptr<Workload> Workload::Create(const std::string& name,
                                           uint64_t seed,
                                           double stream_seconds) {
  if (name == "catalog-hot") return std::make_unique<CatalogHot>(seed);
  if (name == "upload-cold") return std::make_unique<UploadCold>(seed);
  if (name == "upload-churn") {
    return std::make_unique<UploadChurn>(seed, stream_seconds);
  }
  return nullptr;
}

}  // namespace loadbench
