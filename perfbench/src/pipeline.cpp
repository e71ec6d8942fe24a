// Workload `pipeline`: the paper's offline pipeline on a planted partition.
//
// Per pass: walks -> CBOW -> k-means (pairwise F1 vs the planted groups)
// -> IVF build -> snapshot save + mmap open -> exact flat and IVF batch
// k-NN over a fixed vertex sample. Training dominates a pass, then batch
// k-NN, then k-means and the IVF build, so trainer, batch-scan and
// k-means engine changes show here. Serving is not exercised.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/embed/trainer.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/ivf_index.hpp"
#include "v2v/index/query_engine.hpp"
#include "v2v/ml/kmeans.hpp"
#include "v2v/ml/metrics.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/store/snapshot.hpp"
#include "v2v/walk/walker.hpp"

namespace perfbench {
namespace {

using v2v::index::Neighbor;

// Planted partition with 100 groups: sparse inside a group (alpha 0.1) but
// still far denser than between groups, the regime in which random-walk
// embeddings recover the communities.
constexpr std::size_t kGroups = 100;
constexpr std::size_t kGroupSize = 200;
constexpr double kAlpha = 0.1;
constexpr std::size_t kInterEdges = 20000;
constexpr std::size_t kWalksPerVertex = 10;
constexpr std::size_t kWalkLength = 16;
constexpr std::size_t kDims = 64;
constexpr std::size_t kEpochs = 2;
constexpr std::size_t kRestarts = 16;
constexpr std::size_t kQueries = 4096;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kNlist = 128;
constexpr std::size_t kNprobe = 8;
constexpr std::size_t kOracleQueriesPerPass = 64;
constexpr std::size_t kOpsPerPass = 8;  ///< walk, train, kmeans, ivf, save, open, 2 scans
/// Set-up is 7-10 ms of single-threaded graph generation whose speed
/// drifts between host states lasting about 100 ms. Repetitions spread over
/// the run, a few before the warm-up and a few after every timed pass, put
/// many of those states into the median; back to back they do not.
constexpr int kSetups = 5;
constexpr int kSetupsPerPass = 3;

struct Setup {
  v2v::graph::PlantedGraph planted;
  std::vector<std::uint32_t> sample;  ///< query vertex ids
  double graph_s = 0.0;
};

Setup make_setup(std::uint64_t seed) {
  Setup setup;
  const double t0 = now_s();
  v2v::Rng rng(seed);
  setup.planted = v2v::graph::make_planted_partition(
      {.groups = kGroups, .group_size = kGroupSize, .alpha = kAlpha,
       .inter_edges = kInterEdges},
      rng);
  setup.graph_s = now_s() - t0;
  const std::size_t n = setup.planted.graph.vertex_count();
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
  v2v::Rng pick(seed ^ 0x5157u);
  for (std::size_t i = 0; i < kQueries; ++i) {
    std::swap(ids[i], ids[i + pick.next_below(n - i)]);
  }
  setup.sample.assign(ids.begin(), ids.begin() + kQueries);
  return setup;
}

/// Scalar double-precision cosine distance, the oracle's own arithmetic.
double oracle_distance(const float* a, const float* b, std::size_t d) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    dot += static_cast<double>(a[j]) * static_cast<double>(b[j]);
    na += static_cast<double>(a[j]) * static_cast<double>(a[j]);
    nb += static_cast<double>(b[j]) * static_cast<double>(b[j]);
  }
  if (na == 0.0 || nb == 0.0) return 1.0;
  return 1.0 - dot / (std::sqrt(na) * std::sqrt(nb));
}

/// True when `got` is an exact top-k of `query` over `points`: the oracle's
/// k-th smallest distances match position by position within 1e-9, and
/// each returned id really lies at its reported distance. Ties may order
/// equal-distance ids either way.
bool matches_oracle(const v2v::MatrixF& points, std::span<const float> query,
                    const std::vector<Neighbor>& got, std::string& why) {
  const std::size_t n = points.rows(), d = points.cols();
  std::vector<double> dist(n);
  for (std::size_t r = 0; r < n; ++r) {
    dist[r] = oracle_distance(query.data(), points.row(r).data(), d);
  }
  std::vector<double> best(dist);
  std::partial_sort(best.begin(), best.begin() + kTopK, best.end());
  if (got.size() != kTopK) {
    why = "wrong answer count";
    return false;
  }
  for (std::size_t i = 0; i < kTopK; ++i) {
    const Neighbor& nb = got[i];
    if (nb.id >= n || std::abs(dist[nb.id] - nb.distance) > 1e-9 ||
        std::abs(best[i] - nb.distance) > 1e-9) {
      why = "rank " + std::to_string(i) + " id " + std::to_string(nb.id);
      return false;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (got[j].id == nb.id) {
        why = "duplicate id";
        return false;
      }
    }
  }
  return true;
}

struct PassResult {
  double total_s = 0.0;
  double f1 = 0.0;
  int root = -1;
};

class Pipeline {
 public:
  Pipeline(const Options& options, const Setup& setup, Report& report)
      : options_(options), setup_(setup), report_(report),
        snapshot_path_((std::filesystem::path(options.work_dir) /
                        "pipeline.v2v").string()) {}

  /// One pass; its outputs are checked (untimed) before it returns.
  PassResult run(Tracer& tracer, std::size_t pass) {
    const auto& g = setup_.planted.graph;
    const std::size_t n = g.vertex_count();
    v2v::obs::MetricsRegistry registry;
    const bool traced = tracer.enabled();
    PassResult result;
    // Each pass draws its walks, initial weights and k-means seeds afresh,
    // so the median over a run's passes averages over how many Lloyd
    // iterations those seeds happen to need instead of repeating one draw.
    const std::uint64_t seed = options_.seed * 1000003u + pass;
    const double start = now_s();
    result.root = tracer.begin("pipeline.pass", "bench");
    // Runs one call into a layer inside a span; traced passes keep its
    // duration under the span's name.
    const auto timed = [&](const char* name, const char* layer, auto&& call) {
      const int id = tracer.begin(name, layer, result.root);
      const double t = now_s();
      call();
      if (traced) span_s_[name].push_back(now_s() - t);
      tracer.end(id);
    };

    v2v::walk::Corpus corpus;
    timed("walk.generate_corpus", "walk", [&] {
      v2v::walk::WalkConfig config;
      config.walks_per_vertex = kWalksPerVertex;
      config.walk_length = kWalkLength;
      config.threads = kThreads;
      corpus = v2v::walk::generate_corpus(g, config, seed);
    });
    v2v::embed::TrainResult trained;
    timed("embed.train_embedding", "embed", [&] {
      v2v::embed::TrainConfig config;
      config.dimensions = kDims;
      config.epochs = kEpochs;
      config.min_epochs = kEpochs;
      config.threads = kThreads;
      config.seed = seed + 1;
      trained = v2v::embed::train_embedding(corpus, n, config);
    });
    const v2v::MatrixF& points = trained.embedding.matrix();
    v2v::ml::KMeansResult clusters;
    timed("ml.kmeans", "ml", [&] {
      v2v::ml::KMeansConfig config;
      config.k = kGroups;
      config.restarts = kRestarts;
      config.threads = kThreads;
      config.seed = seed + 2;
      config.metrics = traced ? &registry : nullptr;
      clusters = v2v::ml::kmeans(points, config);
    });
    timed("ml.pairwise_precision_recall", "ml", [&] {
      result.f1 = v2v::ml::pairwise_precision_recall(setup_.planted.community,
                                                     clusters.assignment)
                      .f1();
    });
    std::unique_ptr<v2v::index::IvfIndex> ivf;
    timed("index.ivf_build", "index", [&] {
      v2v::index::IvfConfig config;
      config.nlist = kNlist;
      config.nprobe = kNprobe;
      config.threads = kThreads;
      config.seed = seed + 3;
      ivf = std::make_unique<v2v::index::IvfIndex>(
          v2v::store::EmbeddingView::of(points),
          v2v::index::DistanceMetric::kCosine, config);
    });
    timed("store.save", "store", [&] {
      v2v::store::EmbeddingStore::save(trained.embedding, snapshot_path_);
    });
    std::optional<v2v::store::MappedEmbedding> mapped;
    timed("store.open", "store", [&] {
      mapped.emplace(v2v::store::MappedEmbedding::open(snapshot_path_));
    });
    v2v::MatrixF queries(kQueries, kDims);
    for (std::size_t q = 0; q < kQueries; ++q) {
      const auto row = mapped->row(setup_.sample[q]);
      std::copy(row.begin(), row.end(), queries.row(q).begin());
    }
    std::vector<std::vector<Neighbor>> exact, approx;
    timed("index.flat_query_batch", "index", [&] {
      const v2v::index::FlatIndex flat(mapped->view(),
                                       v2v::index::DistanceMetric::kCosine);
      const v2v::index::QueryEngine engine(flat, {.threads = kThreads});
      exact = engine.query_batch(queries, kTopK);
    });
    timed("index.ivf_query_batch", "index", [&] {
      const v2v::index::QueryEngine engine(*ivf, {.threads = kThreads});
      approx = engine.query_batch(queries, kTopK);
    });
    tracer.end(result.root);
    result.total_s = now_s() - start;

    if (traced) {
      const auto& s = trained.stats;
      tokens_ = static_cast<double>(corpus.token_count());
      words_per_s_.push_back(tokens_ * static_cast<double>(s.epochs_run) /
                             span_s_["embed.train_embedding"].back());
      final_loss_.push_back(s.epoch_loss.empty() ? 0.0 : s.epoch_loss.back());
      iterations_.push_back(static_cast<double>(clusters.iterations));
      dist_evals_.push_back(
          static_cast<double>(registry.counter("kmeans.dist_evals").value()));
      pruned_.push_back(registry.gauge("kmeans.pruned_fraction_overall").value());
      bytes_ = static_cast<double>(std::filesystem::file_size(snapshot_path_));
      recall_.push_back(recall_at_k(exact, approx));
    }
    check_outputs(trained.embedding, *mapped, clusters, exact, pass);
    return result;
  }

  void report_layers() {
    auto& m = report_.layer;
    const double walk_s = median(span_s_["walk.generate_corpus"]);
    m["walk.generate_s"] = {walk_s, "s"};
    m["walk.tokens_per_s"] = {walk_s > 0.0 ? tokens_ / walk_s : 0.0, "1/s"};
    m["embed.train_s"] = {median(span_s_["embed.train_embedding"]), "s"};
    m["embed.words_per_s"] = {median(words_per_s_), "1/s"};
    m["embed.final_loss"] = {median(final_loss_), "loss"};
    m["ml.kmeans_s"] = {median(span_s_["ml.kmeans"]), "s"};
    m["ml.kmeans_iterations"] = {median(iterations_), "count"};
    m["ml.kmeans_dist_evals"] = {median(dist_evals_), "count"};
    m["ml.kmeans_pruned_fraction"] = {median(pruned_), "ratio"};
    m["index.ivf_build_s"] = {median(span_s_["index.ivf_build"]), "s"};
    m["index.flat_batch_qps"] = {kQueries / median(span_s_["index.flat_query_batch"]), "1/s"};
    m["index.ivf_batch_qps"] = {kQueries / median(span_s_["index.ivf_query_batch"]), "1/s"};
    m["index.ivf_recall_at_10"] = {median(recall_), "ratio"};
    m["store.save_s"] = {median(span_s_["store.save"]), "s"};
    m["store.open_s"] = {median(span_s_["store.open"]), "s"};
    m["store.bytes"] = {bytes_, "B"};
  }

  void remove_files() const { std::filesystem::remove(snapshot_path_); }

 private:
  static double recall_at_k(const std::vector<std::vector<Neighbor>>& truth,
                            const std::vector<std::vector<Neighbor>>& got) {
    double hits = 0.0;
    for (std::size_t q = 0; q < truth.size(); ++q) {
      for (const Neighbor& a : got[q]) {
        for (const Neighbor& b : truth[q]) hits += a.id == b.id ? 1.0 : 0.0;
      }
    }
    return hits / static_cast<double>(truth.size() * kTopK);
  }

  void check_outputs(const v2v::embed::Embedding& embedding,
                     const v2v::store::MappedEmbedding& mapped,
                     const v2v::ml::KMeansResult& clusters,
                     std::vector<std::vector<Neighbor>>& exact, std::size_t pass) {
    report_.attempted += kOpsPerPass;
    const v2v::MatrixF& points = embedding.matrix();
    bool store_ok = mapped.rows() == points.rows() && mapped.dimensions() == kDims;
    for (std::size_t r = 0; store_ok && r < points.rows(); ++r) {
      store_ok = std::memcmp(mapped.row(r).data(), points.row(r).data(),
                             kDims * sizeof(float)) == 0;
    }
    if (!store_ok) {
      ++report_.failed;
      report_.fail("snapshot rows differ from the trained embedding");
    }
    if (clusters.assignment.size() != points.rows()) {
      ++report_.failed;
      report_.fail("k-means assignment has the wrong length");
    }
    // A rotating slice of the sample per pass keeps the scalar oracle
    // affordable while every pass is checked.
    const std::size_t first = pass * kOracleQueriesPerPass % kQueries;
    if (options_.corrupt) exact[first][0].id ^= 1u;
    for (std::size_t i = 0; i < kOracleQueriesPerPass; ++i) {
      const std::size_t q = (first + i) % kQueries;
      std::string why;
      if (!matches_oracle(points, points.row(setup_.sample[q]), exact[q], why)) {
        ++report_.failed;
        report_.fail("flat k-NN query " + std::to_string(q) + ": " + why);
        break;
      }
    }
  }

  const Options& options_;
  const Setup& setup_;
  Report& report_;
  std::string snapshot_path_;
  std::map<std::string, std::vector<double>> span_s_;  ///< by span name
  std::vector<double> words_per_s_, final_loss_, iterations_, dist_evals_, pruned_,
      recall_;
  double tokens_ = 0.0;
  double bytes_ = 0.0;
};

}  // namespace

Report run_pipeline(const Options& options) {
  Report report;
  std::vector<double> setup_s, graph_s;
  double t0 = now_s();
  const Setup setup = make_setup(options.seed);
  setup_s.push_back(now_s() - t0);
  graph_s.push_back(setup.graph_s);
  // Each repetition frees its graph before the next starts, so all of
  // them allocate from the same heap state.
  const auto repeat_setup = [&] {
    const double start = now_s();
    const Setup again = make_setup(options.seed);
    setup_s.push_back(now_s() - start);
    graph_s.push_back(again.graph_s);
  };
  for (int i = 1; i < (options.probe ? 1 : kSetups); ++i) repeat_setup();
  std::printf("pipeline: %zu vertices, %zu edges, %zu queries\n",
              setup.planted.graph.vertex_count(), setup.planted.graph.edge_count(),
              kQueries);

  Pipeline pipeline(options, setup, report);
  Tracer tracer(false);
  (void)pipeline.run(tracer, 0);  // warm-up, untimed
  if (options.probe) {
    pipeline.remove_files();
    return report;
  }

  const HostWindow host;
  t0 = now_s();
  std::vector<double> pass_ms, traced_ms, untraced_ms, f1;
  std::vector<std::map<std::string, double>> pass_self;
  for (std::size_t pass = 1; pass_ms.size() < 3 || now_s() - t0 < options.seconds;
       ++pass) {
    // The traced run alternates traced and untraced passes; the difference
    // of their medians is the tracing overhead.
    tracer.set_enabled(options.trace && pass % 2 == 1);
    const PassResult r = pipeline.run(tracer, pass);
    pass_ms.push_back(1e3 * r.total_s);
    f1.push_back(r.f1);
    if (tracer.enabled()) {
      traced_ms.push_back(1e3 * r.total_s);
      pass_self.push_back(tracer.self_seconds(r.root));
    } else {
      untraced_ms.push_back(1e3 * r.total_s);
    }
    std::printf("pass %zu: %.1f ms, F1 %.4f%s\n", pass, 1e3 * r.total_s, r.f1,
                tracer.enabled() ? " (traced)" : "");
    std::fflush(stdout);
    for (int i = 0; i < kSetupsPerPass; ++i) repeat_setup();
  }
  const double wall = now_s() - t0;
  host.finish(report);
  pipeline.remove_files();

  const double latency_ms = median(untraced_ms.empty() ? pass_ms : untraced_ms);
  auto& e = report.e2e;
  e["setup_s"] = {median(setup_s), "s"};
  e["latency_ms"] = {latency_ms, "ms"};
  e["quality"] = {median(f1), "ratio"};
  const double error_rate =
      static_cast<double>(report.failed) / static_cast<double>(report.attempted);
  e["success_rate"] = {1.0 - error_rate, "ratio"};

  if (options.trace) {
    pipeline.report_layers();
    auto& m = report.layer;
    m["graph.generate_s"] = {median(graph_s), "s"};
    m["error_rate"] = {error_rate, "ratio"};
    report_trace(report, pass_self, traced_ms, untraced_ms);
    tracer.write_json(
        (std::filesystem::path(options.work_dir) / "trace-pipeline.json").string());
  }
  std::printf("pipeline: %zu timed passes in %.1f s; set-up median %.2f ms over %zu "
              "(min %.2f, max %.2f)\n",
              pass_ms.size(), wall, 1e3 * median(setup_s), setup_s.size(),
              1e3 * *std::min_element(setup_s.begin(), setup_s.end()),
              1e3 * *std::max_element(setup_s.begin(), setup_s.end()));
  return report;
}

}  // namespace perfbench
