// Workload `refresh`: the dynamic-graph path.
//
// Set-up bootstraps a RefreshSession on a planted partition. Each round
// applies a small churn batch confined to two groups, refreshes (dirty
// walk regeneration + warm-resumed training) and publishes a v3 snapshot
// with trainer state. Rounds run in fixed episodes that each start from
// the bootstrapped session (see kEpisodeRounds). Warm-resume training is
// most of a round, walk regeneration a small share, and the publish is
// the store's write path, so refresh-only and publish-path changes show
// here and scan changes must not.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/dynamic/refresh.hpp"
#include "v2v/graph/generators.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/query_engine.hpp"
#include "v2v/store/format.hpp"
#include "v2v/store/trainer_state.hpp"

namespace perfbench {
namespace {

using v2v::dynamic::EdgeDelta;
using v2v::graph::VertexId;

constexpr std::size_t kGroups = 50;
constexpr std::size_t kGroupSize = 100;
constexpr double kAlpha = 0.2;
constexpr std::size_t kInterEdges = 2000;
constexpr std::size_t kWalksPerVertex = 10;
constexpr std::size_t kWalkLength = 40;
constexpr std::size_t kDims = 64;
constexpr std::size_t kBootstrapEpochs = 5;
constexpr std::size_t kRefreshEpochs = 2;
/// With the default step size (RefreshTuning::initial_lr 0, as `v2v_tool
/// refresh` runs) each refresh continues the checkpoint's decayed rate. It
/// falls 1e4-fold per round until it underflows to 0, and the next round
/// starts over at the trainer's initial rate. From a bootstrap that cycle
/// is 11 rounds; the 9th and 10th train on denormal floats, about 3.5x
/// slower. An episode restores the bootstrapped session and runs one whole
/// cycle, so every commit runs the same rounds on the same graphs, however
/// fast it is, and the slow rounds count at their real share.
constexpr std::size_t kEpisodeRounds = 11;
constexpr std::size_t kChurn = 24;  ///< deltas per round
constexpr std::size_t kTopK = 10;
constexpr std::size_t kOpsPerRound = 3;  ///< apply, refresh, publish
constexpr int kSetups = 3;

/// The planted partition as a DynamicGraph, edges inserted in CSR order.
v2v::dynamic::DynamicGraph make_graph(std::uint64_t seed) {
  v2v::Rng rng(seed);
  const auto planted = v2v::graph::make_planted_partition(
      {.groups = kGroups, .group_size = kGroupSize, .alpha = kAlpha,
       .inter_edges = kInterEdges},
      rng);
  const auto& g = planted.graph;
  v2v::dynamic::DynamicGraph dyn(false);
  dyn.reserve_vertices(g.vertex_count());
  for (VertexId u = 0; u < g.vertex_count(); ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (u < v) dyn.add_edge(u, v);
    }
  }
  return dyn;
}

v2v::walk::WalkConfig walk_config() {
  v2v::walk::WalkConfig walk;
  walk.walks_per_vertex = kWalksPerVertex;
  walk.walk_length = kWalkLength;
  walk.threads = kThreads;
  return walk;
}

v2v::embed::TrainConfig train_config() {
  v2v::embed::TrainConfig train;
  train.dimensions = kDims;
  train.epochs = kBootstrapEpochs;
  train.min_epochs = kBootstrapEpochs;
  train.threads = kThreads;
  return train;
}

v2v::dynamic::RefreshTuning tuning() {
  v2v::dynamic::RefreshTuning tuning;
  tuning.epochs = kRefreshEpochs;
  return tuning;
}

/// Churn confined to two groups: intra-group inserts and removes plus a
/// few edges between the two groups.
std::vector<EdgeDelta> churn_round(v2v::Rng& rng) {
  const auto a = rng.next_below(kGroups);
  const auto b = (a + 1 + rng.next_below(kGroups - 1)) % kGroups;
  const auto member = [&](std::uint64_t group) {
    return static_cast<VertexId>(group * kGroupSize + rng.next_below(kGroupSize));
  };
  std::vector<EdgeDelta> deltas;
  for (std::size_t i = 0; i < kChurn; ++i) {
    EdgeDelta d;
    const auto group = i % 2 == 0 ? a : b;
    d.u = member(group);
    d.v = i % 4 == 3 ? member(group == a ? b : a) : member(group);
    if (d.u == d.v) {
      d.v = static_cast<VertexId>(group * kGroupSize + (d.v + 1) % kGroupSize);
    }
    d.op = i % 3 == 2 ? EdgeDelta::Op::kRemove : EdgeDelta::Op::kInsert;
    deltas.push_back(d);
  }
  return deltas;
}

bool same_bits(const v2v::MatrixF& a, const v2v::MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.row(r).data(), b.row(r).data(), a.cols() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Re-opens a published snapshot and checks that the embedding rows and
/// the trainer checkpoint round-trip bit for bit.
bool check_published(const std::string& path, const v2v::embed::Embedding& embedding,
                     const v2v::embed::TrainerCheckpoint& checkpoint,
                     bool corrupt, std::string& why) {
  const auto snap = v2v::store::MappedSnapshot::open(path);
  if (!v2v::store::has_trainer_state(snap)) {
    why = "no trainer state";
    return false;
  }
  const auto view = snap.float_view();
  for (std::size_t r = 0; r < embedding.vertex_count(); ++r) {
    if (view.rows() != embedding.vertex_count() ||
        std::memcmp(view.row(r).data(), embedding.vector(r).data(),
                    kDims * sizeof(float)) != 0) {
      why = "embedding row " + std::to_string(r);
      return false;
    }
  }
  auto loaded = v2v::store::load_trainer_state(snap);
  if (corrupt) loaded.tokens_processed += 1;
  const bool ok = same_bits(loaded.syn1, checkpoint.syn1) &&
                  loaded.frequencies == checkpoint.frequencies &&
                  loaded.tokens_processed == checkpoint.tokens_processed &&
                  loaded.planned_tokens == checkpoint.planned_tokens &&
                  loaded.last_lr == checkpoint.last_lr &&
                  loaded.walk_seed == checkpoint.walk_seed &&
                  loaded.refresh_rounds == checkpoint.refresh_rounds &&
                  loaded.dimensions == checkpoint.dimensions;
  if (!ok) why = "trainer checkpoint differs after load_trainer_state";
  return ok;
}

/// Mean over vertices of |top-k(a) ∩ top-k(b)| / k, cosine, self excluded.
double overlap_at_k(const v2v::embed::Embedding& a, const v2v::embed::Embedding& b) {
  const auto knn = [](const v2v::embed::Embedding& e) {
    const v2v::index::FlatIndex flat(v2v::store::EmbeddingView::of(e));
    const v2v::index::QueryEngine engine(flat, {.threads = kThreads});
    return engine.query_batch(e.matrix(), kTopK + 1);
  };
  const auto na = knn(a), nb = knn(b);
  double total = 0.0;
  for (std::size_t v = 0; v < na.size(); ++v) {
    std::vector<std::uint32_t> sa, sb;
    for (const auto& n : na[v]) if (n.id != v && sa.size() < kTopK) sa.push_back(n.id);
    for (const auto& n : nb[v]) if (n.id != v && sb.size() < kTopK) sb.push_back(n.id);
    std::size_t hits = 0;
    for (const auto id : sb) hits += std::count(sa.begin(), sa.end(), id);
    total += static_cast<double>(hits) / kTopK;
  }
  return total / static_cast<double>(na.size());
}

struct RoundResult {
  double total_s = 0.0;
  int root = -1;
  v2v::dynamic::RefreshStats stats;
};

}  // namespace

Report run_refresh(const Options& options) {
  Report report;
  const std::string path =
      (std::filesystem::path(options.work_dir) / "refresh.v2v").string();

  std::vector<double> setup_s, graph_s, bootstrap_s;
  std::unique_ptr<v2v::dynamic::RefreshSession> session;
  for (int i = 0; i < (options.probe ? 1 : kSetups); ++i) {
    session.reset();
    const double t0 = now_s();
    auto graph = make_graph(options.seed);
    const double t1 = now_s();
    session = std::make_unique<v2v::dynamic::RefreshSession>(
        std::move(graph), walk_config(), train_config(), tuning(), options.seed);
    const double t2 = now_s();
    setup_s.push_back(t2 - t0);
    graph_s.push_back(t1 - t0);
    bootstrap_s.push_back(t2 - t1);
  }
  std::printf("refresh: %zu vertices, %zu edges, corpus %zu tokens\n",
              session->graph().vertex_count(), session->graph().edge_count(),
              session->corpus().token_count());

  // What every episode starts from.
  const v2v::embed::Embedding base_embedding = session->embedding();
  const v2v::embed::TrainerCheckpoint base_checkpoint = session->checkpoint();

  Tracer tracer(false);
  v2v::Rng churn_rng(options.seed ^ 0xc4u);
  std::vector<double> apply_s, regen_s, resume_s, publish_s, reused, regenerated;
  double publish_bytes = 0.0;

  const auto round = [&](std::size_t index) {
    RoundResult r;
    const auto deltas = churn_round(churn_rng);
    const bool traced = tracer.enabled();
    const double start = now_s();
    r.root = tracer.begin("refresh.round", "bench");
    {
      ScopedSpan span(tracer, "dynamic.apply", "dynamic", r.root);
      const double t = now_s();
      (void)session->apply(std::span<const EdgeDelta>(deltas));
      if (traced) apply_s.push_back(now_s() - t);
    }
    v2v::dynamic::RefreshStats& stats = r.stats;
    {
      ScopedSpan span(tracer, "dynamic.refresh", "dynamic", r.root);
      const double t = now_s();
      stats = session->refresh();
      // The walk regeneration and resumed training run inside refresh();
      // their spans come from the session's own timings.
      tracer.add("walk.regenerate", "walk", t, t + stats.walk_seconds, span.id());
      tracer.add("embed.train_embedding_resume", "embed", t + stats.walk_seconds,
                 t + stats.walk_seconds + stats.train_seconds, span.id());
    }
    {
      ScopedSpan span(tracer, "store.publish", "store", r.root);
      const double t = now_s();
      const auto& e = session->embedding();
      v2v::store::SnapshotBuilder builder(e.vertex_count(), e.dimensions());
      builder.set_float_matrix(v2v::store::EmbeddingView::of(e));
      v2v::store::add_trainer_state(builder, session->checkpoint());
      builder.write(path);
      if (traced) publish_s.push_back(now_s() - t);
    }
    tracer.end(r.root);
    r.total_s = now_s() - start;

    if (traced) {
      regen_s.push_back(stats.walk_seconds);
      resume_s.push_back(stats.train_seconds);
      const double starts =
          static_cast<double>(stats.reused_starts + stats.regenerated_starts);
      reused.push_back(starts > 0.0 ? static_cast<double>(stats.reused_starts) / starts
                                    : 0.0);
      regenerated.push_back(static_cast<double>(stats.regenerated_starts));
      publish_bytes = static_cast<double>(std::filesystem::file_size(path));
    }
    report.attempted += kOpsPerRound;
    std::string why;
    if (!check_published(path, session->embedding(), session->checkpoint(),
                         options.corrupt && index == 1, why)) {
      ++report.failed;
      report.fail("round " + std::to_string(index) + ": " + why);
    }
    return r;
  };

  (void)round(0);  // warm-up, untimed
  if (options.probe) {
    std::filesystem::remove(path);
    return report;
  }

  // Episodes run while the next one fits in --seconds; at least one, and
  // in the traced run one traced and one untraced. Each episode's latency
  // is its mean round.
  const HostWindow host;
  const double t0 = now_s();
  std::vector<double> episode_s, traced_ms, untraced_ms;
  std::vector<std::map<std::string, double>> episode_self;
  std::size_t index = 0;
  for (std::size_t episode = 0;; ++episode) {
    const bool enough = options.trace ? !traced_ms.empty() && !untraced_ms.empty()
                                      : !untraced_ms.empty();
    if (enough && now_s() - t0 + mean(episode_s) > options.seconds) break;
    const double restore_start = now_s();
    session.reset();
    session = std::make_unique<v2v::dynamic::RefreshSession>(
        make_graph(options.seed), base_embedding, base_checkpoint, walk_config(),
        train_config(), tuning());
    churn_rng = v2v::Rng(options.seed ^ 0xc4u);
    const double restore_s = now_s() - restore_start;

    tracer.set_enabled(options.trace && episode % 2 == 0);
    double total_s = 0.0;
    std::map<std::string, double> self;
    for (std::size_t r = 0; r < kEpisodeRounds; ++r) {
      const RoundResult result = round(++index);
      total_s += result.total_s;
      if (tracer.enabled()) {
        for (const auto& [layer, seconds] : tracer.self_seconds(result.root)) {
          self[layer] += seconds / kEpisodeRounds;
        }
      }
      std::printf("round %zu: %.1f ms (walks %.1f ms, training %.1f ms, %zu starts "
                  "regenerated)%s\n",
                  index, 1e3 * result.total_s, 1e3 * result.stats.walk_seconds,
                  1e3 * result.stats.train_seconds, result.stats.regenerated_starts,
                  tracer.enabled() ? " (traced)" : "");
      std::fflush(stdout);
    }
    episode_s.push_back(total_s);
    const double mean_ms = 1e3 * total_s / kEpisodeRounds;
    if (tracer.enabled()) {
      traced_ms.push_back(mean_ms);
      episode_self.push_back(self);
    } else {
      untraced_ms.push_back(mean_ms);
    }
    std::printf("episode %zu: mean round %.1f ms (session restored in %.1f ms)%s\n",
                episode + 1, mean_ms, 1e3 * restore_s, tracer.enabled() ? " (traced)" : "");
  }
  host.finish(report);

  // Quality: the refreshed embedding's neighbourhoods against a full
  // retrain on the same churned graph (untimed). Every episode ends in the
  // same state, so this is the state after round kEpisodeRounds on every
  // commit.
  const v2v::embed::Embedding refreshed = session->embedding();
  (void)session->full_retrain();
  const double quality = overlap_at_k(refreshed, session->embedding());
  std::filesystem::remove(path);

  const double latency_ms = median(untraced_ms);
  auto& e = report.e2e;
  e["setup_s"] = {median(setup_s), "s"};
  e["latency_ms"] = {latency_ms, "ms"};
  e["quality"] = {quality, "ratio"};
  const double error_rate =
      static_cast<double>(report.failed) / static_cast<double>(report.attempted);
  e["success_rate"] = {1.0 - error_rate, "ratio"};

  if (options.trace) {
    auto& m = report.layer;
    m["graph.generate_s"] = {median(graph_s), "s"};
    m["embed.bootstrap_s"] = {median(bootstrap_s), "s"};
    m["walk.regen_s"] = {mean(regen_s), "s"};
    m["embed.resume_s"] = {mean(resume_s), "s"};
    m["dynamic.apply_s"] = {mean(apply_s), "s"};
    m["dynamic.reused_fraction"] = {median(reused), "ratio"};
    m["dynamic.regenerated_starts"] = {median(regenerated), "count"};
    m["store.publish_s"] = {mean(publish_s), "s"};
    m["store.publish_bytes"] = {publish_bytes, "B"};
    m["error_rate"] = {error_rate, "ratio"};
    report_trace(report, episode_self, traced_ms, untraced_ms);
    tracer.write_json(
        (std::filesystem::path(options.work_dir) / "trace-refresh.json").string());
  }
  std::printf("refresh: %zu episodes of %zu rounds, overlap@10 vs full retrain %.4f\n",
              episode_s.size(), kEpisodeRounds, quality);
  return report;
}

}  // namespace perfbench
