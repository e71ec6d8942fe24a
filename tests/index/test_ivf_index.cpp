// IvfIndex behaviour: recall against the FlatIndex oracle on planted
// clusters, the nprobe knob, list bookkeeping, and build-time metrics;
// IvfCore's snapshot payload round trip and its rejection of bad ones.
#include "v2v/index/ivf_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/ivf_core.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/store/snapshot.hpp"

namespace v2v::index {
namespace {

/// Well-separated gaussian blobs: cluster centers on distinct coordinate
/// axes at radius 10, points jittered by sigma 0.3 — an easy planted
/// structure the coarse quantizer should recover almost perfectly.
MatrixF planted_clusters(std::size_t n, std::size_t d, std::size_t clusters,
                         std::uint64_t seed) {
  MatrixF points(n, d);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % clusters;
    for (std::size_t j = 0; j < d; ++j) {
      const double center = (j == c % d) ? 10.0 : 0.0;
      points(i, j) = static_cast<float>(center + 0.3 * rng.next_gaussian());
    }
  }
  return points;
}

double recall_against(const FlatIndex& oracle, const IvfIndex& ivf,
                      const MatrixF& queries, std::size_t k) {
  double hit = 0.0, total = 0.0;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto truth = oracle.search(queries.row(q), k);
    const auto got = ivf.search(queries.row(q), k);
    for (const auto& t : truth) {
      total += 1.0;
      hit += std::any_of(got.begin(), got.end(),
                         [&](const Neighbor& g) { return g.id == t.id; })
                 ? 1.0
                 : 0.0;
    }
  }
  return total > 0.0 ? hit / total : 1.0;
}

MatrixF sample_queries(const MatrixF& points, std::size_t count, std::uint64_t seed) {
  MatrixF queries(count, points.cols());
  Rng rng(seed);
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t src = rng.next_below(points.rows());
    for (std::size_t j = 0; j < points.cols(); ++j) {
      queries(q, j) = points(src, j) + static_cast<float>(0.1 * rng.next_gaussian());
    }
  }
  return queries;
}

TEST(IvfIndex, FullProbeRecallFloorOnPlantedClusters) {
  const MatrixF points = planted_clusters(2000, 16, 8, 1);
  const auto view = store::EmbeddingView::of(points);
  for (const auto metric : {DistanceMetric::kEuclidean, DistanceMetric::kCosine}) {
    const FlatIndex oracle(view, metric);
    IvfConfig config;
    config.nlist = 16;
    config.nprobe = 16;  // every list probed: recall should be ~exact
    const IvfIndex ivf(view, metric, config);
    const MatrixF queries = sample_queries(points, 50, 2);
    EXPECT_GE(recall_against(oracle, ivf, queries, 10), 0.95)
        << "metric " << static_cast<int>(metric);
  }
}

TEST(IvfIndex, RecallGrowsWithNprobe) {
  const MatrixF points = planted_clusters(2000, 16, 8, 3);
  const auto view = store::EmbeddingView::of(points);
  const FlatIndex oracle(view, DistanceMetric::kEuclidean);
  IvfConfig config;
  config.nlist = 32;
  config.nprobe = 1;
  IvfIndex ivf(view, DistanceMetric::kEuclidean, config);
  const MatrixF queries = sample_queries(points, 40, 4);

  const double narrow = recall_against(oracle, ivf, queries, 10);
  ivf.set_nprobe(32);
  EXPECT_EQ(ivf.nprobe(), 32u);
  const double full = recall_against(oracle, ivf, queries, 10);
  EXPECT_GE(full, narrow);
  EXPECT_GE(full, 0.95);
}

TEST(IvfIndex, ListsPartitionAllRows) {
  const MatrixF points = planted_clusters(500, 8, 5, 5);
  const IvfIndex ivf(store::EmbeddingView::of(points), DistanceMetric::kEuclidean,
                     {.nlist = 10});
  std::size_t total = 0;
  for (std::size_t l = 0; l < ivf.nlist(); ++l) total += ivf.list_size(l);
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(ivf.size(), 500u);
  EXPECT_EQ(ivf.dimensions(), 8u);
}

TEST(IvfIndex, FullProbeReturnsEveryIdOnceForLargeK) {
  const MatrixF points = planted_clusters(120, 6, 4, 7);
  IvfConfig config;
  config.nlist = 6;
  config.nprobe = 6;
  const IvfIndex ivf(store::EmbeddingView::of(points), DistanceMetric::kEuclidean,
                     config);
  const auto out = ivf.search(points.row(0), 500);
  ASSERT_EQ(out.size(), 120u);  // k clamps to rows when every list is probed
  std::vector<bool> seen(120, false);
  for (const auto& n : out) {
    ASSERT_LT(n.id, 120u);
    EXPECT_FALSE(seen[n.id]) << "id " << n.id << " returned twice";
    seen[n.id] = true;
  }
}

TEST(IvfIndex, DeterministicForFixedSeed) {
  const MatrixF points = planted_clusters(400, 8, 4, 9);
  const auto view = store::EmbeddingView::of(points);
  IvfConfig config;
  config.nlist = 8;
  config.seed = 42;
  const IvfIndex a(view, DistanceMetric::kEuclidean, config);
  config.threads = 4;  // build parallelism must not change the index
  const IvfIndex b(view, DistanceMetric::kEuclidean, config);
  const auto ra = a.search(points.row(3), 10);
  const auto rb = b.search(points.row(3), 10);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, rb[i].id);
    EXPECT_DOUBLE_EQ(ra[i].distance, rb[i].distance);
  }
}

TEST(IvfIndex, EmptyDataThrows) {
  const MatrixF empty(0, 4);
  EXPECT_THROW(
      IvfIndex(store::EmbeddingView::of(empty), DistanceMetric::kEuclidean, {}),
      std::invalid_argument);
}

TEST(IvfIndex, RecordsBuildMetrics) {
  obs::MetricsRegistry metrics;
  const MatrixF points = planted_clusters(300, 8, 3, 11);
  IvfConfig config;
  config.nlist = 6;
  config.metrics = &metrics;
  const IvfIndex ivf(store::EmbeddingView::of(points), DistanceMetric::kEuclidean,
                     config);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.gauges.at("ivf.nlist"), 6.0);
  EXPECT_EQ(snap.counters.at("ivf.rows"), 300u);
  EXPECT_GE(snap.gauges.at("ivf.build_seconds"), 0.0);
  EXPECT_EQ(snap.histograms.at("ivf.list_size").count, 6u);
}

TEST(IvfCore, PayloadsRoundTripAndBadOnesAreRejected) {
  const MatrixF points = planted_clusters(400, 8, 4, 13);
  IvfCore built;
  IvfConfig config;
  config.nlist = 5;
  (void)built.build(points, config);
  const auto centroids = built.centroid_bytes();
  const auto ids = built.id_bytes();
  const auto offsets = built.offset_bytes();

  IvfCore loaded;
  loaded.load(centroids, ids, offsets, 5, 400, 8);
  EXPECT_TRUE(std::ranges::equal(loaded.ids(), built.ids()));
  EXPECT_TRUE(std::ranges::equal(loaded.list_offsets(), built.list_offsets()));
  EXPECT_EQ(loaded.centroid_bytes(), centroids);

  const auto rejects = [&](const std::vector<std::uint8_t>& c,
                           const std::vector<std::uint8_t>& i,
                           const std::vector<std::uint8_t>& o) {
    IvfCore core;
    try {
      core.load(c, i, o, 5, 400, 8);
    } catch (const store::SnapshotError& e) {
      return e.code() == store::SnapshotErrorCode::kBadHeader;
    }
    return false;
  };
  EXPECT_TRUE(rejects({centroids.begin(), centroids.end() - 4}, ids, offsets));
  EXPECT_TRUE(rejects(centroids, {ids.begin(), ids.end() - 4}, offsets));
  EXPECT_TRUE(rejects(centroids, ids, {offsets.begin(), offsets.end() - 8}));

  auto bad_id = ids;
  const std::uint32_t past_end = 400;  // the first id that is not a row
  std::memcpy(bad_id.data() + 8, &past_end, sizeof(past_end));
  EXPECT_TRUE(rejects(centroids, bad_id, offsets));

  auto unsorted = offsets;
  const std::uint64_t too_far = 401;
  std::memcpy(unsorted.data() + 8, &too_far, sizeof(too_far));
  EXPECT_TRUE(rejects(centroids, ids, unsorted));
}

}  // namespace
}  // namespace v2v::index
