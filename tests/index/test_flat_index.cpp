// FlatIndex is the exactness oracle: these tests pin it against an
// independent naive scan under both metrics, and check the deterministic
// (distance, id) ordering contract.
#include "v2v/index/flat_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

#include "v2v/common/rng.hpp"
#include "v2v/common/vec_math.hpp"
#include "v2v/store/snapshot.hpp"

namespace v2v::index {
namespace {

MatrixF random_points(std::size_t n, std::size_t d, std::uint64_t seed) {
  MatrixF points(n, d);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) {
      points(i, c) = static_cast<float>(rng.next_gaussian());
    }
  }
  return points;
}

std::vector<Neighbor> naive_search(const MatrixF& points,
                                   std::span<const float> query, std::size_t k,
                                   DistanceMetric metric) {
  std::vector<Neighbor> all;
  for (std::size_t i = 0; i < points.rows(); ++i) {
    const std::span<const float> row(points.row(i));
    const double d = metric == DistanceMetric::kCosine
                         ? cosine_distance(query, row)
                         : squared_distance(query, row);
    all.push_back({static_cast<std::uint32_t>(i), d});
  }
  std::sort(all.begin(), all.end(), neighbor_less);
  all.resize(std::min(k, all.size()));
  return all;
}

TEST(FlatIndex, MatchesNaiveScanBothMetrics) {
  const MatrixF points = random_points(80, 7, 21);
  for (const auto metric : {DistanceMetric::kCosine, DistanceMetric::kEuclidean}) {
    const FlatIndex flat(store::EmbeddingView::of(points), metric);
    Rng rng(99);
    for (int q = 0; q < 25; ++q) {
      std::vector<float> query(7);
      for (auto& x : query) x = static_cast<float>(rng.next_gaussian());
      const auto got = flat.search(query, 10);
      const auto want = naive_search(points, query, 10, metric);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << "metric " << static_cast<int>(metric)
                                         << " query " << q << " rank " << i;
        EXPECT_DOUBLE_EQ(got[i].distance, want[i].distance);
      }
    }
  }
}

TEST(FlatIndex, MatchesFullSortOnExactTiesAcrossDimsAndK) {
  // Rows 40..79 duplicate rows 0..39, so every query meets exact
  // (distance, id) ties; the dims cover each kernel-parity tail.
  constexpr std::size_t kRows = 80;
  for (const std::size_t d : {1, 7, 8, 100, 128, 129}) {
    MatrixF points = random_points(kRows, d, 50 + d);
    for (std::size_t r = kRows / 2; r < kRows; ++r) {
      const auto src = points.row(r - kRows / 2);
      std::copy(src.begin(), src.end(), points.row(r).begin());
    }
    for (const auto metric :
         {DistanceMetric::kCosine, DistanceMetric::kEuclidean}) {
      const FlatIndex flat(store::EmbeddingView::of(points), metric);
      Rng rng(d);
      for (int q = 0; q < 4; ++q) {
        // Half the queries sit on a stored row: distance-0 ties first.
        std::vector<float> query(d);
        if (q % 2 == 0) {
          const auto row = points.row(rng.next_below(kRows));
          query.assign(row.begin(), row.end());
        } else {
          for (auto& x : query) x = static_cast<float>(rng.next_gaussian());
        }
        for (const std::size_t k : {std::size_t{1}, std::size_t{10}, kRows,
                                    kRows + 5}) {
          const auto got = flat.search(query, k);
          const auto want = naive_search(points, query, k, metric);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].id, want[i].id)
                << "d=" << d << " metric " << static_cast<int>(metric)
                << " k=" << k << " rank " << i;
            EXPECT_EQ(std::memcmp(&got[i].distance, &want[i].distance,
                                  sizeof(double)),
                      0)
                << "d=" << d << " k=" << k << " rank " << i;
          }
        }
      }
    }
  }
}

TEST(FlatIndex, TiesBreakTowardSmallerId) {
  MatrixF points(3, 1);
  points(0, 0) = 2.0f;
  points(1, 0) = 2.0f;  // same distance as row 0
  points(2, 0) = 5.0f;
  const FlatIndex flat(store::EmbeddingView::of(points), DistanceMetric::kEuclidean);
  const auto out = flat.search(std::vector<float>{0.0f}, 3);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 0u);
  EXPECT_EQ(out[1].id, 1u);
  EXPECT_EQ(out[2].id, 2u);
}

TEST(FlatIndex, ClampsKAndHandlesZeroK) {
  const MatrixF points = random_points(5, 3, 4);
  const FlatIndex flat(store::EmbeddingView::of(points));
  EXPECT_EQ(flat.search(std::vector<float>(3, 1.0f), 50).size(), 5u);
  EXPECT_TRUE(flat.search(std::vector<float>(3, 1.0f), 0).empty());
}

TEST(FlatIndex, ZeroVectorsAreMaximallyDistantUnderCosine) {
  MatrixF points(2, 2);
  points(0, 0) = 1.0f;  // unit x
  // row 1 is all zeros
  const FlatIndex flat(store::EmbeddingView::of(points), DistanceMetric::kCosine);
  const auto out = flat.search(std::vector<float>{1.0f, 0.0f}, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 0u);
  EXPECT_DOUBLE_EQ(out[0].distance, 0.0);
  EXPECT_EQ(out[1].id, 1u);
  EXPECT_DOUBLE_EQ(out[1].distance, 1.0);  // vec_math zero-vector convention

  // A zero query is likewise distance 1 from everything.
  const auto zq = flat.search(std::vector<float>{0.0f, 0.0f}, 2);
  EXPECT_DOUBLE_EQ(zq[0].distance, 1.0);
  EXPECT_DOUBLE_EQ(zq[1].distance, 1.0);
}

TEST(FlatIndex, ServesMappedSnapshotIdentically) {
  const MatrixF points = random_points(24, 9, 31);
  const auto path = (std::filesystem::temp_directory_path() /
                     "v2v_flat_over_snapshot.v2vsnap")
                        .string();
  store::EmbeddingStore::save(embed::Embedding(points), path);
  const auto mapped = store::MappedEmbedding::open(path);

  const FlatIndex from_memory(store::EmbeddingView::of(points));
  const FlatIndex from_snapshot(mapped.view());
  Rng rng(7);
  std::vector<float> query(9);
  for (auto& x : query) x = static_cast<float>(rng.next_gaussian());
  const auto a = from_memory.search(query, 8);
  const auto b = from_snapshot.search(query, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].distance, b[i].distance);
  }
  std::filesystem::remove(path);
}

TEST(FlatIndex, WarmRowsCoversRange) {
  const MatrixF points = random_points(10, 4, 77);
  const FlatIndex flat(store::EmbeddingView::of(points));
  // warm_rows returns a data-dependent sum; non-empty gaussian rows make
  // it almost surely nonzero, and a [0, 0) range must read nothing.
  EXPECT_NE(flat.warm_rows(0, 10), 0.0);
  EXPECT_EQ(flat.warm_rows(3, 3), 0.0);
}

}  // namespace
}  // namespace v2v::index
