// Quantized index family: recall floors against the FlatIndex oracle on
// planted clusters (SQ8, IVF-PQ, IVF-PQ + exact rerank), byte-identical
// builds across thread counts, snapshot round-trips with bit-equal codes
// and search results, and the runtime nprobe/rerank knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "v2v/common/kernels.hpp"
#include "v2v/common/rng.hpp"
#include "v2v/common/vec_math.hpp"
#include "v2v/index/flat_index.hpp"
#include "v2v/index/ivf_core.hpp"
#include "v2v/index/ivf_index.hpp"
#include "v2v/index/ivfpq_index.hpp"
#include "v2v/index/quantizer.hpp"
#include "v2v/index/sq_index.hpp"
#include "v2v/store/snapshot.hpp"

namespace v2v::index {
namespace {

namespace fs = std::filesystem;

/// Gaussian blobs on distinct coordinate axes. `sigma` 0.3 matches the
/// IvfIndex fixture; the SQ8 cases use 1.0 so neighbor-distance gaps sit
/// above 8-bit quantization noise (with sigma 0.3 the normalized
/// same-cluster gaps are ~1e-4, below any scalar quantizer's resolution —
/// that regime is what the rerank stage exists for).
MatrixF planted_clusters(std::size_t n, std::size_t d, std::size_t clusters,
                         std::uint64_t seed, double sigma = 0.3) {
  MatrixF points(n, d);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % clusters;
    for (std::size_t j = 0; j < d; ++j) {
      const double center = (j == c % d) ? 10.0 : 0.0;
      points(i, j) = static_cast<float>(center + sigma * rng.next_gaussian());
    }
  }
  return points;
}

MatrixF sample_queries(const MatrixF& points, std::size_t count,
                       std::uint64_t seed) {
  MatrixF queries(count, points.cols());
  Rng rng(seed);
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t src = rng.next_below(points.rows());
    for (std::size_t j = 0; j < points.cols(); ++j) {
      queries(q, j) =
          points(src, j) + static_cast<float>(0.1 * rng.next_gaussian());
    }
  }
  return queries;
}

double recall_against(const FlatIndex& oracle, const VectorIndex& approx,
                      const MatrixF& queries, std::size_t k) {
  double hit = 0.0, total = 0.0;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto truth = oracle.search(queries.row(q), k);
    const auto got = approx.search(queries.row(q), k);
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

class QuantIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("v2v_quant_index_test_" + std::to_string(::getpid()) + "_" +
            info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

TEST(QuantIndex, Sq8RecallFloorOnPlantedClusters) {
  const MatrixF points = planted_clusters(2000, 16, 8, 1, 1.0);
  const MatrixF queries = sample_queries(points, 40, 2);
  for (const auto metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean}) {
    const FlatIndex oracle(store::EmbeddingView::of(points), metric);
    const SqIndex sq(store::EmbeddingView::of(points), metric, {.threads = 2});
    EXPECT_GE(recall_against(oracle, sq, queries, 10), 0.9)
        << "metric=" << static_cast<int>(metric);
  }
}

TEST(QuantIndex, IvfPqRecallFloorOnPlantedClusters) {
  const MatrixF points = planted_clusters(2000, 16, 8, 3);
  const MatrixF queries = sample_queries(points, 40, 4);
  for (const auto metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean}) {
    const FlatIndex oracle(store::EmbeddingView::of(points), metric);
    IvfPqConfig config;
    config.nlist = 16;
    config.nprobe = 16;  // full probe: only PQ error left
    config.m = 8;
    config.threads = 2;
    config.seed = 7;
    const IvfPqIndex ivfpq(store::EmbeddingView::of(points), metric, config);
    EXPECT_GE(recall_against(oracle, ivfpq, queries, 10), 0.9)
        << "metric=" << static_cast<int>(metric);
  }
}

TEST(QuantIndex, IvfPqRerankLiftsRecall) {
  const MatrixF points = planted_clusters(2000, 16, 8, 5);
  const MatrixF queries = sample_queries(points, 40, 6);
  const FlatIndex oracle(store::EmbeddingView::of(points),
                         DistanceMetric::kCosine);
  IvfPqConfig config;
  config.nlist = 16;
  config.nprobe = 8;
  config.m = 4;  // coarse enough that plain ADC ordering is imperfect
  config.threads = 2;
  config.seed = 9;
  IvfPqIndex ivfpq(store::EmbeddingView::of(points), DistanceMetric::kCosine,
                   config);
  const double plain = recall_against(oracle, ivfpq, queries, 10);
  ivfpq.set_rerank(100);
  const double reranked = recall_against(oracle, ivfpq, queries, 10);
  EXPECT_GE(reranked, 0.9);
  EXPECT_GE(reranked + 1e-12, plain)
      << "rerank must never lose recall at equal candidate depth";
}

TEST(QuantIndex, RerankedDistancesMatchOracleBitForBit) {
  const MatrixF points = planted_clusters(600, 12, 6, 11);
  const MatrixF queries = sample_queries(points, 10, 12);
  for (const auto metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean}) {
    const FlatIndex oracle(store::EmbeddingView::of(points), metric);
    SqIndex sq(store::EmbeddingView::of(points), metric, {.threads = 1});
    sq.set_rerank(points.rows());  // rerank the full candidate set
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      const auto truth = oracle.search(queries.row(q), 5);
      const auto got = sq.search(queries.row(q), 5);
      ASSERT_EQ(truth.size(), got.size());
      for (std::size_t i = 0; i < truth.size(); ++i) {
        EXPECT_EQ(truth[i].id, got[i].id) << "q=" << q << " i=" << i;
        EXPECT_EQ(truth[i].distance, got[i].distance) << "q=" << q;
      }
    }
  }
}

/// The full-sort reference for every selection: all candidates, sorted by
/// (distance, id), cut to the best `k`.
std::vector<Neighbor> full_sort_top(std::vector<Neighbor> all, std::size_t k) {
  std::sort(all.begin(), all.end(), neighbor_less);
  all.resize(std::min(k, all.size()));
  return all;
}

/// Re-scores `cand` with the exact float formulas, then full-sorts to k.
std::vector<Neighbor> exact_top(const MatrixF& points,
                                std::span<const float> query,
                                std::vector<Neighbor> cand, std::size_t k,
                                DistanceMetric metric) {
  for (auto& c : cand) {
    const std::span<const float> row(points.row(c.id));
    c.distance = metric == DistanceMetric::kCosine
                     ? cosine_distance(query, row)
                     : squared_distance(query, row);
  }
  return full_sort_top(std::move(cand), k);
}

void expect_same_bits(const std::vector<Neighbor>& got,
                      const std::vector<Neighbor>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].distance, &want[i].distance, sizeof(double)),
              0)
        << what << " rank " << i;
  }
}

TEST(QuantIndex, FullProbeAndRerankMatchFullSortReference) {
  // Duplicated rows put exact (distance, id) ties into every candidate list.
  MatrixF points = planted_clusters(400, 12, 6, 17, 1.0);
  for (std::size_t r = 300; r < 400; ++r) {
    const auto src = points.row(r - 300);
    std::copy(src.begin(), src.end(), points.row(r).begin());
  }
  const MatrixF queries = sample_queries(points, 6, 18);
  const auto view = store::EmbeddingView::of(points);
  const std::size_t n = points.rows();
  const std::size_t dims = points.cols();
  for (const auto metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean}) {
    const bool cosine = metric == DistanceMetric::kCosine;
    const MatrixF normalized = normalized_rows(view, metric, 1);
    IvfConfig coarse;
    coarse.nlist = 8;
    coarse.nprobe = 8;  // full probe: every row is a candidate
    coarse.seed = 5;
    const IvfIndex ivf(view, metric, coarse);
    SqIndex sq(view, metric, {.threads = 1});
    IvfPqConfig pq_config;
    pq_config.nlist = coarse.nlist;
    pq_config.nprobe = coarse.nprobe;
    pq_config.seed = coarse.seed;
    pq_config.m = 4;
    IvfPqIndex ivfpq(view, metric, pq_config);
    const auto& books = ivfpq.codebooks();

    for (std::size_t q = 0; q < queries.rows(); ++q) {
      const auto query = queries.row(q);
      const float* qp = normalized_query(query, metric);
      const std::vector<float> qn(qp, qp + dims);

      std::vector<Neighbor> ivf_all, sq_all, pq_all;
      for (std::size_t r = 0; r < n; ++r) {
        const float* row = normalized.row(r).data();
        ivf_all.push_back({static_cast<std::uint32_t>(r),
                           cosine ? 1.0 - kernels::ddot(qn.data(), row, dims)
                                  : kernels::sqdist(qn.data(), row, dims)});
        const std::uint8_t* code = sq.packed_codes().data() + r * dims;
        const auto& quant = sq.quantizer();
        sq_all.push_back(
            {static_cast<std::uint32_t>(r),
             cosine ? 1.0 - static_cast<double>(kernels::sq8_dot(
                                qn.data(), code, quant.vmin.data(),
                                quant.scale.data(), dims))
                    : static_cast<double>(kernels::sq8_sqdist(
                          qn.data(), code, quant.vmin.data(),
                          quant.scale.data(), dims))});
      }
      std::vector<float> resq(dims);
      std::vector<float> lut(books.m * kernels::kPqLutStride);
      for (std::size_t list = 0; list < ivfpq.nlist(); ++list) {
        std::copy(qn.begin(), qn.end(), resq.begin());
        kernels::axpy(-1.0f, ivfpq.core().centroid(list).data(), resq.data(),
                      dims);
        books.build_lut(resq.data(), lut.data());
        for (std::size_t slot = ivfpq.list_offsets()[list];
             slot < ivfpq.list_offsets()[list + 1]; ++slot) {
          const double adc = static_cast<double>(kernels::pq_adc(
              lut.data(), ivfpq.packed_codes().data() + slot * books.m,
              books.m));
          pq_all.push_back({ivfpq.ids()[slot], cosine ? 0.5 * adc : adc});
        }
      }

      for (const std::size_t k : {std::size_t{1}, std::size_t{10}, n}) {
        const std::string at = "metric=" + std::to_string(cosine) +
                               " q=" + std::to_string(q) +
                               " k=" + std::to_string(k);
        expect_same_bits(ivf.search(query, k), full_sort_top(ivf_all, k),
                         "ivf " + at);
        sq.set_rerank(0);
        ivfpq.set_rerank(0);
        expect_same_bits(sq.search(query, k), full_sort_top(sq_all, k),
                         "sq8 " + at);
        expect_same_bits(ivfpq.search(query, k), full_sort_top(pq_all, k),
                         "ivfpq " + at);
        // Rerank deeper than k: exact scores over the quantized top-R.
        const std::size_t depth = std::min(k + 25, n);
        sq.set_rerank(depth);
        ivfpq.set_rerank(depth);
        expect_same_bits(
            sq.search(query, k),
            exact_top(points, query, full_sort_top(sq_all, depth), k, metric),
            "sq8 rerank " + at);
        expect_same_bits(
            ivfpq.search(query, k),
            exact_top(points, query, full_sort_top(pq_all, depth), k, metric),
            "ivfpq rerank " + at);
      }
    }
  }
}

TEST(QuantIndex, BuildIsByteIdenticalAcrossThreadCounts) {
  const MatrixF points = planted_clusters(1500, 20, 8, 13);
  IvfPqConfig base;
  base.nlist = 12;
  base.m = 5;  // unequal subspace split on 20 dims
  base.seed = 21;

  IvfPqConfig c1 = base;
  c1.threads = 1;
  const IvfPqIndex one(store::EmbeddingView::of(points),
                       DistanceMetric::kCosine, c1);
  for (const std::size_t threads : {2UL, 3UL, 8UL}) {
    IvfPqConfig cn = base;
    cn.threads = threads;
    const IvfPqIndex many(store::EmbeddingView::of(points),
                          DistanceMetric::kCosine, cn);
    const auto a = one.packed_codes();
    const auto b = many.packed_codes();
    ASSERT_EQ(a.size(), b.size()) << threads;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0)
        << "codes diverge at threads=" << threads;
    ASSERT_EQ(one.ids().size(), many.ids().size());
    EXPECT_EQ(std::memcmp(one.ids().data(), many.ids().data(),
                          one.ids().size() * sizeof(std::uint32_t)),
              0)
        << "ids diverge at threads=" << threads;
    EXPECT_TRUE(std::equal(one.list_offsets().begin(),
                           one.list_offsets().end(),
                           many.list_offsets().begin()))
        << "list offsets diverge at threads=" << threads;
  }

  const SqIndex sq1(store::EmbeddingView::of(points), DistanceMetric::kCosine,
                    {.threads = 1});
  const SqIndex sq8(store::EmbeddingView::of(points), DistanceMetric::kCosine,
                    {.threads = 8});
  const auto a = sq1.packed_codes();
  const auto b = sq8.packed_codes();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
}

TEST_F(QuantIndexTest, Sq8SnapshotRoundTripIsBitExact) {
  const MatrixF points = planted_clusters(800, 24, 6, 15);
  const MatrixF queries = sample_queries(points, 20, 16);
  const SqIndex built(store::EmbeddingView::of(points),
                      DistanceMetric::kCosine, {.threads = 2});

  store::SnapshotBuilder builder(points.rows(), points.cols());
  built.save_sections(builder);
  const auto p = path("sq8.v2vsnap");
  builder.write(p);

  const auto snap = store::MappedSnapshot::open(p);
  EXPECT_FALSE(snap.has_floats());
  const auto loaded = SqIndex::from_snapshot(snap);
  EXPECT_EQ(loaded->metric(), DistanceMetric::kCosine);

  const auto a = built.packed_codes();
  const auto b = loaded->packed_codes();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);

  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto x = built.search(queries.row(q), 10);
    const auto y = loaded->search(queries.row(q), 10);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].id, y[i].id) << "q=" << q;
      EXPECT_EQ(x[i].distance, y[i].distance) << "q=" << q;
    }
  }
}

TEST_F(QuantIndexTest, IvfPqSnapshotRoundTripIsBitExact) {
  const MatrixF points = planted_clusters(1000, 16, 8, 17);
  const MatrixF queries = sample_queries(points, 20, 18);
  IvfPqConfig config;
  config.nlist = 10;
  config.nprobe = 4;
  config.m = 8;
  config.threads = 2;
  config.seed = 23;
  const IvfPqIndex built(store::EmbeddingView::of(points),
                         DistanceMetric::kEuclidean, config);

  // With floats: rerank survives the round trip.
  store::SnapshotBuilder builder(points.rows(), points.cols());
  builder.set_float_matrix(store::EmbeddingView::of(points));
  built.save_sections(builder);
  const auto p = path("ivfpq.v2vsnap");
  builder.write(p);

  const auto snap = store::MappedSnapshot::open(p);
  EXPECT_TRUE(snap.has_floats());
  IvfPqConfig lc;
  lc.nprobe = 4;
  const auto loaded = IvfPqIndex::from_snapshot(snap, lc);
  EXPECT_EQ(loaded->metric(), DistanceMetric::kEuclidean);
  EXPECT_EQ(loaded->nlist(), built.nlist());

  const auto a = built.packed_codes();
  const auto b = loaded->packed_codes();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);

  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto x = built.search(queries.row(q), 10);
    const auto y = loaded->search(queries.row(q), 10);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].id, y[i].id) << "q=" << q;
      EXPECT_EQ(x[i].distance, y[i].distance) << "q=" << q;
    }
  }

  // The snapshot's float matrix feeds rerank on the loaded side too.
  loaded->set_rerank(50);
  const FlatIndex oracle(store::EmbeddingView::of(points),
                         DistanceMetric::kEuclidean);
  loaded->set_nprobe(10);
  EXPECT_GE(recall_against(oracle, *loaded, queries, 10), 0.9);
}

TEST(QuantIndex, IvfPqSharesIvfIndexPostingLists) {
  // One coarse config, two codecs: the posting lists come from the same
  // core, so slot order and list boundaries must agree exactly.
  const MatrixF points = planted_clusters(1500, 16, 8, 29);
  const auto view = store::EmbeddingView::of(points);
  for (const auto metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean}) {
    IvfConfig coarse;
    coarse.nlist = 12;
    coarse.seed = 31;
    coarse.threads = 2;
    const IvfIndex ivf(view, metric, coarse);
    const IvfPqIndex ivfpq(view, metric, IvfPqConfig{coarse});
    ASSERT_EQ(ivf.nlist(), 12u);
    EXPECT_TRUE(std::ranges::equal(ivf.core().list_offsets(),
                                   ivfpq.list_offsets()))
        << "metric=" << static_cast<int>(metric);
    EXPECT_TRUE(std::ranges::equal(ivf.core().ids(), ivfpq.ids()))
        << "metric=" << static_cast<int>(metric);
  }
}

TEST_F(QuantIndexTest, IvfPqSnapshotRejectsForgedPostingId) {
  const MatrixF points = planted_clusters(2000, 16, 8, 37);
  IvfPqConfig config;
  config.nlist = 16;
  config.seed = 41;
  const IvfPqIndex built(store::EmbeddingView::of(points),
                         DistanceMetric::kEuclidean, config);
  store::SnapshotBuilder honest(points.rows(), points.cols());
  built.save_sections(honest);
  const auto good = path("good.v2vsnap");
  honest.write(good);

  // Re-emit every section through a fresh builder (so every checksum is
  // valid) with the first posting id pointing far past the last row.
  const auto snap = store::MappedSnapshot::open(good);
  store::SnapshotBuilder forger(points.rows(), points.cols());
  forger.set_float_matrix(store::EmbeddingView::of(points));
  for (const auto& section : snap.sections()) {
    const auto bytes = snap.section(section.name);
    std::vector<std::uint8_t> payload(bytes.begin(), bytes.end());
    if (section.name == "pqid") {
      const std::uint32_t forged = 4000000000U;
      std::memcpy(payload.data(), &forged, sizeof(forged));
    }
    forger.add_section(section.name, std::move(payload));
  }
  const auto bad = path("forged.v2vsnap");
  forger.write(bad);

  const auto forged = store::MappedSnapshot::open(bad);
  IvfPqConfig lc;
  lc.rerank = 20;
  try {
    (void)IvfPqIndex::from_snapshot(forged, lc);
    ADD_FAILURE() << "from_snapshot accepted a posting id >= rows";
  } catch (const store::SnapshotError& e) {
    EXPECT_EQ(e.code(), store::SnapshotErrorCode::kBadHeader);
  }
}

TEST(QuantIndex, BytesPerVectorBeatFloatBudget) {
  const MatrixF points = planted_clusters(1000, 64, 8, 19);
  const double float_bytes =
      static_cast<double>(MatrixF::padded_stride(64) * sizeof(float));
  const SqIndex sq(store::EmbeddingView::of(points), DistanceMetric::kCosine,
                   {.threads = 2});
  IvfPqConfig config;
  config.m = 8;
  config.threads = 2;
  const IvfPqIndex ivfpq(store::EmbeddingView::of(points),
                         DistanceMetric::kCosine, config);
  EXPECT_LE(sq.bytes_per_vector(), 0.35 * float_bytes);
  EXPECT_LE(ivfpq.bytes_per_vector(), 0.35 * float_bytes);
}

TEST(QuantIndex, QuantMetaRoundTripsAndRejectsGarbage) {
  QuantMeta meta;
  meta.kind = kQuantKindIvfPq;
  meta.metric = DistanceMetric::kEuclidean;
  meta.m = 16;
  meta.ksub = 256;
  meta.nlist = 224;
  const auto bytes = encode_quant_meta(meta);
  const QuantMeta back = decode_quant_meta(bytes);
  EXPECT_EQ(back.kind, meta.kind);
  EXPECT_EQ(back.metric, meta.metric);
  EXPECT_EQ(back.m, meta.m);
  EXPECT_EQ(back.ksub, meta.ksub);
  EXPECT_EQ(back.nlist, meta.nlist);

  EXPECT_THROW((void)decode_quant_meta(std::span<const std::uint8_t>(
                   bytes.data(), bytes.size() - 1)),
               store::SnapshotError);
  auto bad = bytes;
  bad[0] = 0xff;  // unknown kind
  EXPECT_THROW((void)decode_quant_meta(bad), store::SnapshotError);
}

TEST(QuantIndex, Sq8EncodeClampsAndInvertsAffinely) {
  MatrixF rows(3, 2);
  rows(0, 0) = -1.0f;  rows(0, 1) = 5.0f;   // per-dim min
  rows(1, 0) = 3.0f;   rows(1, 1) = 5.0f;   // dim 1 is constant
  rows(2, 0) = 1.0f;   rows(2, 1) = 5.0f;
  const auto quant = Sq8Quantizer::train(rows);
  ASSERT_EQ(quant.dims, 2u);
  EXPECT_FLOAT_EQ(quant.vmin[0], -1.0f);
  EXPECT_FLOAT_EQ(quant.scale[0], 4.0f / 255.0f);
  EXPECT_FLOAT_EQ(quant.scale[1], 0.0f);  // degenerate dim encodes as 0

  std::uint8_t code[2] = {0, 0};
  quant.encode_row(rows.row(0), code);
  EXPECT_EQ(code[0], 0);    // min of the range
  EXPECT_EQ(code[1], 0);    // constant dim
  quant.encode_row(rows.row(1), code);
  EXPECT_EQ(code[0], 255);  // max of the range saturates the byte

  // Values outside the trained range (a query-like row) stay clamped.
  MatrixF wild(1, 2);
  wild(0, 0) = 100.0f;
  wild(0, 1) = -100.0f;
  quant.encode_row(wild.row(0), code);
  EXPECT_EQ(code[0], 255);
  EXPECT_EQ(code[1], 0);
}

TEST(QuantIndex, EmptyEmbeddingThrows) {
  EXPECT_THROW(SqIndex(store::EmbeddingView(), DistanceMetric::kCosine),
               std::invalid_argument);
  EXPECT_THROW(IvfPqIndex(store::EmbeddingView(), DistanceMetric::kCosine),
               std::invalid_argument);
}

}  // namespace
}  // namespace v2v::index
