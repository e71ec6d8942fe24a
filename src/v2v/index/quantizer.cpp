#include "v2v/index/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "v2v/common/check.hpp"
#include "v2v/common/kernels.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/common/vec_math.hpp"
#include "v2v/store/snapshot.hpp"

namespace v2v::index {

Sq8Quantizer Sq8Quantizer::train(const MatrixF& rows) {
  V2V_CHECK(rows.rows() > 0, "sq8: empty training matrix");
  Sq8Quantizer q;
  q.dims = rows.cols();
  q.vmin.assign(q.dims, 0.0f);
  AlignedVector<float> vmax(q.dims, 0.0f);
  const auto first = rows.row(0);
  std::copy(first.begin(), first.end(), q.vmin.begin());
  std::copy(first.begin(), first.end(), vmax.begin());
  for (std::size_t r = 1; r < rows.rows(); ++r) {
    const auto row = rows.row(r);
    for (std::size_t j = 0; j < q.dims; ++j) {
      q.vmin[j] = std::min(q.vmin[j], row[j]);
      vmax[j] = std::max(vmax[j], row[j]);
    }
  }
  q.scale.assign(q.dims, 0.0f);
  for (std::size_t j = 0; j < q.dims; ++j) {
    q.scale[j] = (vmax[j] - q.vmin[j]) / 255.0f;
  }
  return q;
}

void Sq8Quantizer::encode_row(std::span<const float> row,
                              std::uint8_t* out) const noexcept {
  for (std::size_t j = 0; j < dims; ++j) {
    if (scale[j] <= 0.0f) {
      out[j] = 0;
      continue;
    }
    const float t = (row[j] - vmin[j]) / scale[j];
    const long code = std::lround(t);
    out[j] = static_cast<std::uint8_t>(std::clamp<long>(code, 0, 255));
  }
}

PqCodebooks PqCodebooks::layout(std::size_t dims, std::size_t m,
                                std::size_t ksub) {
  PqCodebooks pq;
  pq.dims = dims;
  pq.m = std::clamp<std::size_t>(m, 1, dims);
  pq.ksub = ksub;
  pq.sub_offset.assign(pq.m + 1, 0);
  const std::size_t base = dims / pq.m;
  const std::size_t extra = dims % pq.m;
  for (std::size_t s = 0; s < pq.m; ++s) {
    pq.sub_offset[s + 1] = pq.sub_offset[s] + base + (s < extra ? 1 : 0);
  }
  pq.books.assign(256 * dims, 0.0f);
  return pq;
}

PqCodebooks pq_train(const MatrixF& train, const PqTrainConfig& config) {
  V2V_CHECK(train.rows() > 0, "pq: empty training matrix");
  PqCodebooks pq = PqCodebooks::layout(
      train.cols(), config.m, std::min<std::size_t>(256, train.rows()));
  for (std::size_t s = 0; s < pq.m; ++s) {
    const std::size_t d = pq.sub_dim(s);
    MatrixF sub(train.rows(), d);
    for (std::size_t r = 0; r < train.rows(); ++r) {
      const auto src = train.row(r);
      const auto dst = sub.row(r);
      std::copy(src.begin() + static_cast<std::ptrdiff_t>(pq.sub_offset[s]),
                src.begin() + static_cast<std::ptrdiff_t>(pq.sub_offset[s + 1]),
                dst.begin());
    }
    ml::KMeansConfig kc;
    kc.k = pq.ksub;
    kc.max_iterations = std::max<std::size_t>(1, config.kmeans_iterations);
    kc.restarts = std::max<std::size_t>(1, config.kmeans_restarts);
    kc.seed = config.seed + s;  // distinct deterministic stream per subspace
    kc.threads = std::max<std::size_t>(1, config.threads);
    kc.assign = config.assign;
    const ml::KMeansResult trained = ml::kmeans(sub, kc);
    for (std::size_t c = 0; c < pq.ksub; ++c) {
      const auto src = trained.centroids.row(c);
      float* dst = pq.books.data() + pq.book_offset(s) + c * d;
      for (std::size_t j = 0; j < d; ++j) dst[j] = static_cast<float>(src[j]);
    }
  }
  return pq;
}

void pq_encode(const PqCodebooks& pq, const MatrixF& rows, std::size_t threads,
               ml::KMeansAssign assign, std::uint8_t* codes) {
  V2V_CHECK(rows.cols() == pq.dims, "pq_encode: dims mismatch");
  const std::size_t n = rows.rows();
  for (std::size_t s = 0; s < pq.m; ++s) {
    const std::size_t d = pq.sub_dim(s);
    MatrixF sub(n, d);
    parallel_for_dynamic(
        std::max<std::size_t>(1, threads), n, 0,
        [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t r = begin; r < end; ++r) {
            const auto src = rows.row(r);
            const auto dst = sub.row(r);
            std::copy(
                src.begin() + static_cast<std::ptrdiff_t>(pq.sub_offset[s]),
                src.begin() + static_cast<std::ptrdiff_t>(pq.sub_offset[s + 1]),
                dst.begin());
          }
        });
    // The float books are the source of truth (they are what snapshots
    // carry); promote once so build-time and loaded-from-snapshot encodes
    // agree bit for bit.
    MatrixD codewords(pq.ksub, d);
    for (std::size_t c = 0; c < pq.ksub; ++c) {
      const float* src = pq.codeword(s, c);
      const auto dst = codewords.row(c);
      for (std::size_t j = 0; j < d; ++j) dst[j] = static_cast<double>(src[j]);
    }
    const std::vector<std::uint32_t> assignment =
        ml::assign_to_centroids(sub, codewords, std::max<std::size_t>(1, threads),
                                assign);
    for (std::size_t r = 0; r < n; ++r) {
      codes[r * pq.m + s] = static_cast<std::uint8_t>(assignment[r]);
    }
  }
}

void PqCodebooks::build_lut(const float* q, float* lut) const noexcept {
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t d = sub_dim(s);
    const float* qs = q + sub_offset[s];
    float* row = lut + s * kernels::kPqLutStride;
    for (std::size_t c = 0; c < kernels::kPqLutStride; ++c) {
      row[c] = kernels::sqdist(qs, codeword(s, c), d);
    }
  }
}

std::vector<std::uint8_t> encode_quant_meta(const QuantMeta& meta) {
  std::vector<std::uint8_t> out(40, 0);
  auto put = [&out](std::size_t at, const auto& v) {
    std::memcpy(out.data() + at, &v, sizeof(v));
  };
  put(0, meta.kind);
  const std::uint32_t metric = meta.metric == DistanceMetric::kEuclidean ? 1u : 0u;
  put(4, metric);
  put(8, meta.m);
  put(16, meta.ksub);
  put(24, meta.nlist);
  return out;
}

QuantMeta decode_quant_meta(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 40) {
    throw store::SnapshotError(store::SnapshotErrorCode::kBadHeader,
                               "snapshot: qmet section too short");
  }
  auto get = [&bytes](std::size_t at, auto& v) {
    std::memcpy(&v, bytes.data() + at, sizeof(v));
  };
  QuantMeta meta;
  std::uint32_t metric = 0;
  get(0, meta.kind);
  get(4, metric);
  get(8, meta.m);
  get(16, meta.ksub);
  get(24, meta.nlist);
  if ((meta.kind != kQuantKindSq8 && meta.kind != kQuantKindIvfPq) ||
      metric > 1) {
    throw store::SnapshotError(store::SnapshotErrorCode::kBadHeader,
                               "snapshot: unknown quantizer kind or metric");
  }
  meta.metric = metric == 1 ? DistanceMetric::kEuclidean
                            : DistanceMetric::kCosine;
  return meta;
}

MatrixF normalized_rows(const store::EmbeddingView& data,
                        DistanceMetric metric, std::size_t threads) {
  const bool cosine = metric == DistanceMetric::kCosine;
  MatrixF out(data.rows(), data.dimensions());
  parallel_for_dynamic(std::max<std::size_t>(1, threads), data.rows(), 0,
                       [&](std::size_t, std::size_t, std::size_t begin,
                           std::size_t end) {
                         for (std::size_t r = begin; r < end; ++r) {
                           const auto src = data.row(r);
                           const auto dst = out.row(r);
                           std::copy(src.begin(), src.end(), dst.begin());
                           if (cosine) normalize(dst);
                         }
                       });
  return out;
}

const float* normalized_query(std::span<const float> query,
                              DistanceMetric metric) {
  if (metric != DistanceMetric::kCosine) return query.data();
  thread_local std::vector<float> buf;
  buf.assign(query.begin(), query.end());
  normalize(std::span<float>(buf));
  return buf.data();
}

void RerankStage::exact_rerank(std::span<const float> query,
                               DistanceMetric metric,
                               std::span<const Neighbor> cand, std::size_t k,
                               std::vector<Neighbor>& out) const {
  TopK top(out, std::min(k, cand.size()));
  const float* q = query.data();
  const std::size_t d = floats_.dimensions();
  if (metric == DistanceMetric::kCosine) {
    const double nq = std::sqrt(kernels::ddot(q, q, d));
    for (const Neighbor& c : cand) {
      const float* row = floats_.row(c.id).data();
      const double nr = std::sqrt(kernels::ddot(row, row, d));
      top.push(c.id, (nq == 0.0 || nr == 0.0)
                         ? 1.0
                         : 1.0 - kernels::ddot(q, row, d) / (nq * nr));
    }
  } else {
    for (const Neighbor& c : cand) {
      top.push(c.id, kernels::sqdist(q, floats_.row(c.id).data(), d));
    }
  }
  top.sort();
}

}  // namespace v2v::index
