// Vector quantizers for the memory-bound serving path (ROADMAP: a
// million-user float32 corpus does not fit in RAM).
//
//   Sq8Quantizer  per-dimension min/max affine scalar quantization to one
//                 byte per dimension: code = round((x - vmin) / scale),
//                 decode = vmin + scale * code. 4x smaller than float32.
//   PqCodebooks   product quantization: the dims are split into m
//                 subspaces (the first dims % m subspaces get one extra
//                 dimension) and each subvector is replaced by the id of
//                 its nearest codeword among ksub <= 256 trained per
//                 subspace — m bytes per vector. Queries scan codes with
//                 the LUT-based asymmetric distance (ADC): a per-query
//                 m x 256 table of subspace sqdists, accumulated by
//                 kernels::pq_adc over the packed codes.
//
// Both quantizers train on the existing exact k-means engine (ml::kmeans
// + ml::assign_to_centroids) rather than reimplementing Lloyd; encoding
// inherits the engine's determinism contract, so codes are byte-identical
// across thread counts. Codebooks are stored as float32 — training's
// double centroids are rounded once — so an index rebuilt from snapshot
// sections encodes and scores exactly like the one that wrote them.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "v2v/common/aligned.hpp"
#include "v2v/common/matrix.hpp"
#include "v2v/index/top_k.hpp"
#include "v2v/index/vector_index.hpp"
#include "v2v/ml/kmeans.hpp"
#include "v2v/store/embedding_view.hpp"

namespace v2v::index {

/// Per-dimension affine scalar quantizer (SQ8).
struct Sq8Quantizer {
  std::size_t dims = 0;
  AlignedVector<float> vmin;   ///< per-dimension minimum
  AlignedVector<float> scale;  ///< (max - min) / 255; 0 for constant dims

  /// Fits min/max per dimension over every row.
  [[nodiscard]] static Sq8Quantizer train(const MatrixF& rows);

  /// Encodes one row to dims bytes (values clamped into [vmin, vmin +
  /// 255 * scale]; constant dimensions encode as 0).
  void encode_row(std::span<const float> row, std::uint8_t* out) const noexcept;
};

struct PqTrainConfig {
  std::size_t m = 8;           ///< subspaces (clamped to [1, dims])
  std::size_t kmeans_iterations = 20;
  std::size_t kmeans_restarts = 1;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  ml::KMeansAssign assign = ml::KMeansAssign::kHamerly;
};

/// Trained per-subspace codebooks. Each subspace stores a full 256-row
/// table (rows past ksub are zero), so the books buffer is always exactly
/// 256 * dims floats and the ADC LUT stride is kernels::kPqLutStride.
struct PqCodebooks {
  std::size_t dims = 0;
  std::size_t m = 0;
  std::size_t ksub = 0;                  ///< trained codewords per subspace
  std::vector<std::size_t> sub_offset;   ///< m + 1 dimension boundaries
  AlignedVector<float> books;            ///< subspace-major, 256 rows each

  /// Shape with zeroed books: m clamped to [1, dims], the first dims % m
  /// subspaces one dimension wider than the rest.
  [[nodiscard]] static PqCodebooks layout(std::size_t dims, std::size_t m,
                                          std::size_t ksub);

  [[nodiscard]] std::size_t sub_dim(std::size_t s) const noexcept {
    return sub_offset[s + 1] - sub_offset[s];
  }
  /// Float offset of subspace `s`'s 256-row table inside `books`.
  [[nodiscard]] std::size_t book_offset(std::size_t s) const noexcept {
    return 256 * sub_offset[s];
  }
  [[nodiscard]] const float* codeword(std::size_t s, std::size_t c) const noexcept {
    return books.data() + book_offset(s) + c * sub_dim(s);
  }

  /// Fills the per-query ADC table: lut[s * kPqLutStride + c] is the
  /// squared distance between `q`'s subvector s and codeword c. `lut`
  /// must hold m * kernels::kPqLutStride floats.
  void build_lut(const float* q, float* lut) const noexcept;
};

/// Trains per-subspace codebooks on the rows of `train` (typically
/// residuals against a coarse quantizer). ksub = min(256, train rows).
[[nodiscard]] PqCodebooks pq_train(const MatrixF& train,
                                   const PqTrainConfig& config);

/// Encodes every row of `rows` into `codes` (rows x m bytes, row-major).
/// Assignment runs on the exact k-means engine: byte-identical across
/// `threads` and to the naive nearest-codeword scan.
void pq_encode(const PqCodebooks& pq, const MatrixF& rows, std::size_t threads,
               ml::KMeansAssign assign, std::uint8_t* codes);

/// Fixed-layout "qmet" snapshot section: which quantizer a snapshot
/// carries and the shape needed to reconstruct it.
struct QuantMeta {
  std::uint32_t kind = 0;  ///< 1 = sq8, 2 = ivfpq
  DistanceMetric metric = DistanceMetric::kCosine;
  std::uint64_t m = 0;
  std::uint64_t ksub = 0;
  std::uint64_t nlist = 0;
};

inline constexpr std::uint32_t kQuantKindSq8 = 1;
inline constexpr std::uint32_t kQuantKindIvfPq = 2;

[[nodiscard]] std::vector<std::uint8_t> encode_quant_meta(const QuantMeta& meta);
/// Throws store::SnapshotError(kBadHeader) on malformed payloads.
[[nodiscard]] QuantMeta decode_quant_meta(std::span<const std::uint8_t> bytes);

/// Metric-normalized copy of every row of `data`, parallel over rows:
/// cosine rows are L2-normalized (zero rows stay zero, so their cosine
/// distance to anything comes out as the conventional 1), Euclidean rows
/// are copied verbatim. The build input of every index that scans in
/// normalized space (IVF, IVF-PQ, SQ8).
[[nodiscard]] MatrixF normalized_rows(const store::EmbeddingView& data,
                                      DistanceMetric metric,
                                      std::size_t threads);

/// The query-side twin of normalized_rows: `query` itself for Euclidean,
/// else a thread-local normalized copy valid until this thread's next call.
[[nodiscard]] const float* normalized_query(std::span<const float> query,
                                            DistanceMetric metric);

/// The exact-rerank stage of the quantized indexes (SqIndex, IvfPqIndex).
/// A query keeps the best max(k, R) quantized candidates, re-scores them
/// against the float rows with FlatIndex's formulas (so the distances are
/// bit-identical to the oracle's) and returns their top-k. At depth R == 0,
/// or with no float rows attached, the quantized top-k is the answer.
class RerankStage {
 public:
  /// Float rows in build-input order; the view must outlive the index.
  void set_data(store::EmbeddingView floats) noexcept { floats_ = floats; }
  /// Runtime-tunable like IvfIndex::set_nprobe; 0 disables rerank.
  void set_depth(std::size_t r) noexcept {
    depth_.store(r, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t depth() const noexcept {
    return depth_.load(std::memory_order_relaxed);
  }

  /// One query's selection: `scan(top)` offers every quantized candidate
  /// to a TopK, and the sorted top-k lands in `out`. `query` is the raw,
  /// unnormalized query; `k` is already clamped to the index's rows.
  template <typename Scan>
  void select(std::span<const float> query, std::size_t k,
              DistanceMetric metric, std::vector<Neighbor>& out,
              Scan&& scan) const {
    const std::size_t r = floats_.empty() ? 0 : depth();
    if (r == 0) {
      TopK top(out, k);
      scan(top);
      top.sort();
      return;
    }
    thread_local std::vector<Neighbor> survivors;
    TopK top(survivors, std::min(std::max(k, r), floats_.rows()));
    scan(top);
    exact_rerank(query, metric, survivors, k, out);
  }

 private:
  void exact_rerank(std::span<const float> query, DistanceMetric metric,
                    std::span<const Neighbor> cand, std::size_t k,
                    std::vector<Neighbor>& out) const;

  std::atomic<std::size_t> depth_{0};
  store::EmbeddingView floats_;  ///< empty until set_data
};

}  // namespace v2v::index
