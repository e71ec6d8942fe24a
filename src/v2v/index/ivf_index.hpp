// Inverted-file (IVF) approximate nearest-neighbor index: the IvfCore
// (coarse quantizer, posting lists, probe loop) plus the metric-normalized
// float rows stored in slot order, so a probe streams contiguous
// cache-line-aligned memory instead of chasing ids. nprobe is the
// recall/QPS knob: nprobe == nlist degenerates to an exact scan (recall
// 1.0 modulo distance-formula rounding), nprobe == 1 scans ~1/nlist of
// the data.
//
// Cosine metric: rows and queries are L2-normalized once (build/query
// time), so cosine distance reduces to 1 - dot and the quantizer's
// Euclidean geometry matches the metric (||a - b||² = 2·(1 - cos) on the
// unit sphere). Zero vectors stay zero and keep distance 1 to everything,
// consistent with vec_math. Distances from an IVF probe are therefore not
// bit-identical to FlatIndex's (different formula, same ordering up to
// rounding) — exactness lives in FlatIndex, IVF trades it for speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "v2v/common/matrix.hpp"
#include "v2v/index/ivf_core.hpp"
#include "v2v/index/vector_index.hpp"
#include "v2v/store/embedding_view.hpp"

namespace v2v::index {

class IvfIndex final : public VectorIndex {
 public:
  /// Builds the index over `data` (backing storage must outlive it).
  /// Throws std::invalid_argument when `data` is empty. `config.metrics`,
  /// when set, records ivf.nlist / ivf.build_seconds / ivf.build_threads
  /// gauges, an ivf.list_size histogram, and an "ivf_build" stage span.
  IvfIndex(store::EmbeddingView data, DistanceMetric metric, IvfConfig config = {});

  [[nodiscard]] std::size_t size() const noexcept override { return rows_; }
  [[nodiscard]] std::size_t dimensions() const noexcept override { return dims_; }
  [[nodiscard]] DistanceMetric metric() const noexcept override { return metric_; }

  void search_into(std::span<const float> query, std::size_t k,
                   std::vector<Neighbor>& out) const override;

  double warm_rows(std::size_t begin, std::size_t end) const override;

  /// Coarse quantizer and posting lists (slot -> row id, list offsets).
  [[nodiscard]] const IvfCore& core() const noexcept { return core_; }
  [[nodiscard]] std::size_t nlist() const noexcept { return core_.nlist(); }
  [[nodiscard]] std::size_t list_size(std::size_t list) const noexcept {
    return core_.list_size(list);
  }
  void set_nprobe(std::size_t nprobe) noexcept { core_.set_nprobe(nprobe); }
  [[nodiscard]] std::size_t nprobe() const noexcept { return core_.nprobe(); }

 private:
  std::size_t rows_ = 0;
  std::size_t dims_ = 0;
  DistanceMetric metric_;
  IvfCore core_;
  MatrixF slot_rows_;  ///< normalized rows, in slot order
};

}  // namespace v2v::index
