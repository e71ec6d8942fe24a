// SQ8 scalar-quantized exact-scan index: every row stored as one byte per
// dimension (4x smaller than float32), scanned with the asymmetric int8
// kernels (the query stays float; rows decode on the fly inside
// kernels::sq8_dot / sq8_sqdist, so no decoded copy ever materializes).
//
// Cosine metric: rows and queries are L2-normalized once, cosine distance
// is 1 - sq8_dot. Distances are approximate (quantization error); the
// optional exact-rerank stage re-scores the top-R candidates against the
// float matrix with FlatIndex's formulas when one is attached, recovering
// oracle-grade ordering at R/rows of the float bandwidth.
//
// The quantizer params + codes round-trip through snapshot v2 sections
// ("qmet"/"sq8p"/"sq8c"), so a server can mmap a quantized snapshot and
// serve it with no float matrix in RAM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "v2v/index/quantizer.hpp"
#include "v2v/index/vector_index.hpp"
#include "v2v/store/embedding_view.hpp"

namespace v2v::store {
class SnapshotBuilder;
class MappedSnapshot;
}  // namespace v2v::store

namespace v2v::index {

struct SqConfig {
  /// Worker threads for the build (min/max fit + encode pass).
  std::size_t threads = 1;
  /// Exact-rerank depth: re-score the top-R quantized candidates against
  /// the float matrix (requires rerank data). 0 disables.
  std::size_t rerank = 0;
};

class SqIndex final : public VectorIndex {
  struct BuildTag {};  ///< passkey: only from_snapshot can mint one

 public:
  /// Passkey constructor backing from_snapshot's make_unique; not
  /// callable outside this class (BuildTag is private).
  explicit SqIndex(BuildTag) noexcept {}

  /// Quantizes `data` (backing storage must outlive the index only for
  /// rerank; codes are owned). Throws std::invalid_argument when empty.
  SqIndex(store::EmbeddingView data, DistanceMetric metric, SqConfig config = {});

  /// Reconstructs from a quantized snapshot's "qmet"/"sq8p"/"sq8c"
  /// sections. Codes are served straight from the mapping — `snap` must
  /// outlive the index. Attaches the float matrix for rerank when the
  /// snapshot carries one.
  [[nodiscard]] static std::unique_ptr<SqIndex> from_snapshot(
      const store::MappedSnapshot& snap, SqConfig config = {});

  /// Adds "qmet"/"sq8p"/"sq8c" to a v2 snapshot builder.
  void save_sections(store::SnapshotBuilder& builder) const;

  [[nodiscard]] std::size_t size() const noexcept override { return rows_; }
  [[nodiscard]] std::size_t dimensions() const noexcept override { return dims_; }
  [[nodiscard]] DistanceMetric metric() const noexcept override { return metric_; }

  void search_into(std::span<const float> query, std::size_t k,
                   std::vector<Neighbor>& out) const override;
  double warm_rows(std::size_t begin, std::size_t end) const override;

  /// Attaches float rows (same order as build input) for exact rerank.
  void set_rerank_data(store::EmbeddingView floats) noexcept {
    rerank_.set_data(floats);
  }
  /// Runtime-tunable like IvfIndex::set_nprobe; 0 disables rerank.
  void set_rerank(std::size_t r) noexcept { rerank_.set_depth(r); }
  [[nodiscard]] std::size_t rerank() const noexcept { return rerank_.depth(); }

  /// Quantized footprint per vector (codes + amortized quantizer params).
  [[nodiscard]] double bytes_per_vector() const noexcept;
  [[nodiscard]] std::span<const std::uint8_t> packed_codes() const noexcept {
    return codes_;
  }
  [[nodiscard]] const Sq8Quantizer& quantizer() const noexcept { return quant_; }

 private:
  std::size_t rows_ = 0;
  std::size_t dims_ = 0;
  DistanceMetric metric_ = DistanceMetric::kCosine;
  Sq8Quantizer quant_;
  std::vector<std::uint8_t> codes_owned_;     ///< empty when snapshot-backed
  std::span<const std::uint8_t> codes_;       ///< rows x dims bytes
  RerankStage rerank_;
};

}  // namespace v2v::index
