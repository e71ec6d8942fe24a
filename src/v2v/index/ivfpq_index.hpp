// IVF-PQ: the shared IvfCore (coarse quantizer, posting lists, probe
// loop) with product-quantized residuals in the slots instead of float
// rows — m bytes per vector instead of 4 * dims, the memory-bound serving
// configuration.
//
// Build: the core trains and assigns exactly as for IvfIndex; every row's
// residual against its coarse cell (row - coarse_row) is then
// product-quantized: per-subspace codebooks trained on the residuals of
// the core's training sample, codes assigned by the exact k-means engine
// and repacked into slot order. Both passes run under
// parallel_for_dynamic's fixed-grain contract, so codes are byte-identical
// across thread counts.
//
// Query: for each probed cell build the ADC lookup table over the query
// residual (q - coarse_row): lut[s][c] = sqdist of subvector s against
// codeword c. Scanning a list is then kernels::pq_adc per code — m table
// gathers, no float row traffic. ||q - x||^2 = ||(q - c) - (x - c)||^2, so
// the ADC sum approximates the true squared distance; for cosine (unit
// rows) distance is adc / 2, which matches 1 - cos up to quantization
// error.
//
// The optional exact-rerank stage re-scores the top-R candidates against
// the float matrix (when attached) with FlatIndex's formulas — the
// memory-for-recall knob of the serving path. Everything round-trips
// through snapshot v2 sections ("qmet"/"pqbk"/"pqcc"/"pqcd"/"pqid"/
// "pqls"), served straight from the mapping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "v2v/index/ivf_core.hpp"
#include "v2v/index/quantizer.hpp"
#include "v2v/index/vector_index.hpp"
#include "v2v/store/embedding_view.hpp"

namespace v2v::store {
class SnapshotBuilder;
class MappedSnapshot;
}  // namespace v2v::store

namespace v2v::index {

/// The coarse fields come from IvfConfig; `metrics` records ivfpq.*
/// gauges and an "ivfpq_build" span.
struct IvfPqConfig : IvfConfig {
  /// PQ subspaces (bytes per vector); clamped to [1, dims].
  std::size_t m = 8;
  /// Exact-rerank depth over the float matrix; 0 disables.
  std::size_t rerank = 0;
};

class IvfPqIndex final : public VectorIndex {
  struct BuildTag {};  ///< passkey: only from_snapshot can mint one

 public:
  /// Passkey constructor backing from_snapshot's make_unique; not
  /// callable outside this class (BuildTag is private).
  explicit IvfPqIndex(BuildTag) noexcept {}

  /// Builds over `data`; codes/books are owned, the view is kept only for
  /// rerank. Throws std::invalid_argument when `data` is empty.
  IvfPqIndex(store::EmbeddingView data, DistanceMetric metric,
             IvfPqConfig config = {});

  /// Reconstructs from a quantized snapshot. Packed codes and ids are
  /// served straight from the mapping — `snap` must outlive the index.
  /// Attaches the float matrix for rerank when the snapshot carries one.
  [[nodiscard]] static std::unique_ptr<IvfPqIndex> from_snapshot(
      const store::MappedSnapshot& snap, IvfPqConfig config = {});

  /// Adds "qmet"/"pqbk"/"pqcc"/"pqcd"/"pqid"/"pqls" to a builder.
  void save_sections(store::SnapshotBuilder& builder) const;

  [[nodiscard]] std::size_t size() const noexcept override { return rows_; }
  [[nodiscard]] std::size_t dimensions() const noexcept override { return dims_; }
  [[nodiscard]] DistanceMetric metric() const noexcept override { return metric_; }

  void search_into(std::span<const float> query, std::size_t k,
                   std::vector<Neighbor>& out) const override;
  double warm_rows(std::size_t begin, std::size_t end) const override;

  /// Coarse quantizer and posting lists (slot -> row id, list offsets).
  [[nodiscard]] const IvfCore& core() const noexcept { return core_; }
  [[nodiscard]] std::size_t nlist() const noexcept { return core_.nlist(); }
  void set_nprobe(std::size_t nprobe) noexcept { core_.set_nprobe(nprobe); }
  void set_rerank_data(store::EmbeddingView floats) noexcept {
    rerank_.set_data(floats);
  }
  void set_rerank(std::size_t r) noexcept { rerank_.set_depth(r); }
  [[nodiscard]] std::size_t rerank() const noexcept { return rerank_.depth(); }

  /// Quantized footprint per vector: m code bytes + id + amortized
  /// books/coarse/list-offset overhead.
  [[nodiscard]] double bytes_per_vector() const noexcept;
  [[nodiscard]] std::size_t subspaces() const noexcept { return pq_.m; }
  [[nodiscard]] const PqCodebooks& codebooks() const noexcept { return pq_; }
  [[nodiscard]] std::span<const std::uint8_t> packed_codes() const noexcept {
    return codes_;
  }
  [[nodiscard]] std::span<const std::uint32_t> ids() const noexcept {
    return core_.ids();
  }
  [[nodiscard]] std::span<const std::size_t> list_offsets() const noexcept {
    return core_.list_offsets();
  }

 private:
  std::size_t rows_ = 0;
  std::size_t dims_ = 0;
  DistanceMetric metric_ = DistanceMetric::kCosine;
  IvfCore core_;
  PqCodebooks pq_;
  std::vector<std::uint8_t> codes_owned_;  ///< empty when snapshot-backed
  std::span<const std::uint8_t> codes_;    ///< rows x m, in slot order
  RerankStage rerank_;
};

}  // namespace v2v::index
