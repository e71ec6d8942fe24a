// The ANN serving layer's core abstraction: a VectorIndex answers top-k
// nearest-neighbor queries over an EmbeddingView (paper §V serves k-NN
// feature prediction; the ROADMAP north star needs it at traffic scale).
// Four implementations ship:
//
//   FlatIndex   exact brute-force scan on the kernels:: layer — the
//               correctness oracle every approximate index is measured
//               against, and the engine behind KnnClassifier.
//   IvfIndex    IvfCore (coarse k-means quantizer, posting lists, probe
//               loop) over float rows; a query scans the nprobe nearest
//               lists, trading recall for QPS.
//   IvfPqIndex  the same IvfCore over product-quantized residuals (m
//               bytes per row), with optional exact rerank.
//   SqIndex     flat scan over 8-bit scalar-quantized rows, with
//               optional exact rerank.
//
// Distances are doubles: cosine distance in [0, 2] (zero vectors are
// maximally distant, matching common/vec_math.hpp) or squared Euclidean.
// Results order by (distance, id) ascending, so ties are deterministic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace v2v::index {

enum class DistanceMetric : std::uint8_t { kCosine, kEuclidean };

struct Neighbor {
  std::uint32_t id = 0;
  double distance = 0.0;
};

/// Strict weak ordering used for every result list: nearest first, ties
/// broken toward the smaller id.
[[nodiscard]] inline bool neighbor_less(const Neighbor& a, const Neighbor& b) noexcept {
  return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
}

class VectorIndex {
 public:
  VectorIndex() = default;
  VectorIndex(const VectorIndex&) = delete;
  VectorIndex& operator=(const VectorIndex&) = delete;
  virtual ~VectorIndex() = default;

  /// Number of indexed vectors.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  [[nodiscard]] virtual std::size_t dimensions() const noexcept = 0;
  [[nodiscard]] virtual DistanceMetric metric() const noexcept = 0;

  /// Top-k nearest neighbors of `query` into `out` (cleared first), sorted
  /// by neighbor_less. k is clamped to size(). Must be safe to call
  /// concurrently from distinct threads.
  virtual void search_into(std::span<const float> query, std::size_t k,
                           std::vector<Neighbor>& out) const = 0;

  /// Reads every stored vector in [begin, end) once — prefaults mmapped
  /// pages and pulls packed codes into cache. Returns an arbitrary
  /// data-dependent value so the reads cannot be optimized away. Safe
  /// concurrently with searches.
  virtual double warm_rows(std::size_t begin, std::size_t end) const = 0;

  [[nodiscard]] std::vector<Neighbor> search(std::span<const float> query,
                                             std::size_t k) const {
    std::vector<Neighbor> out;
    search_into(query, k, out);
    return out;
  }
};

}  // namespace v2v::index
