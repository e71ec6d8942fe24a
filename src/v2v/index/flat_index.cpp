#include "v2v/index/flat_index.hpp"

#include <algorithm>
#include <cmath>

#include "v2v/common/kernels.hpp"
#include "v2v/index/top_k.hpp"

namespace v2v::index {

FlatIndex::FlatIndex(store::EmbeddingView data, DistanceMetric metric)
    : data_(data), metric_(metric) {
  if (metric_ == DistanceMetric::kCosine) {
    norms_.resize(data_.rows());
    for (std::size_t r = 0; r < data_.rows(); ++r) {
      const auto row = data_.row(r);
      norms_[r] = std::sqrt(kernels::ddot(row.data(), row.data(), row.size()));
    }
  }
}

void FlatIndex::search_into(std::span<const float> query, std::size_t k,
                            std::vector<Neighbor>& out) const {
  out.clear();
  k = std::min(k, data_.rows());
  if (k == 0) return;

  TopK top(out, k);
  const float* q = query.data();
  const std::size_t d = data_.dimensions();
  if (metric_ == DistanceMetric::kCosine) {
    // Same arithmetic as vec_math cosine_distance: 1 - dot / (nq * nr),
    // zero vectors maximally distant. nq is hoisted out of the row loop;
    // it is the identical sqrt(ddot(q, q)) value per row, so results stay
    // bit-identical to the per-pair formulation.
    const double nq = std::sqrt(kernels::ddot(q, q, d));
    for (std::size_t r = 0; r < data_.rows(); ++r) {
      const double nr = norms_[r];
      const double dist =
          (nq == 0.0 || nr == 0.0)
              ? 1.0
              : 1.0 - kernels::ddot(q, data_.row(r).data(), d) / (nq * nr);
      top.push(static_cast<std::uint32_t>(r), dist);
    }
  } else {
    for (std::size_t r = 0; r < data_.rows(); ++r) {
      top.push(static_cast<std::uint32_t>(r),
               kernels::sqdist(q, data_.row(r).data(), d));
    }
  }
  top.sort();
}

double FlatIndex::warm_rows(std::size_t begin, std::size_t end) const {
  double sum = 0.0;
  end = std::min(end, data_.rows());
  for (std::size_t r = begin; r < end; ++r) {
    const auto row = data_.row(r);
    sum += kernels::ddot(row.data(), row.data(), row.size());
  }
  return sum;
}

}  // namespace v2v::index
