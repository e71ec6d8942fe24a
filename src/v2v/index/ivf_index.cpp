#include "v2v/index/ivf_index.hpp"

#include <algorithm>
#include <stdexcept>

#include "v2v/common/kernels.hpp"
#include "v2v/index/quantizer.hpp"
#include "v2v/index/top_k.hpp"
#include "v2v/obs/metrics.hpp"

namespace v2v::index {

IvfIndex::IvfIndex(store::EmbeddingView data, DistanceMetric metric,
                   IvfConfig config)
    : rows_(data.rows()), dims_(data.dimensions()), metric_(metric) {
  if (rows_ == 0) throw std::invalid_argument("ivf: empty embedding");
  const obs::ScopedTimer span(config.metrics, "ivf_build");
  const std::size_t threads = std::max<std::size_t>(1, config.threads);

  // All rows, metric-normalized once: feeds quantizer training, the
  // assignment pass and the slot-order copy below.
  const MatrixF normalized = normalized_rows(data, metric_, threads);
  core_.build(normalized, config);

  slot_rows_ = MatrixF(rows_, dims_);
  const auto ids = core_.ids();
  for (std::size_t slot = 0; slot < rows_; ++slot) {
    const auto row = normalized.row(ids[slot]);
    std::copy(row.begin(), row.end(), slot_rows_.row(slot).begin());
  }

  if (config.metrics != nullptr) {
    config.metrics->gauge("ivf.nlist").set(static_cast<double>(nlist()));
    config.metrics->gauge("ivf.build_threads").set(static_cast<double>(threads));
    config.metrics->counter("ivf.rows").add(rows_);
    auto& sizes = config.metrics->histogram(
        "ivf.list_size",
        {0.0, std::max(1.0, static_cast<double>(rows_)), 64});
    for (std::size_t c = 0; c < nlist(); ++c) {
      sizes.record(static_cast<double>(list_size(c)));
    }
    config.metrics->gauge("ivf.build_seconds").set(span.seconds());
  }
}

void IvfIndex::search_into(std::span<const float> query, std::size_t k,
                           std::vector<Neighbor>& out) const {
  out.clear();
  k = std::min(k, rows_);
  if (k == 0) return;
  const bool cosine = metric_ == DistanceMetric::kCosine;
  const float* q = normalized_query(query, metric_);
  const auto ids = core_.ids();

  TopK top(out, k);
  core_.probe(q, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t slot = begin; slot < end; ++slot) {
      const float* row = slot_rows_.row(slot).data();
      top.push(ids[slot], cosine ? 1.0 - kernels::ddot(q, row, dims_)
                                 : kernels::sqdist(q, row, dims_));
    }
  });
  top.sort();
}

double IvfIndex::warm_rows(std::size_t begin, std::size_t end) const {
  double sum = 0.0;
  end = std::min(end, rows_);
  for (std::size_t slot = begin; slot < end; ++slot) {
    const auto row = slot_rows_.row(slot);
    sum += kernels::ddot(row.data(), row.data(), row.size());
  }
  return sum;
}

}  // namespace v2v::index
