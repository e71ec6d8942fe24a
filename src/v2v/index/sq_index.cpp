#include "v2v/index/sq_index.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "v2v/common/kernels.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/store/snapshot.hpp"

namespace v2v::index {
namespace {

[[noreturn]] void bad_sections(const std::string& detail) {
  throw store::SnapshotError(store::SnapshotErrorCode::kBadHeader,
                             "snapshot: " + detail);
}

}  // namespace

SqIndex::SqIndex(store::EmbeddingView data, DistanceMetric metric,
                 SqConfig config)
    : rows_(data.rows()), dims_(data.dimensions()), metric_(metric) {
  if (rows_ == 0) throw std::invalid_argument("sq8: empty embedding");
  const std::size_t threads = std::max<std::size_t>(1, config.threads);
  const MatrixF normalized = normalized_rows(data, metric_, threads);
  quant_ = Sq8Quantizer::train(normalized);
  codes_owned_.resize(rows_ * dims_);
  parallel_for_dynamic(threads, rows_, 0,
                       [&](std::size_t, std::size_t, std::size_t begin,
                           std::size_t end) {
                         for (std::size_t r = begin; r < end; ++r) {
                           quant_.encode_row(normalized.row(r),
                                             codes_owned_.data() + r * dims_);
                         }
                       });
  codes_ = codes_owned_;
  set_rerank_data(data);
  set_rerank(config.rerank);
}

std::unique_ptr<SqIndex> SqIndex::from_snapshot(
    const store::MappedSnapshot& snap, SqConfig config) {
  const QuantMeta meta = decode_quant_meta(snap.section("qmet"));
  if (meta.kind != kQuantKindSq8) {
    bad_sections("qmet does not describe an sq8 index");
  }
  auto out = std::make_unique<SqIndex>(BuildTag{});
  out->rows_ = snap.rows();
  out->dims_ = snap.dimensions();
  out->metric_ = meta.metric;
  out->set_rerank(config.rerank);
  if (out->rows_ == 0) throw std::invalid_argument("sq8: empty snapshot");

  const auto params = snap.section("sq8p");
  if (params.size() != 2 * out->dims_ * sizeof(float)) {
    bad_sections("sq8p size does not match dims");
  }
  out->quant_.dims = out->dims_;
  out->quant_.vmin.resize(out->dims_);
  out->quant_.scale.resize(out->dims_);
  std::memcpy(out->quant_.vmin.data(), params.data(),
              out->dims_ * sizeof(float));
  std::memcpy(out->quant_.scale.data(),
              params.data() + out->dims_ * sizeof(float),
              out->dims_ * sizeof(float));

  const auto codes = snap.section("sq8c");
  if (codes.size() != out->rows_ * out->dims_) {
    bad_sections("sq8c size does not match rows x dims");
  }
  out->codes_ = codes;  // zero-copy: served straight from the mapping

  if (snap.has_floats()) out->set_rerank_data(snap.float_view());
  return out;
}

void SqIndex::save_sections(store::SnapshotBuilder& builder) const {
  QuantMeta meta;
  meta.kind = kQuantKindSq8;
  meta.metric = metric_;
  builder.add_section("qmet", encode_quant_meta(meta));

  std::vector<std::uint8_t> params(2 * dims_ * sizeof(float));
  std::memcpy(params.data(), quant_.vmin.data(), dims_ * sizeof(float));
  std::memcpy(params.data() + dims_ * sizeof(float), quant_.scale.data(),
              dims_ * sizeof(float));
  builder.add_section("sq8p", std::move(params));
  builder.add_section("sq8c", {codes_.begin(), codes_.end()});
}

void SqIndex::search_into(std::span<const float> query, std::size_t k,
                          std::vector<Neighbor>& out) const {
  out.clear();
  k = std::min(k, rows_);
  if (k == 0) return;
  const bool cosine = metric_ == DistanceMetric::kCosine;
  const float* q = normalized_query(query, metric_);

  const float* vmin = quant_.vmin.data();
  const float* scale = quant_.scale.data();
  rerank_.select(query, k, metric_, out, [&](TopK& top) {
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::uint8_t* code = codes_.data() + r * dims_;
      top.push(static_cast<std::uint32_t>(r),
               cosine ? 1.0 - static_cast<double>(kernels::sq8_dot(
                                  q, code, vmin, scale, dims_))
                      : static_cast<double>(kernels::sq8_sqdist(
                            q, code, vmin, scale, dims_)));
    }
  });
}

double SqIndex::warm_rows(std::size_t begin, std::size_t end) const {
  double sum = 0.0;
  end = std::min(end, rows_);
  for (std::size_t r = begin; r < end; ++r) {
    const std::uint8_t* code = codes_.data() + r * dims_;
    std::uint64_t acc = 0;
    for (std::size_t j = 0; j < dims_; ++j) acc += code[j];
    sum += static_cast<double>(acc);
  }
  return sum;
}

double SqIndex::bytes_per_vector() const noexcept {
  const double fixed =
      static_cast<double>(2 * dims_ * sizeof(float));  // vmin + scale
  return static_cast<double>(dims_) + fixed / static_cast<double>(rows_);
}

}  // namespace v2v::index
