#include "v2v/index/ivfpq_index.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "v2v/common/kernels.hpp"
#include "v2v/common/thread_pool.hpp"
#include "v2v/obs/metrics.hpp"
#include "v2v/store/snapshot.hpp"

namespace v2v::index {
namespace {

[[noreturn]] void bad_sections(const std::string& detail) {
  throw store::SnapshotError(store::SnapshotErrorCode::kBadHeader,
                             "snapshot: " + detail);
}

}  // namespace

IvfPqIndex::IvfPqIndex(store::EmbeddingView data, DistanceMetric metric,
                       IvfPqConfig config)
    : rows_(data.rows()), dims_(data.dimensions()), metric_(metric) {
  if (rows_ == 0) throw std::invalid_argument("ivfpq: empty embedding");
  const obs::ScopedTimer span(config.metrics, "ivfpq_build");
  const std::size_t threads = std::max<std::size_t>(1, config.threads);

  const MatrixF normalized = normalized_rows(data, metric_, threads);
  const IvfCore::Assignment built = core_.build(normalized, config);

  // Residual of row r against its float cell center (what snapshots
  // carry, and what queries subtract — build/query geometry matches).
  const auto residual = [&](std::size_t r, std::span<float> dst) {
    const auto src = normalized.row(r);
    std::copy(src.begin(), src.end(), dst.begin());
    kernels::axpy(-1.0f, core_.centroid(built.cell[r]).data(), dst.data(),
                  dims_);
  };

  // --- PQ codebooks on the residuals of the core's training sample. -----
  const std::size_t sample_count =
      built.sample.empty() ? rows_ : built.sample.size();
  MatrixF pq_sample(sample_count, dims_);
  for (std::size_t i = 0; i < sample_count; ++i) {
    residual(built.sample.empty() ? i : built.sample[i], pq_sample.row(i));
  }
  PqTrainConfig pc;
  pc.m = config.m;
  pc.kmeans_iterations = kIvfKmeansIterations;
  pc.kmeans_restarts = kIvfKmeansRestarts;
  pc.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  pc.threads = threads;
  pc.assign = config.kmeans_assign;
  pq_ = pq_train(pq_sample, pc);

  // --- Residuals in slot order, encoded straight into packed codes. -----
  const auto ids = core_.ids();
  MatrixF residuals(rows_, dims_);
  parallel_for_dynamic(
      threads, rows_, 0,
      [&](std::size_t, std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t slot = begin; slot < end; ++slot) {
          residual(ids[slot], residuals.row(slot));
        }
      });
  codes_owned_.resize(rows_ * pq_.m);
  pq_encode(pq_, residuals, threads, config.kmeans_assign,
            codes_owned_.data());
  codes_ = codes_owned_;
  set_rerank_data(data);
  set_rerank(config.rerank);

  if (config.metrics != nullptr) {
    config.metrics->gauge("ivfpq.nlist").set(static_cast<double>(nlist()));
    config.metrics->gauge("ivfpq.m").set(static_cast<double>(pq_.m));
    config.metrics->gauge("ivfpq.build_threads").set(
        static_cast<double>(threads));
    config.metrics->counter("ivfpq.rows").add(rows_);
    config.metrics->gauge("ivfpq.build_seconds").set(span.seconds());
  }
}

std::unique_ptr<IvfPqIndex> IvfPqIndex::from_snapshot(
    const store::MappedSnapshot& snap, IvfPqConfig config) {
  const QuantMeta meta = decode_quant_meta(snap.section("qmet"));
  if (meta.kind != kQuantKindIvfPq) {
    bad_sections("qmet does not describe an ivfpq index");
  }
  auto out = std::make_unique<IvfPqIndex>(BuildTag{});
  out->rows_ = snap.rows();
  out->dims_ = snap.dimensions();
  out->metric_ = meta.metric;
  out->core_.set_nprobe(config.nprobe);
  out->set_rerank(config.rerank);
  if (out->rows_ == 0) throw std::invalid_argument("ivfpq: empty snapshot");

  const auto m = static_cast<std::size_t>(meta.m);
  const auto ksub = static_cast<std::size_t>(meta.ksub);
  const auto nlist = static_cast<std::size_t>(meta.nlist);
  if (m == 0 || m > out->dims_ || ksub == 0 || ksub > 256 || nlist == 0) {
    bad_sections("qmet shape out of range");
  }

  out->pq_ = PqCodebooks::layout(out->dims_, m, ksub);
  const auto books = snap.section("pqbk");
  if (books.size() != 256 * out->dims_ * sizeof(float)) {
    bad_sections("pqbk size does not match 256 x dims");
  }
  std::memcpy(out->pq_.books.data(), books.data(), books.size());

  const auto codes = snap.section("pqcd");
  if (codes.size() != out->rows_ * m) {
    bad_sections("pqcd size does not match rows x m");
  }
  out->codes_ = codes;  // zero-copy from the mapping

  out->core_.load(snap.section("pqcc"), snap.section("pqid"),
                  snap.section("pqls"), nlist, out->rows_, out->dims_);

  if (snap.has_floats()) out->set_rerank_data(snap.float_view());
  return out;
}

void IvfPqIndex::save_sections(store::SnapshotBuilder& builder) const {
  QuantMeta meta;
  meta.kind = kQuantKindIvfPq;
  meta.metric = metric_;
  meta.m = pq_.m;
  meta.ksub = pq_.ksub;
  meta.nlist = nlist();
  builder.add_section("qmet", encode_quant_meta(meta));

  std::vector<std::uint8_t> books(pq_.books.size() * sizeof(float));
  std::memcpy(books.data(), pq_.books.data(), books.size());
  builder.add_section("pqbk", std::move(books));
  builder.add_section("pqcc", core_.centroid_bytes());
  builder.add_section("pqcd", {codes_.begin(), codes_.end()});
  builder.add_section("pqid", core_.id_bytes());
  builder.add_section("pqls", core_.offset_bytes());
}

void IvfPqIndex::search_into(std::span<const float> query, std::size_t k,
                             std::vector<Neighbor>& out) const {
  out.clear();
  k = std::min(k, rows_);
  if (k == 0) return;
  const bool cosine = metric_ == DistanceMetric::kCosine;
  const float* q = normalized_query(query, metric_);
  const auto ids = core_.ids();

  thread_local std::vector<float> resq;
  thread_local std::vector<float> lut;
  resq.resize(dims_);
  lut.resize(pq_.m * kernels::kPqLutStride);

  rerank_.select(query, k, metric_, out, [&](TopK& top) {
    core_.probe(q, [&](std::size_t list, std::size_t begin, std::size_t end) {
      // Query residual against this cell, then its ADC table.
      std::copy(q, q + dims_, resq.begin());
      kernels::axpy(-1.0f, core_.centroid(list).data(), resq.data(), dims_);
      pq_.build_lut(resq.data(), lut.data());
      for (std::size_t slot = begin; slot < end; ++slot) {
        const std::uint8_t* code = codes_.data() + slot * pq_.m;
        const double adc =
            static_cast<double>(kernels::pq_adc(lut.data(), code, pq_.m));
        // Unit-sphere rows: ||q - x||^2 = 2 (1 - cos), so halving the ADC
        // estimate lands on the cosine-distance scale.
        top.push(ids[slot], cosine ? 0.5 * adc : adc);
      }
    });
  });
}

double IvfPqIndex::warm_rows(std::size_t begin, std::size_t end) const {
  double sum = 0.0;
  end = std::min(end, rows_);
  for (std::size_t slot = begin; slot < end; ++slot) {
    const std::uint8_t* code = codes_.data() + slot * pq_.m;
    std::uint64_t acc = 0;
    for (std::size_t j = 0; j < pq_.m; ++j) acc += code[j];
    sum += static_cast<double>(acc) + static_cast<double>(ids()[slot]);
  }
  return sum;
}

double IvfPqIndex::bytes_per_vector() const noexcept {
  const double per_vector =
      static_cast<double>(pq_.m) + static_cast<double>(sizeof(std::uint32_t));
  const double fixed =
      static_cast<double>(pq_.books.size() * sizeof(float)) +
      static_cast<double>(nlist() * dims_ * sizeof(float)) +
      static_cast<double>((nlist() + 1) * sizeof(std::uint64_t));
  return per_vector + fixed / static_cast<double>(rows_);
}

}  // namespace v2v::index
