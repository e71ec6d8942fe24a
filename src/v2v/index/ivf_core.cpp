#include "v2v/index/ivf_core.hpp"

#include <cmath>
#include <cstring>
#include <string>

#include "v2v/common/rng.hpp"
#include "v2v/store/snapshot.hpp"

namespace v2v::index {
namespace {

[[noreturn]] void bad_sections(const std::string& detail) {
  throw store::SnapshotError(store::SnapshotErrorCode::kBadHeader,
                             "snapshot: " + detail);
}

}  // namespace

IvfCore::Assignment IvfCore::build(const MatrixF& rows,
                                   const IvfConfig& config) {
  const std::size_t n = rows.rows();
  const std::size_t dims = rows.cols();
  const std::size_t threads = std::max<std::size_t>(1, config.threads);
  set_nprobe(config.nprobe);

  // --- Quantizer: k-means over a deterministic sample of the rows. ------
  Assignment out;
  std::size_t sample_count = n;
  if (kIvfTrainSample < n) {
    Rng rng(config.seed ^ 0x1c0ffee5eedULL);
    out.sample = rng.sample_indices(n, kIvfTrainSample);
    sample_count = out.sample.size();
  }
  std::size_t nlist = config.nlist;
  if (nlist == 0) {
    nlist = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(n))));
  }
  nlist = std::clamp<std::size_t>(nlist, 1, sample_count);

  MatrixF train(sample_count, dims);
  for (std::size_t i = 0; i < sample_count; ++i) {
    const auto row = rows.row(out.sample.empty() ? i : out.sample[i]);
    std::copy(row.begin(), row.end(), train.row(i).begin());
  }

  ml::KMeansConfig kc;
  kc.k = nlist;
  kc.max_iterations = kIvfKmeansIterations;
  kc.restarts = kIvfKmeansRestarts;
  kc.seed = config.seed;
  kc.threads = threads;
  kc.assign = config.kmeans_assign;
  kc.metrics = config.metrics;
  const ml::KMeansResult trained = ml::kmeans(train, kc);

  centroids_ = MatrixF(nlist, dims);
  for (std::size_t c = 0; c < nlist; ++c) {
    const auto src = trained.centroids.row(c);
    const auto dst = centroids_.row(c);
    for (std::size_t j = 0; j < dims; ++j) dst[j] = static_cast<float>(src[j]);
  }

  // --- Assignment pass: every row to its nearest trained centroid via
  // the k-means engine's exact scan (same double-precision quantizer
  // geometry the Lloyd runs used).
  out.cell = ml::assign_to_centroids(rows, trained.centroids, threads,
                                     config.kmeans_assign);

  // --- Pack slots list by list (stable by id). --------------------------
  list_offsets_.assign(nlist + 1, 0);
  for (const std::uint32_t a : out.cell) ++list_offsets_[a + 1];
  for (std::size_t c = 0; c < nlist; ++c) {
    list_offsets_[c + 1] += list_offsets_[c];
  }
  ids_owned_.resize(n);
  std::vector<std::size_t> cursor(list_offsets_.begin(),
                                  list_offsets_.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    ids_owned_[cursor[out.cell[r]]++] = static_cast<std::uint32_t>(r);
  }
  ids_ = ids_owned_;
  return out;
}

void IvfCore::load(std::span<const std::uint8_t> centroids,
                   std::span<const std::uint8_t> ids,
                   std::span<const std::uint8_t> offsets, std::size_t nlist,
                   std::size_t rows, std::size_t dims) {
  if (centroids.size() != nlist * dims * sizeof(float)) {
    bad_sections("coarse centroids do not match nlist x dims");
  }
  centroids_ = MatrixF(nlist, dims);
  for (std::size_t c = 0; c < nlist; ++c) {
    std::memcpy(centroids_.row(c).data(),
                centroids.data() + c * dims * sizeof(float),
                dims * sizeof(float));
  }

  if (ids.size() != rows * sizeof(std::uint32_t)) {
    bad_sections("posting ids do not match rows");
  }
  ids_owned_.clear();
  ids_ = {reinterpret_cast<const std::uint32_t*>(ids.data()), rows};
  if (std::any_of(ids_.begin(), ids_.end(),
                  [rows](std::uint32_t id) { return id >= rows; })) {
    bad_sections("posting id out of range");
  }

  if (offsets.size() != (nlist + 1) * sizeof(std::uint64_t)) {
    bad_sections("list offsets do not match nlist + 1");
  }
  list_offsets_.resize(nlist + 1);
  for (std::size_t c = 0; c <= nlist; ++c) {
    std::uint64_t v = 0;
    std::memcpy(&v, offsets.data() + c * sizeof(std::uint64_t), sizeof(v));
    list_offsets_[c] = static_cast<std::size_t>(v);
  }
  if (list_offsets_.front() != 0 || list_offsets_.back() != rows ||
      !std::is_sorted(list_offsets_.begin(), list_offsets_.end())) {
    bad_sections("list offsets inconsistent");
  }
}

std::vector<std::uint8_t> IvfCore::centroid_bytes() const {
  const std::size_t row_bytes = centroids_.cols() * sizeof(float);
  std::vector<std::uint8_t> out(nlist() * row_bytes);
  for (std::size_t c = 0; c < nlist(); ++c) {
    std::memcpy(out.data() + c * row_bytes, centroids_.row(c).data(),
                row_bytes);
  }
  return out;
}

std::vector<std::uint8_t> IvfCore::id_bytes() const {
  std::vector<std::uint8_t> out(ids_.size() * sizeof(std::uint32_t));
  std::memcpy(out.data(), ids_.data(), out.size());
  return out;
}

std::vector<std::uint8_t> IvfCore::offset_bytes() const {
  std::vector<std::uint8_t> out(list_offsets_.size() * sizeof(std::uint64_t));
  for (std::size_t c = 0; c < list_offsets_.size(); ++c) {
    const auto v = static_cast<std::uint64_t>(list_offsets_[c]);
    std::memcpy(out.data() + c * sizeof(std::uint64_t), &v, sizeof(v));
  }
  return out;
}

}  // namespace v2v::index
