// The inverted-file (IVF) core under IvfIndex and IvfPqIndex: one coarse
// quantizer, its posting lists and the probe loop. The indexes on top
// differ only in what a slot stores (float rows, PQ codes) and how a
// probed list is scored.
//
// Build: k-means (ml::kmeans) over a deterministic sample of the
// metric-normalized rows yields `nlist` centroids; the exact engine pass
// (ml::assign_to_centroids) assigns every row, and slots are packed list
// by list, stable by row id (`ids()[slot]` is the row in `slot`).
//
// Query: `probe` ranks the centroids by squared distance to the query and
// hands the `nprobe` nearest lists to the caller's scan — a template
// argument, so the per-slot loop inlines into the index's own search.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "v2v/common/kernels.hpp"
#include "v2v/common/matrix.hpp"
#include "v2v/index/top_k.hpp"
#include "v2v/index/vector_index.hpp"
#include "v2v/ml/kmeans.hpp"

namespace v2v::obs {
class MetricsRegistry;
}  // namespace v2v::obs

namespace v2v::index {

/// Coarse-quantizer settings shared by every IVF index.
struct IvfConfig {
  /// Posting lists (coarse centroids); 0 picks ~sqrt(rows).
  std::size_t nlist = 0;
  /// Lists scanned per query; clamped to nlist. The recall/QPS knob.
  std::size_t nprobe = 8;
  std::uint64_t seed = 1;
  /// Worker threads for the build (quantizer training + assignment pass).
  std::size_t threads = 1;
  /// Assignment engine for quantizer training and the row-assignment
  /// pass. kNaive is the slow oracle kept for CI speedup gates.
  ml::KMeansAssign kmeans_assign = ml::KMeansAssign::kHamerly;
  /// Optional observability sink, also handed to the k-means run.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Rows sampled for quantizer training (deterministic under the seed);
/// every row is used when there are fewer.
inline constexpr std::size_t kIvfTrainSample = 20000;
/// Lloyd iterations / restarts for the coarse quantizer (and the PQ
/// codebooks): a coarse quantizer does not need the paper's 100x100.
inline constexpr std::size_t kIvfKmeansIterations = 15;
inline constexpr std::size_t kIvfKmeansRestarts = 1;

class IvfCore {
 public:
  /// What a build hands back to the codec on top.
  struct Assignment {
    std::vector<std::uint32_t> cell;   ///< coarse cell of every row
    std::vector<std::size_t> sample;   ///< training rows; empty = all rows
  };

  /// Trains the quantizer on `rows` (already metric-normalized), assigns
  /// and packs every row, and adopts `config.nprobe`.
  Assignment build(const MatrixF& rows, const IvfConfig& config);

  /// Adopts snapshot payloads: `centroids` (nlist x dims float32), `ids`
  /// (rows uint32, served from the mapping — it must outlive the core)
  /// and `offsets` (nlist + 1 uint64). Throws store::SnapshotError
  /// (kBadHeader) on a size mismatch, inconsistent offsets, or an id that
  /// is not a row.
  void load(std::span<const std::uint8_t> centroids,
            std::span<const std::uint8_t> ids,
            std::span<const std::uint8_t> offsets, std::size_t nlist,
            std::size_t rows, std::size_t dims);

  /// The payloads `load` reads back.
  [[nodiscard]] std::vector<std::uint8_t> centroid_bytes() const;
  [[nodiscard]] std::vector<std::uint8_t> id_bytes() const;
  [[nodiscard]] std::vector<std::uint8_t> offset_bytes() const;

  /// Ranks the centroids against `q` and calls `scan_list(list, begin,
  /// end)` for the nprobe nearest lists, nearest first; [begin, end) are
  /// the list's slots.
  template <typename ScanList>
  void probe(const float* q, ScanList&& scan_list) const {
    const std::size_t lists = nlist();
    const std::size_t probes =
        std::min(std::max<std::size_t>(1, nprobe()), lists);
    thread_local std::vector<Neighbor> ranked;
    TopK top(ranked, probes);
    for (std::size_t c = 0; c < lists; ++c) {
      top.push(static_cast<std::uint32_t>(c),
               kernels::sqdist(q, centroids_.row(c).data(), centroids_.cols()));
    }
    top.sort();
    for (std::size_t p = 0; p < probes; ++p) {
      const std::size_t list = ranked[p].id;
      scan_list(list, list_offsets_[list], list_offsets_[list + 1]);
    }
  }

  [[nodiscard]] std::size_t nlist() const noexcept {
    return list_offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t list_size(std::size_t list) const noexcept {
    return list_offsets_[list + 1] - list_offsets_[list];
  }
  /// Runtime-tunable; safe to change between (not during) queries from the
  /// controlling thread — concurrent readers just see old or new value.
  void set_nprobe(std::size_t nprobe) noexcept {
    nprobe_.store(nprobe, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t nprobe() const noexcept {
    return nprobe_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::span<const float> centroid(std::size_t list) const noexcept {
    return centroids_.row(list);
  }
  /// Packed slot -> original row id.
  [[nodiscard]] std::span<const std::uint32_t> ids() const noexcept {
    return ids_;
  }
  /// nlist + 1 prefix offsets into the slots.
  [[nodiscard]] std::span<const std::size_t> list_offsets() const noexcept {
    return list_offsets_;
  }

 private:
  std::atomic<std::size_t> nprobe_{8};
  MatrixF centroids_;                      ///< nlist x dims, float
  std::vector<std::uint32_t> ids_owned_;   ///< empty when snapshot-backed
  std::span<const std::uint32_t> ids_;
  std::vector<std::size_t> list_offsets_{0};
};

}  // namespace v2v::index
