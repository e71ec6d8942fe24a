// Versioned binary embedding snapshots: the at-rest format of the serving
// layer (ROADMAP: heavy query traffic needs cheap vector access; reloading
// the text format per run does not scale).
//
// The container format itself — fixed header, checksummed section table,
// the one reader (MappedSnapshot) and the one writer
// (StreamingSnapshotWriter) — lives in store/format.hpp (it depends only
// on common/, so the walk layer's corpus spool reuses it). This header
// adds the embedding-level API as thin layers over that reader and writer:
//
//   - EmbeddingStore: save an embed::Embedding as a v1 snapshot (a one-
//     section "fmat" stream), load one by copying rows out of the reader
//   - MappedEmbedding: zero-copy mmap'd rows for serving
//   - text <-> snapshot converters for the word2vec format
//
// The mapped path hands out rows pointing straight into the page cache —
// no row memcpy — and falls back to a buffered read when mmap fails or
// V2V_STORE_NO_MMAP=1 is set (which is how the fallback is tested
// everywhere).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "v2v/embed/embedding.hpp"
#include "v2v/store/embedding_view.hpp"
#include "v2v/store/format.hpp"

namespace v2v::store {

class EmbeddingStore {
 public:
  /// Writes `embedding` as a snapshot at `path` (atomically overwriting is
  /// the caller's concern; this truncates in place).
  static void save(const embed::Embedding& embedding, const std::string& path);

  /// Validates the whole snapshot (MappedSnapshot::open) and copies its
  /// rows into an owning Embedding.
  [[nodiscard]] static embed::Embedding load(const std::string& path);

  /// Validates and decodes just the fixed header (cheap metadata probe).
  [[nodiscard]] static SnapshotHeader read_header(const std::string& path);
};

/// A float snapshot opened for serving: a MappedSnapshot plus its
/// float_view(). On POSIX the file is mmapped read-only and `row()` /
/// `view()` point straight into the mapping — zero-copy, pages fault in
/// on first touch. Under V2V_STORE_NO_MMAP=1 or MapMode::kBuffered the
/// file is read into an owning 64-byte-aligned buffer with identical
/// observable behaviour. Move-only.
class MappedEmbedding {
 public:
  using MapMode = store::MapMode;

  /// Opens and fully validates `path` (MappedSnapshot::open); a snapshot
  /// without a float matrix fails with kBadDtype.
  [[nodiscard]] static MappedEmbedding open(const std::string& path,
                                            MapMode mode = MapMode::kAuto);

  [[nodiscard]] std::size_t rows() const noexcept { return snapshot_.rows(); }
  [[nodiscard]] std::size_t dimensions() const noexcept {
    return snapshot_.dimensions();
  }
  [[nodiscard]] const SnapshotHeader& header() const noexcept {
    return snapshot_.header();
  }
  /// True when rows are served from the mapping (no copy was made).
  [[nodiscard]] bool zero_copy() const noexcept { return snapshot_.zero_copy(); }

  [[nodiscard]] std::span<const float> row(std::size_t r) const noexcept {
    return view_.row(r);
  }
  /// View valid for this object's lifetime; feed it to FlatIndex/IvfIndex.
  [[nodiscard]] EmbeddingView view() const noexcept { return view_; }

 private:
  explicit MappedEmbedding(MappedSnapshot snapshot)
      : snapshot_(std::move(snapshot)), view_(snapshot_.float_view()) {}

  MappedSnapshot snapshot_;
  EmbeddingView view_;
};

/// Converters between the word2vec text format and the snapshot format.
void convert_text_to_snapshot(const std::string& text_path,
                              const std::string& snapshot_path);
void convert_snapshot_to_text(const std::string& snapshot_path,
                              const std::string& text_path);

}  // namespace v2v::store
