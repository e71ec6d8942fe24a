// The snapshot *container* format, independent of what the payloads mean:
// magic + checksummed fixed header, the v2 named-section table, the one
// reader (MappedSnapshot: mmap with buffered fallback, one in-memory
// validator) and the one writer (StreamingSnapshotWriter; SnapshotBuilder
// streams its held payloads through it). This layer depends only on
// common/ so anything in the tree (the walk layer's corpus spool, the
// quantized indexes, the trainer-state store) can persist checksummed
// sections without pulling in the embedding types; store/snapshot.hpp
// layers the embedding-level API (EmbeddingStore / MappedEmbedding) on
// top of this reader and writer.
//
// On-disk layout (all integers little-endian; see docs/ARCHITECTURE.md):
//
//   offset 0   magic      "V2VSNAP1"                      8 bytes
//          8   version    u32
//         12   dtype      u16 (1 = float32, 0 = none/sections-only)
//         14   endian     u16 (0x0102, detects byte-swapped files)
//         16   rows       u64
//         24   dims       u64
//         32   row_stride u64  floats per row on disk (>= dims)
//         40   data_offset u64 (64-byte aligned)
//         48   data_bytes  u64 (= rows * row_stride * 4, or 0)
//         56   data_checksum   u64  FNV-1a 64 over the row region
//         64   header_checksum u64  FNV-1a 64 over bytes [0, 64)
//
// v2+ files append a checksummed section table at byte 72 (see
// SnapshotSection); a v2+ float header must mirror its "fmat" entry.
// Every malformed input fails with a typed SnapshotError (never UB), so
// corrupt files are diagnosable and the corruption test matrices can
// assert exact error codes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "v2v/common/aligned.hpp"
#include "v2v/store/embedding_view.hpp"

namespace v2v::store {

inline constexpr std::uint32_t kSnapshotVersion = 1;
/// Version 2 appends a checksummed section table (quantized payloads) at
/// byte 72; the fixed header is unchanged, so v1 readers of the float
/// region keep working on v2 files that carry floats.
inline constexpr std::uint32_t kSnapshotVersionSections = 2;
/// Version 3 adds optional trainer/optimizer-state sections ("tsyn1",
/// "tfreq", "tlrst" — see store/trainer_state.hpp) on top of the v2
/// section machinery. The layout is byte-identical to v2; the version
/// bump only signals "this file can warm-start continued SGD", so v1/v2
/// files keep loading and v2 readers that ignore unknown sections would
/// still serve the floats.
inline constexpr std::uint32_t kSnapshotVersionTrainerState = 3;
inline constexpr std::uint16_t kDtypeFloat32 = 1;
/// v2 only: the snapshot carries no float matrix (quantized payloads or a
/// corpus spool segment); rows/dims still describe the logical shape,
/// row_stride/data_bytes are 0.
inline constexpr std::uint16_t kDtypeNone = 0;
inline constexpr std::uint16_t kEndianTag = 0x0102;

/// FNV-1a 64-bit over a byte range. Exposed so tests can forge valid
/// checksums when building corruption cases.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t bytes) noexcept;

/// Incremental FNV-1a 64: seed with fnv1a64_seed(), fold ranges in order
/// with fnv1a64_accumulate(). Equal to fnv1a64 over the concatenation —
/// this is how the streaming writers checksum payloads they never hold in
/// memory at once.
[[nodiscard]] constexpr std::uint64_t fnv1a64_seed() noexcept {
  return 0xcbf29ce484222325ULL;
}
[[nodiscard]] std::uint64_t fnv1a64_accumulate(std::uint64_t state, const void* data,
                                               std::size_t bytes) noexcept;

enum class SnapshotErrorCode : std::uint8_t {
  kOpenFailed,              ///< file missing or unreadable/unwritable
  kTruncatedHeader,         ///< shorter than the fixed header
  kBadMagic,                ///< not a snapshot file
  kHeaderChecksumMismatch,  ///< header bytes corrupted
  kBadVersion,              ///< written by an unknown format revision
  kBadDtype,                ///< element type this build cannot serve
  kBadEndianness,           ///< byte-swapped producer
  kBadHeader,               ///< internally inconsistent header fields
  kTruncatedData,           ///< file shorter than header promises
  kDataChecksumMismatch,    ///< row region corrupted
  kBadSectionTable,         ///< v2 section table malformed or truncated
  kSectionChecksumMismatch, ///< a section payload is corrupted
};

[[nodiscard]] const char* snapshot_error_name(SnapshotErrorCode code) noexcept;

/// Every failure of the snapshot layer throws this; `code()` makes the
/// failure mode machine-checkable (corruption matrix tests, CLI exit
/// messages).
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] SnapshotErrorCode code() const noexcept { return code_; }

 private:
  SnapshotErrorCode code_;
};

/// Throws SnapshotError with the uniform "snapshot: <origin>: <detail>
/// [<code name>]" message every reader/writer in this layer uses.
[[noreturn]] void throw_snapshot_error(SnapshotErrorCode code,
                                       const std::string& origin,
                                       const std::string& detail);

/// Decoded fixed header of a snapshot file.
struct SnapshotHeader {
  std::uint32_t version = kSnapshotVersion;
  std::uint16_t dtype = kDtypeFloat32;
  std::uint64_t rows = 0;
  std::uint64_t dims = 0;
  std::uint64_t row_stride = 0;
  std::uint64_t data_offset = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t data_checksum = 0;
};

/// Size of the fixed header on disk (magic through header_checksum).
inline constexpr std::size_t kSnapshotHeaderBytes = 72;

/// Validates and decodes the fixed header from an in-memory byte range
/// (at least the first kSnapshotHeaderBytes of a purported snapshot).
/// `file_size` is the total size of the purported file, checked against
/// the region the header promises. Throws SnapshotError with the same
/// typed codes as the file-based readers; `origin` names the source in
/// error messages. validate_snapshot_image and read_snapshot_header run
/// every header through it, and fuzz/fuzz_snapshot.cpp drives it directly.
[[nodiscard]] SnapshotHeader decode_snapshot_header(
    std::span<const std::uint8_t> bytes, std::uint64_t file_size,
    const std::string& origin = "<memory>");

/// Serializes `h` into a kSnapshotHeaderBytes buffer, magic and header
/// checksum included (the endian tag is stamped for this host). Inverse
/// of decode_snapshot_header; tests use it to forge headers for the
/// corruption matrices.
void encode_snapshot_header(const SnapshotHeader& h,
                            std::span<std::uint8_t> out) noexcept;

/// Opens `path` and validates just the fixed header (cheap metadata probe).
[[nodiscard]] SnapshotHeader read_snapshot_header(const std::string& path);

/// True when V2V_STORE_NO_MMAP is set non-empty/non-zero: every mmap-capable
/// reader then takes its buffered fallback (how that path is tested).
[[nodiscard]] bool mmap_disabled_by_env() noexcept;

/// How a reader backs its data: kAuto maps the file when the platform has
/// mmap (and the env override is unset), kBuffered forces the owning-copy
/// path with identical observable behaviour.
enum class MapMode : std::uint8_t { kAuto, kBuffered };

/// One entry of a v2 section table: a named, checksummed byte range.
///
/// v2 on-disk layout, after the unchanged 72-byte fixed header:
///
///   offset 72      section_count u32, reserved u32 (0)
///          80      section_count entries of 32 bytes each:
///                    name[8] (NUL-padded), offset u64, bytes u64,
///                    checksum u64 (FNV-1a 64 over the payload)
///          80+32n  table_checksum u64 (FNV-1a 64 over bytes [72, 80+32n))
///   payloads       each 64-byte aligned; when a float matrix is present
///                  it is the "fmat" section and the fixed header's
///                  data_offset/data_bytes/data_checksum mirror its entry
///                  (the reader rejects a file where they differ), so
///                  MappedEmbedding reads v2-with-floats unchanged.
struct SnapshotSection {
  std::string name;  ///< up to 8 bytes, e.g. "fmat", "pqbk", "ctok"
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

/// What validate_snapshot_image proved about an image: its fixed header
/// and its section table (a v1 file's float region appears as one
/// synthetic "fmat" entry).
struct SnapshotLayout {
  SnapshotHeader header;
  std::vector<SnapshotSection> sections;
};

/// Validates a whole in-memory snapshot image: the fixed header (via
/// decode_snapshot_header, with file_size = image.size()), the section
/// table, the rule that a v2+ float header mirrors its "fmat" entry
/// (kBadHeader otherwise), the float region checksum
/// (kDataChecksumMismatch) and every other section checksum
/// (kSectionChecksumMismatch). Each byte is hashed at most once. This is
/// the validator behind every snapshot reader and the image mode of
/// fuzz/fuzz_snapshot.cpp.
[[nodiscard]] SnapshotLayout validate_snapshot_image(
    std::span<const std::uint8_t> image, const std::string& origin = "<memory>");

/// Collects a v2+ snapshot's payloads in memory — optional float matrix
/// plus arbitrary named sections — and writes them through
/// StreamingSnapshotWriter, so every payload is checksummed and 64-byte
/// aligned. Use StreamingSnapshotWriter directly when the payloads must
/// not be resident all at once.
class SnapshotBuilder {
 public:
  /// Logical corpus shape (rows x dims), independent of which payloads
  /// are attached.
  SnapshotBuilder(std::uint64_t rows, std::uint64_t dims)
      : rows_(rows), dims_(dims) {}

  /// Attaches the float matrix as the "fmat" section (row-padded exactly
  /// like EmbeddingStore::save, so the mmap path stays 64-byte aligned).
  void set_float_matrix(const EmbeddingView& view);

  /// Adds a named section (name must be 1..8 bytes and unique).
  void add_section(const std::string& name,
                   std::vector<std::uint8_t> payload);

  /// Raises the version stamped into the header (attaching trainer state
  /// requires v3 so old tools fail loudly instead of silently dropping
  /// the optimizer state on a rewrite). The builder never writes below
  /// kSnapshotVersionSections.
  void set_min_version(std::uint32_t version);

  /// Serializes everything to `path`; needs at least one section. The
  /// file ends at the last payload byte (no tail padding).
  void write(const std::string& path) const;

 private:
  std::uint64_t rows_;
  std::uint64_t dims_;
  std::uint32_t min_version_ = kSnapshotVersionSections;
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_;
};

/// The one snapshot writer: streams payloads to disk without buffering
/// them (the corpus spool's segments can exceed RAM) and lays out the
/// header, section table and padding. Section names are declared up front
/// (the table layout needs the count); bytes are appended to the current
/// section and checksummed incrementally; next_section() seals one and
/// starts the next, in declared order. finish() seeks back and writes the
/// real header + table — the file is not a valid snapshot until then.
///
/// finish() derives the header from the sections: with an "fmat" section
/// (floats padded to MatrixF::padded_stride(dims)) the header carries
/// dtype float32 and mirrors the "fmat" entry, otherwise dtype none. At
/// version 1 the only section is "fmat", no table is written and the
/// reserved bytes before offset 128 stay zero — a v1 file.
class StreamingSnapshotWriter {
 public:
  StreamingSnapshotWriter(const std::string& path,
                          std::vector<std::string> section_names);
  StreamingSnapshotWriter(const StreamingSnapshotWriter&) = delete;
  StreamingSnapshotWriter& operator=(const StreamingSnapshotWriter&) = delete;
  /// Closing without finish() leaves an invalid file on disk (deliberate:
  /// a crashed producer must not look like a complete spool segment).
  ~StreamingSnapshotWriter() = default;

  /// Appends bytes to the current section.
  void append(const void* data, std::size_t bytes);
  void append(std::span<const std::uint8_t> bytes) {
    append(bytes.data(), bytes.size());
  }

  /// Seals the current section and starts the next declared one.
  void next_section();

  /// Seals the last section and writes the fixed header (rows/dims are
  /// the logical shape stamped into it) plus, from version 2 on, the
  /// checksummed section table. Must be called with every declared
  /// section written. `pad_tail` zero-pads the file end to a 64-byte
  /// boundary (the spool's segment layout); SnapshotBuilder files end at
  /// the last payload byte.
  void finish(std::uint64_t rows, std::uint64_t dims,
              std::uint32_t version = kSnapshotVersionSections,
              bool pad_tail = true);

  /// Total file bytes emitted so far (header/table region included).
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return cursor_; }

 private:
  void seal_current(bool pad);

  std::string path_;
  std::ofstream out_;
  std::vector<std::string> names_;
  std::vector<SnapshotSection> sealed_;
  std::size_t current_ = 0;
  std::uint64_t cursor_ = 0;          ///< absolute end-of-file offset
  std::uint64_t section_offset_ = 0;  ///< current section's start offset
  std::uint64_t section_bytes_ = 0;
  std::uint64_t section_checksum_ = fnv1a64_seed();
  bool finished_ = false;
};

/// The one snapshot reader: a v1/v2/v3 snapshot opened for serving with
/// every byte validated (validate_snapshot_image). The file is opened
/// once; on POSIX it is mmapped read-only and `section()` spans point
/// straight into the mapping; under V2V_STORE_NO_MMAP=1 / MapMode
/// kBuffered (or when mmap fails) it is read into an owning 64-byte-
/// aligned buffer. A v1 file appears as a single synthetic "fmat"
/// section, so callers can treat every version uniformly. Move-only;
/// spans and views stay valid across moves.
class MappedSnapshot {
 public:
  using MapMode = store::MapMode;

  /// Opens and fully validates `path`: header, section table, the "fmat"
  /// mirror rule and every checksum (faults each page exactly once,
  /// doubling as warm-up).
  [[nodiscard]] static MappedSnapshot open(const std::string& path,
                                           MapMode mode = MapMode::kAuto);

  [[nodiscard]] std::size_t rows() const noexcept { return header_.rows; }
  [[nodiscard]] std::size_t dimensions() const noexcept { return header_.dims; }
  [[nodiscard]] const SnapshotHeader& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<SnapshotSection>& sections() const noexcept {
    return sections_;
  }
  [[nodiscard]] bool has_section(const std::string& name) const noexcept;
  /// Checksum-verified payload bytes; throws SnapshotError(kBadHeader) if
  /// the section is absent — probe with has_section first.
  [[nodiscard]] std::span<const std::uint8_t> section(
      const std::string& name) const;

  /// True when the snapshot carries a float matrix ("fmat" / v1 rows).
  [[nodiscard]] bool has_floats() const noexcept {
    return header_.dtype == kDtypeFloat32;
  }
  /// View over the float matrix; V2V_CHECKs has_floats().
  [[nodiscard]] EmbeddingView float_view() const noexcept;
  [[nodiscard]] bool zero_copy() const noexcept { return map_ != nullptr; }

 private:
  /// Unmaps a whole-file mapping of `bytes` bytes.
  struct Unmap {
    std::size_t bytes;
    void operator()(void* base) const noexcept;
  };

  MappedSnapshot() = default;

  std::string path_;
  SnapshotHeader header_;
  std::vector<SnapshotSection> sections_;
  std::unique_ptr<void, Unmap> map_;   ///< non-null iff mmap-backed
  AlignedVector<std::uint8_t> buffer_;  ///< buffered-mode storage
  std::span<const std::uint8_t> image_;  ///< the whole file, in map_ or buffer_
};

}  // namespace v2v::store
