// Fuzz harness for snapshot validation (store/format.hpp). Every input is
// fed to both validators:
//
//   - header mode: decode_snapshot_header. The last 8 bytes (when present)
//     are a little-endian purported file size — the validator cross-checks
//     the header's promised data region against it — and everything before
//     them is the header candidate. Shorter inputs are fed whole with
//     file_size = input size, which exercises the truncated-header path.
//   - image mode: validate_snapshot_image over the whole input as a file
//     image — header, section table, the "fmat" mirror rule and every
//     checksum. This is the validator behind MappedSnapshot::open, so it
//     covers what every reader (MappedSnapshot, MappedEmbedding,
//     EmbeddingStore::load, the corpus spool) parses.
//
// Invariants on accept: every field restriction the format documents must
// actually hold, every section lies inside the image, a float header
// mirrors its "fmat" entry, and validation must be deterministic (same
// bytes -> same result). Every reject must be a typed SnapshotError, never
// UB — the corruption-matrix tests assert exact codes on curated samples;
// the fuzzer asserts "typed throw or valid layout" on arbitrary ones.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "v2v/store/format.hpp"

#define FUZZ_CHECK(cond) \
  do {                   \
    if (!(cond)) __builtin_trap(); \
  } while (0)

namespace {

void check_header_mode(const std::uint8_t* data, std::size_t size) {
  std::span<const std::uint8_t> header(data, size);
  std::uint64_t file_size = size;
  if (size >= 8) {
    header = header.first(size - 8);
    std::uint64_t raw = 0;
    std::memcpy(&raw, data + size - 8, sizeof raw);
    file_size = raw;
  }

  try {
    const v2v::store::SnapshotHeader h =
        v2v::store::decode_snapshot_header(header, file_size);
    FUZZ_CHECK(h.version >= v2v::store::kSnapshotVersion &&
               h.version <= v2v::store::kSnapshotVersionTrainerState);
    // A dtype-less header (quantized payloads only) is legal from the
    // section-table version on and must carry an empty float region.
    const bool dtype_none =
        h.dtype == v2v::store::kDtypeNone &&
        h.version >= v2v::store::kSnapshotVersionSections;
    FUZZ_CHECK(h.dtype == v2v::store::kDtypeFloat32 || dtype_none);
    if (dtype_none) {
      FUZZ_CHECK(h.row_stride == 0 && h.data_bytes == 0);
    } else {
      FUZZ_CHECK(h.row_stride >= h.dims);
      FUZZ_CHECK(h.data_bytes == h.rows * h.row_stride * sizeof(float));
    }
    FUZZ_CHECK(h.data_offset >= v2v::store::kSnapshotHeaderBytes);
    FUZZ_CHECK(h.data_offset % 64 == 0);
    FUZZ_CHECK(h.data_offset + h.data_bytes >= h.data_offset);  // no wrap
    FUZZ_CHECK(h.data_offset + h.data_bytes <= file_size);

    // Determinism: a second decode of the same bytes agrees exactly.
    const v2v::store::SnapshotHeader again =
        v2v::store::decode_snapshot_header(header, file_size);
    FUZZ_CHECK(again.rows == h.rows && again.dims == h.dims &&
               again.row_stride == h.row_stride &&
               again.data_offset == h.data_offset &&
               again.data_bytes == h.data_bytes &&
               again.data_checksum == h.data_checksum);
  } catch (const v2v::store::SnapshotError& e) {
    // Typed rejection is the contract; the code must stringify.
    FUZZ_CHECK(v2v::store::snapshot_error_name(e.code()) != nullptr);
  }
}

void check_image_mode(const std::uint8_t* data, std::size_t size) {
  namespace store = v2v::store;
  const std::span<const std::uint8_t> image(data, size);
  try {
    const store::SnapshotLayout layout = store::validate_snapshot_image(image);
    const store::SnapshotHeader& h = layout.header;
    FUZZ_CHECK(h.data_offset % 64 == 0);
    FUZZ_CHECK(h.data_offset + h.data_bytes <= size);
    const store::SnapshotSection* fmat = nullptr;
    for (const auto& s : layout.sections) {
      FUZZ_CHECK(!s.name.empty() && s.name.size() <= 8);
      FUZZ_CHECK(s.offset >= store::kSnapshotHeaderBytes && s.offset % 64 == 0);
      FUZZ_CHECK(s.bytes <= size && s.offset <= size - s.bytes);
      FUZZ_CHECK(store::fnv1a64(data + s.offset, s.bytes) == s.checksum);
      if (s.name == "fmat" && fmat == nullptr) fmat = &s;
    }
    if (h.dtype == store::kDtypeFloat32) {
      FUZZ_CHECK(store::fnv1a64(data + h.data_offset, h.data_bytes) ==
                 h.data_checksum);
      if (h.version >= store::kSnapshotVersionSections || h.data_bytes > 0) {
        FUZZ_CHECK(fmat != nullptr && fmat->offset == h.data_offset &&
                   fmat->bytes == h.data_bytes &&
                   fmat->checksum == h.data_checksum);
      }
    }

    // Determinism: a second validation of the same bytes agrees exactly.
    const store::SnapshotLayout again = store::validate_snapshot_image(image);
    FUZZ_CHECK(again.sections.size() == layout.sections.size());
    FUZZ_CHECK(again.header.data_offset == h.data_offset &&
               again.header.data_checksum == h.data_checksum);
  } catch (const store::SnapshotError& e) {
    FUZZ_CHECK(store::snapshot_error_name(e.code()) != nullptr);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  check_header_mode(data, size);
  check_image_mode(data, size);
  return 0;
}
