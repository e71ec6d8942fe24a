#include "v2v/store/format.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "v2v/common/check.hpp"
#include "v2v/common/matrix.hpp"

namespace v2v::store {
namespace {

constexpr char kMagic[8] = {'V', '2', 'V', 'S', 'N', 'A', 'P', '1'};
constexpr std::size_t kHeaderBytes = kSnapshotHeaderBytes;

constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

template <typename T>
void put(std::uint8_t* buf, std::size_t offset, T value) noexcept {
  std::memcpy(buf + offset, &value, sizeof(T));
}

template <typename T>
[[nodiscard]] T get(const std::uint8_t* buf, std::size_t offset) noexcept {
  T value;
  std::memcpy(&value, buf + offset, sizeof(T));
  return value;
}

[[noreturn]] void fail(SnapshotErrorCode code, const std::string& path,
                       const std::string& detail) {
  throw_snapshot_error(code, path, detail);
}

constexpr std::size_t kSectionEntryBytes = 32;
constexpr std::size_t kSectionNameBytes = 8;
constexpr std::size_t kSectionTableOffset = kHeaderBytes;
constexpr std::uint32_t kMaxSections = 1024;

[[nodiscard]] std::uint64_t align64(std::uint64_t offset) noexcept {
  return (offset + 63) & ~std::uint64_t{63};
}

/// End of a `count`-entry section table, its trailing checksum included.
[[nodiscard]] std::uint64_t table_end(std::uint64_t count) noexcept {
  return kSectionTableOffset + 8 + count * kSectionEntryBytes + 8;
}

/// Parses and validates the section table of an in-memory snapshot image.
/// v1 files have no table: a nonempty float region is surfaced as one
/// synthetic "fmat" entry. Payload checksums are NOT verified here;
/// table structure, ranges and payload alignment are.
std::vector<SnapshotSection> parse_section_table(const std::uint8_t* base,
                                                 std::uint64_t file_size,
                                                 const SnapshotHeader& h,
                                                 const std::string& path) {
  std::vector<SnapshotSection> out;
  if (h.version < kSnapshotVersionSections) {
    if (h.data_bytes > 0) {
      out.push_back({"fmat", h.data_offset, h.data_bytes, h.data_checksum});
    }
    return out;
  }
  if (file_size < kSectionTableOffset + 16) {
    fail(SnapshotErrorCode::kBadSectionTable, path,
         "file shorter than the section table prologue");
  }
  const auto count = get<std::uint32_t>(base, kSectionTableOffset);
  if (count > kMaxSections) {
    fail(SnapshotErrorCode::kBadSectionTable, path,
         "implausible section count " + std::to_string(count));
  }
  const std::uint64_t entries_end = table_end(count) - 8;
  if (file_size < entries_end + 8) {
    fail(SnapshotErrorCode::kBadSectionTable, path, "truncated section table");
  }
  const std::uint64_t table_bytes = entries_end - kSectionTableOffset;
  if (get<std::uint64_t>(base, entries_end) !=
      fnv1a64(base + kSectionTableOffset, table_bytes)) {
    fail(SnapshotErrorCode::kBadSectionTable, path,
         "section table checksum mismatch");
  }
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t at = kSectionTableOffset + 8 +
                             std::uint64_t{i} * kSectionEntryBytes;
    SnapshotSection s;
    const char* name = reinterpret_cast<const char*>(base + at);
    std::size_t len = 0;
    while (len < kSectionNameBytes && name[len] != '\0') ++len;
    s.name.assign(name, len);
    s.offset = get<std::uint64_t>(base, at + 8);
    s.bytes = get<std::uint64_t>(base, at + 16);
    s.checksum = get<std::uint64_t>(base, at + 24);
    if (s.name.empty() || s.offset < entries_end + 8 ||
        s.bytes > file_size || s.offset > file_size - s.bytes) {
      fail(SnapshotErrorCode::kBadSectionTable, path,
           "section '" + s.name + "' out of range");
    }
    if (s.offset % 64 != 0) {
      fail(SnapshotErrorCode::kBadSectionTable, path,
           "section '" + s.name + "' not 64-byte aligned");
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// A read-only descriptor and the size fstat reports for it: the readers'
/// one way into the file system, so the header, the size and the bytes
/// all come from a single open.
class ReadOnlyFile {
 public:
  explicit ReadOnlyFile(const std::string& path)
      : path_(path), fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) fail(SnapshotErrorCode::kOpenFailed, path, "cannot open");
    struct stat st {};
    if (::fstat(fd_, &st) != 0 || !S_ISREG(st.st_mode)) {
      ::close(fd_);
      fail(SnapshotErrorCode::kOpenFailed, path, "not a readable regular file");
    }
    size_ = static_cast<std::size_t>(st.st_size);
  }
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;
  ~ReadOnlyFile() { ::close(fd_); }

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Reads the file's first `bytes` bytes into `out`.
  void read_prefix(std::uint8_t* out, std::size_t bytes) const {
    std::size_t done = 0;
    while (done < bytes) {
      const ::ssize_t got = ::pread(fd_, out + done, bytes - done,
                                    static_cast<::off_t>(done));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        fail(SnapshotErrorCode::kTruncatedData, path_, "short file read");
      }
      done += static_cast<std::size_t>(got);
    }
  }

 private:
  std::string path_;
  int fd_;
  std::size_t size_ = 0;
};

}  // namespace

std::uint64_t fnv1a64_accumulate(std::uint64_t state, const void* data,
                                 std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t fnv1a64(const void* data, std::size_t bytes) noexcept {
  return fnv1a64_accumulate(fnv1a64_seed(), data, bytes);
}

const char* snapshot_error_name(SnapshotErrorCode code) noexcept {
  switch (code) {
    case SnapshotErrorCode::kOpenFailed: return "open_failed";
    case SnapshotErrorCode::kTruncatedHeader: return "truncated_header";
    case SnapshotErrorCode::kBadMagic: return "bad_magic";
    case SnapshotErrorCode::kHeaderChecksumMismatch: return "header_checksum_mismatch";
    case SnapshotErrorCode::kBadVersion: return "bad_version";
    case SnapshotErrorCode::kBadDtype: return "bad_dtype";
    case SnapshotErrorCode::kBadEndianness: return "bad_endianness";
    case SnapshotErrorCode::kBadHeader: return "bad_header";
    case SnapshotErrorCode::kTruncatedData: return "truncated_data";
    case SnapshotErrorCode::kDataChecksumMismatch: return "data_checksum_mismatch";
    case SnapshotErrorCode::kBadSectionTable: return "bad_section_table";
    case SnapshotErrorCode::kSectionChecksumMismatch: return "section_checksum_mismatch";
  }
  return "unknown";
}

void throw_snapshot_error(SnapshotErrorCode code, const std::string& origin,
                          const std::string& detail) {
  throw SnapshotError(code, "snapshot: " + origin + ": " + detail + " [" +
                                snapshot_error_name(code) + "]");
}

void encode_snapshot_header(const SnapshotHeader& h,
                            std::span<std::uint8_t> out) noexcept {
  V2V_CHECK(out.size() >= kHeaderBytes,
            "encode_snapshot_header: buffer shorter than the fixed header");
  std::uint8_t* buf = out.data();
  std::memcpy(buf, kMagic, sizeof(kMagic));
  put<std::uint32_t>(buf, 8, h.version);
  put<std::uint16_t>(buf, 12, h.dtype);
  put<std::uint16_t>(buf, 14, kEndianTag);
  put<std::uint64_t>(buf, 16, h.rows);
  put<std::uint64_t>(buf, 24, h.dims);
  put<std::uint64_t>(buf, 32, h.row_stride);
  put<std::uint64_t>(buf, 40, h.data_offset);
  put<std::uint64_t>(buf, 48, h.data_bytes);
  put<std::uint64_t>(buf, 56, h.data_checksum);
  put<std::uint64_t>(buf, 64, fnv1a64(buf, 64));
}

SnapshotHeader decode_snapshot_header(std::span<const std::uint8_t> bytes,
                                      std::uint64_t file_size,
                                      const std::string& origin) {
  if (bytes.size() < kHeaderBytes) {
    fail(SnapshotErrorCode::kTruncatedHeader, origin,
         "file shorter than the fixed header");
  }
  const std::uint8_t* buf = bytes.data();
  if (std::memcmp(buf, kMagic, sizeof(kMagic)) != 0) {
    fail(SnapshotErrorCode::kBadMagic, origin, "not a V2V snapshot");
  }
  if (get<std::uint64_t>(buf, 64) != fnv1a64(buf, 64)) {
    fail(SnapshotErrorCode::kHeaderChecksumMismatch, origin,
         "header checksum mismatch");
  }

  SnapshotHeader h;
  h.version = get<std::uint32_t>(buf, 8);
  h.dtype = get<std::uint16_t>(buf, 12);
  const auto endian = get<std::uint16_t>(buf, 14);
  h.rows = get<std::uint64_t>(buf, 16);
  h.dims = get<std::uint64_t>(buf, 24);
  h.row_stride = get<std::uint64_t>(buf, 32);
  h.data_offset = get<std::uint64_t>(buf, 40);
  h.data_bytes = get<std::uint64_t>(buf, 48);
  h.data_checksum = get<std::uint64_t>(buf, 56);

  if (h.version < kSnapshotVersion || h.version > kSnapshotVersionTrainerState) {
    fail(SnapshotErrorCode::kBadVersion, origin,
         "unsupported version " + std::to_string(h.version));
  }
  const bool dtype_none =
      h.dtype == kDtypeNone && h.version >= kSnapshotVersionSections;
  if (h.dtype != kDtypeFloat32 && !dtype_none) {
    fail(SnapshotErrorCode::kBadDtype, origin,
         "unsupported dtype " + std::to_string(h.dtype));
  }
  if (endian != kEndianTag) {
    fail(SnapshotErrorCode::kBadEndianness, origin,
         "byte order does not match this host");
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (dtype_none) {
    // No float region: stride and data byte count must both be zero; the
    // payloads live in the section table instead.
    if (h.row_stride != 0 || h.data_bytes != 0 ||
        h.data_offset < kHeaderBytes || h.data_offset % 64 != 0) {
      fail(SnapshotErrorCode::kBadHeader, origin, "inconsistent header fields");
    }
  } else if (h.row_stride < h.dims || h.data_offset < kHeaderBytes ||
             h.data_offset % 64 != 0 || h.row_stride > kMax / sizeof(float) ||
             (h.row_stride != 0 &&
              h.rows > kMax / (h.row_stride * sizeof(float))) ||
             h.data_bytes != h.rows * h.row_stride * sizeof(float) ||
             h.data_offset > kMax - h.data_bytes) {
    fail(SnapshotErrorCode::kBadHeader, origin, "inconsistent header fields");
  }
  if (file_size < h.data_offset + h.data_bytes) {
    fail(SnapshotErrorCode::kTruncatedData, origin,
         "file shorter than header promises");
  }
  return h;
}

SnapshotLayout validate_snapshot_image(std::span<const std::uint8_t> image,
                                       const std::string& origin) {
  SnapshotLayout out;
  out.header = decode_snapshot_header(image, image.size(), origin);
  const SnapshotHeader& h = out.header;
  out.sections = parse_section_table(image.data(), image.size(), h, origin);

  // The float region is hashed once, as the header's data region; the
  // "fmat" entry it mirrors is then skipped in the section pass below.
  const SnapshotSection* mirror = nullptr;
  if (h.dtype == kDtypeFloat32) {
    for (const auto& s : out.sections) {
      if (s.name == "fmat") {
        mirror = &s;
        break;
      }
    }
    if (h.version >= kSnapshotVersionSections &&
        (mirror == nullptr || mirror->offset != h.data_offset ||
         mirror->bytes != h.data_bytes ||
         mirror->checksum != h.data_checksum)) {
      fail(SnapshotErrorCode::kBadHeader, origin,
           "float header fields do not mirror the 'fmat' section");
    }
    if (fnv1a64(image.data() + h.data_offset,
                static_cast<std::size_t>(h.data_bytes)) != h.data_checksum) {
      fail(SnapshotErrorCode::kDataChecksumMismatch, origin,
           "data checksum mismatch");
    }
  }
  for (const auto& s : out.sections) {
    if (&s == mirror) continue;
    if (fnv1a64(image.data() + s.offset, static_cast<std::size_t>(s.bytes)) !=
        s.checksum) {
      fail(SnapshotErrorCode::kSectionChecksumMismatch, origin,
           "section '" + s.name + "' checksum mismatch");
    }
  }
  return out;
}

SnapshotHeader read_snapshot_header(const std::string& path) {
  const ReadOnlyFile file(path);
  std::uint8_t buf[kHeaderBytes];
  const std::size_t got = std::min(file.size(), kHeaderBytes);
  file.read_prefix(buf, got);
  return decode_snapshot_header({buf, got}, file.size(), path);
}

bool mmap_disabled_by_env() noexcept {
  const char* env = std::getenv("V2V_STORE_NO_MMAP");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void SnapshotBuilder::set_float_matrix(const EmbeddingView& view) {
  V2V_CHECK(view.rows() == rows_ && view.dimensions() == dims_,
            "float matrix shape must match the builder's corpus shape");
  const std::size_t row_stride = MatrixF::padded_stride(dims_);
  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(rows_ * row_stride * sizeof(float)), 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto row = view.row(r);
    std::memcpy(payload.data() + r * row_stride * sizeof(float), row.data(),
                dims_ * sizeof(float));
  }
  add_section("fmat", std::move(payload));
}

void SnapshotBuilder::add_section(const std::string& name,
                                  std::vector<std::uint8_t> payload) {
  V2V_CHECK(!name.empty() && name.size() <= kSectionNameBytes,
            "section name must be 1..8 bytes");
  for (const auto& [existing, bytes] : sections_) {
    (void)bytes;
    V2V_CHECK(existing != name, "duplicate section name");
  }
  sections_.emplace_back(name, std::move(payload));
}

void SnapshotBuilder::set_min_version(std::uint32_t version) {
  V2V_CHECK(version <= kSnapshotVersionTrainerState,
            "SnapshotBuilder: version beyond what this build can write");
  min_version_ = std::max(min_version_, version);
}

void SnapshotBuilder::write(const std::string& path) const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, payload] : sections_) names.push_back(name);
  StreamingSnapshotWriter writer(path, std::move(names));
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    if (i > 0) writer.next_section();
    writer.append(sections_[i].second);
  }
  writer.finish(rows_, dims_, min_version_, /*pad_tail=*/false);
}

StreamingSnapshotWriter::StreamingSnapshotWriter(
    const std::string& path, std::vector<std::string> section_names)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      names_(std::move(section_names)) {
  if (!out_) fail(SnapshotErrorCode::kOpenFailed, path_, "cannot open for writing");
  V2V_CHECK(!names_.empty() && names_.size() <= kMaxSections,
            "StreamingSnapshotWriter: need 1..kMaxSections sections");
  for (std::size_t i = 0; i < names_.size(); ++i) {
    V2V_CHECK(!names_[i].empty() && names_[i].size() <= kSectionNameBytes,
              "section name must be 1..8 bytes");
    for (std::size_t j = 0; j < i; ++j) {
      V2V_CHECK(names_[i] != names_[j], "duplicate section name");
    }
  }
  // Reserve the header + table region (rewritten by finish) and pad up to
  // the first payload's 64-byte-aligned offset.
  section_offset_ = align64(table_end(names_.size()));
  const std::vector<char> zeros(static_cast<std::size_t>(section_offset_), 0);
  out_.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  cursor_ = section_offset_;
}

void StreamingSnapshotWriter::append(const void* data, std::size_t bytes) {
  V2V_CHECK(!finished_, "StreamingSnapshotWriter: append after finish");
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  section_checksum_ = fnv1a64_accumulate(section_checksum_, data, bytes);
  section_bytes_ += bytes;
  cursor_ += bytes;
}

void StreamingSnapshotWriter::seal_current(bool pad) {
  sealed_.push_back({names_[current_], section_offset_, section_bytes_,
                     section_checksum_});
  if (pad) {
    const std::uint64_t aligned = align64(cursor_);
    const std::vector<char> zeros(static_cast<std::size_t>(aligned - cursor_), 0);
    out_.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
    cursor_ = aligned;
  }
  section_offset_ = cursor_;
  section_bytes_ = 0;
  section_checksum_ = fnv1a64_seed();
}

void StreamingSnapshotWriter::next_section() {
  V2V_CHECK(!finished_, "StreamingSnapshotWriter: next_section after finish");
  V2V_CHECK(current_ + 1 < names_.size(),
            "StreamingSnapshotWriter: no more declared sections");
  seal_current(/*pad=*/true);
  ++current_;
}

void StreamingSnapshotWriter::finish(std::uint64_t rows, std::uint64_t dims,
                                     std::uint32_t version, bool pad_tail) {
  V2V_CHECK(!finished_, "StreamingSnapshotWriter: double finish");
  V2V_CHECK(current_ + 1 == names_.size(),
            "StreamingSnapshotWriter: not every declared section was written");
  V2V_CHECK(version >= kSnapshotVersion &&
                version <= kSnapshotVersionTrainerState,
            "StreamingSnapshotWriter: version beyond what this build can write");
  seal_current(pad_tail);
  finished_ = true;

  const auto fmat = std::find_if(
      sealed_.begin(), sealed_.end(),
      [](const SnapshotSection& s) { return s.name == "fmat"; });
  V2V_CHECK(version >= kSnapshotVersionSections ||
                (sealed_.size() == 1 && fmat != sealed_.end()),
            "StreamingSnapshotWriter: a v1 snapshot holds exactly one 'fmat'");
  SnapshotHeader h;
  h.version = version;
  h.rows = rows;
  h.dims = dims;
  if (fmat != sealed_.end()) {
    h.dtype = kDtypeFloat32;
    h.row_stride = MatrixF::padded_stride(dims);
    V2V_CHECK(fmat->bytes == rows * h.row_stride * sizeof(float),
              "StreamingSnapshotWriter: 'fmat' must hold rows x "
              "padded_stride(dims) floats");
    h.data_offset = fmat->offset;
    h.data_bytes = fmat->bytes;
    h.data_checksum = fmat->checksum;
  } else {
    // No float region: data_offset names where the payloads begin.
    h.dtype = kDtypeNone;
    h.data_offset = sealed_.front().offset;
  }

  std::uint8_t header[kHeaderBytes];
  encode_snapshot_header(h, header);
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(header), kHeaderBytes);
  if (version >= kSnapshotVersionSections) {
    // Section table: count + reserved, entries, then the table checksum.
    std::vector<std::uint8_t> table(table_end(sealed_.size()) -
                                        kSectionTableOffset,
                                    0);
    put<std::uint32_t>(table.data(), 0,
                       static_cast<std::uint32_t>(sealed_.size()));
    for (std::size_t i = 0; i < sealed_.size(); ++i) {
      const std::size_t at = 8 + i * kSectionEntryBytes;
      std::memcpy(table.data() + at, sealed_[i].name.data(),
                  sealed_[i].name.size());
      put<std::uint64_t>(table.data(), at + 8, sealed_[i].offset);
      put<std::uint64_t>(table.data(), at + 16, sealed_[i].bytes);
      put<std::uint64_t>(table.data(), at + 24, sealed_[i].checksum);
    }
    const std::size_t sum_at = table.size() - 8;
    put<std::uint64_t>(table.data(), sum_at, fnv1a64(table.data(), sum_at));
    out_.write(reinterpret_cast<const char*>(table.data()),
               static_cast<std::streamsize>(table.size()));
  }
  out_.flush();
  if (!out_) fail(SnapshotErrorCode::kOpenFailed, path_, "write failed");
}

void MappedSnapshot::Unmap::operator()(void* base) const noexcept {
  ::munmap(base, bytes);
}

MappedSnapshot MappedSnapshot::open(const std::string& path, MapMode mode) {
  const ReadOnlyFile file(path);
  MappedSnapshot out;
  out.path_ = path;
  if (mode == MapMode::kAuto && !mmap_disabled_by_env() && file.size() > 0) {
    void* base =
        ::mmap(nullptr, file.size(), PROT_READ, MAP_PRIVATE, file.fd(), 0);
    // A refused mmap (e.g. an exotic filesystem) takes the buffered path
    // rather than failing a readable file.
    if (base != MAP_FAILED) {
      out.map_ = std::unique_ptr<void, Unmap>(base, Unmap{file.size()});
      out.image_ = {static_cast<const std::uint8_t*>(base), file.size()};
    }
  }
  if (out.map_ == nullptr) {
    out.buffer_.resize(file.size());
    file.read_prefix(out.buffer_.data(), file.size());
    out.image_ = out.buffer_;
  }
  SnapshotLayout layout = validate_snapshot_image(out.image_, path);
  out.header_ = layout.header;
  out.sections_ = std::move(layout.sections);
  return out;
}

bool MappedSnapshot::has_section(const std::string& name) const noexcept {
  for (const auto& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

std::span<const std::uint8_t> MappedSnapshot::section(
    const std::string& name) const {
  for (const auto& s : sections_) {
    if (s.name == name) {
      return image_.subspan(static_cast<std::size_t>(s.offset),
                            static_cast<std::size_t>(s.bytes));
    }
  }
  fail(SnapshotErrorCode::kBadHeader, path_,
       "section '" + name + "' not present");
}

EmbeddingView MappedSnapshot::float_view() const noexcept {
  V2V_CHECK(has_floats(), "snapshot carries no float matrix");
  const auto* data =
      reinterpret_cast<const float*>(image_.data() + header_.data_offset);
  return EmbeddingView(data, header_.rows, header_.dims, header_.row_stride);
}

}  // namespace v2v::store
