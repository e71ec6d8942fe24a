// Snapshot format tests: round-trips, zero-copy mapping, the buffered
// fallback, the converters, and a corruption matrix asserting that every
// malformed input fails with the exact typed SnapshotErrorCode.
#include "v2v/store/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "v2v/common/rng.hpp"

namespace v2v::store {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process *and* test case: ctest runs cases as parallel
    // processes, so a shared path would let one TearDown delete another
    // test's files mid-run.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
#if defined(__unix__) || defined(__APPLE__)
    const long uid = static_cast<long>(::getpid());
#else
    const long uid = 0;  // cases in one process are sequential anyway
#endif
    dir_ = fs::temp_directory_path() /
           ("v2v_snapshot_test_" + std::to_string(uid) + "_" + info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

embed::Embedding make_embedding(std::size_t n, std::size_t d, std::uint64_t seed) {
  embed::Embedding e(n, d);
  Rng rng(seed);
  for (std::size_t v = 0; v < n; ++v) {
    for (auto& x : e.vector(v)) x = static_cast<float>(rng.next_gaussian());
  }
  return e;
}

bool same_rows(const embed::Embedding& a, const embed::Embedding& b) {
  if (a.vertex_count() != b.vertex_count() || a.dimensions() != b.dimensions()) {
    return false;
  }
  for (std::size_t v = 0; v < a.vertex_count(); ++v) {
    const auto ra = a.vector(v), rb = b.vector(v);
    if (std::memcmp(ra.data(), rb.data(), ra.size_bytes()) != 0) return false;
  }
  return true;
}

std::vector<unsigned char> read_file(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& p, const std::vector<unsigned char>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes the header checksum (over bytes [0, 64), stored at 64) so a
/// forged header passes the integrity check and reaches field validation.
void reseal_header(std::vector<unsigned char>& bytes) {
  const std::uint64_t sum = fnv1a64(bytes.data(), 64);
  std::memcpy(bytes.data() + 64, &sum, sizeof(sum));
}

SnapshotErrorCode load_error(const std::string& p) {
  try {
    (void)EmbeddingStore::load(p);
  } catch (const SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "load of " << p << " did not throw SnapshotError";
  return SnapshotErrorCode::kOpenFailed;
}

SnapshotErrorCode map_error(const std::string& p, MappedEmbedding::MapMode mode) {
  try {
    (void)MappedEmbedding::open(p, mode);
  } catch (const SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "open of " << p << " did not throw SnapshotError";
  return SnapshotErrorCode::kOpenFailed;
}

TEST_F(SnapshotTest, SaveLoadRoundTripIsBitwiseExact) {
  const auto e = make_embedding(37, 19, 5);
  const auto p = path("rt.v2vsnap");
  EmbeddingStore::save(e, p);
  const auto back = EmbeddingStore::load(p);
  EXPECT_TRUE(same_rows(e, back));
}

TEST_F(SnapshotTest, EmptyEmbeddingRoundTrips) {
  const embed::Embedding e(0, 8);
  const auto p = path("empty.v2vsnap");
  EmbeddingStore::save(e, p);
  const auto back = EmbeddingStore::load(p);
  EXPECT_EQ(back.vertex_count(), 0u);
  EXPECT_EQ(back.dimensions(), 8u);
  const auto mapped = MappedEmbedding::open(p);
  EXPECT_EQ(mapped.rows(), 0u);
}

TEST_F(SnapshotTest, ReadHeaderReportsGeometry) {
  const auto e = make_embedding(12, 10, 3);
  const auto p = path("hdr.v2vsnap");
  EmbeddingStore::save(e, p);
  const auto h = EmbeddingStore::read_header(p);
  EXPECT_EQ(h.version, kSnapshotVersion);
  EXPECT_EQ(h.dtype, kDtypeFloat32);
  EXPECT_EQ(h.rows, 12u);
  EXPECT_EQ(h.dims, 10u);
  EXPECT_GE(h.row_stride, h.dims);
  EXPECT_EQ(h.data_offset % 64, 0u);
  EXPECT_EQ(h.data_bytes, h.rows * h.row_stride * sizeof(float));
}

TEST_F(SnapshotTest, MappedOpenIsZeroCopyWithAlignedRows) {
  const auto e = make_embedding(9, 17, 7);
  const auto p = path("map.v2vsnap");
  EmbeddingStore::save(e, p);
  const auto mapped = MappedEmbedding::open(p);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(mapped.zero_copy());
#endif
  ASSERT_EQ(mapped.rows(), 9u);
  ASSERT_EQ(mapped.dimensions(), 17u);
  for (std::size_t v = 0; v < mapped.rows(); ++v) {
    const auto row = mapped.row(v);
    // data_offset and row_stride are both 64-byte multiples, so every row
    // keeps the Matrix alignment contract even straight out of the map.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(row.data()) % 64, 0u);
    const auto src = e.vector(v);
    EXPECT_EQ(std::memcmp(row.data(), src.data(), src.size_bytes()), 0);
  }
}

TEST_F(SnapshotTest, BufferedModeMatchesMapped) {
  const auto e = make_embedding(14, 6, 11);
  const auto p = path("buf.v2vsnap");
  EmbeddingStore::save(e, p);
  const auto buffered =
      MappedEmbedding::open(p, MappedEmbedding::MapMode::kBuffered);
  EXPECT_FALSE(buffered.zero_copy());
  ASSERT_EQ(buffered.rows(), 14u);
  const auto snap = MappedSnapshot::open(p, MappedSnapshot::MapMode::kBuffered);
  EXPECT_FALSE(snap.zero_copy());
  const auto snap_view = snap.float_view();
  ASSERT_EQ(snap_view.rows(), 14u);
  for (std::size_t v = 0; v < buffered.rows(); ++v) {
    const auto src = e.vector(v);
    EXPECT_EQ(std::memcmp(buffered.row(v).data(), src.data(), src.size_bytes()), 0);
    // The owning buffer keeps the same 64-byte row alignment as the map.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffered.row(v).data()) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(snap_view.row(v).data()) % 64, 0u);
  }
}

TEST_F(SnapshotTest, NoMmapEnvForcesBufferedFallback) {
  const auto e = make_embedding(5, 4, 13);
  const auto p = path("env.v2vsnap");
  EmbeddingStore::save(e, p);
  ::setenv("V2V_STORE_NO_MMAP", "1", 1);
  const auto mapped = MappedEmbedding::open(p);
  ::unsetenv("V2V_STORE_NO_MMAP");
  EXPECT_FALSE(mapped.zero_copy());
  const auto src = e.vector(2);
  EXPECT_EQ(std::memcmp(mapped.row(2).data(), src.data(), src.size_bytes()), 0);
}

TEST_F(SnapshotTest, MoveTransfersOwnership) {
  const auto e = make_embedding(6, 3, 17);
  const auto p = path("move.v2vsnap");
  EmbeddingStore::save(e, p);
  auto a = MappedEmbedding::open(p);
  const MappedEmbedding b = std::move(a);
  ASSERT_EQ(b.rows(), 6u);
  const auto src = e.vector(1);
  EXPECT_EQ(std::memcmp(b.row(1).data(), src.data(), src.size_bytes()), 0);
}

TEST_F(SnapshotTest, TextConvertersRoundTrip) {
  const auto e = make_embedding(8, 5, 19);
  const auto text_in = path("in.txt"), snap = path("conv.v2vsnap"),
             text_out = path("out.txt");
  e.save_text_file(text_in);
  convert_text_to_snapshot(text_in, snap);
  const auto from_snap = EmbeddingStore::load(snap);
  EXPECT_TRUE(same_rows(e, from_snap));
  convert_snapshot_to_text(snap, text_out);
  EXPECT_TRUE(same_rows(e, embed::Embedding::load_text_file(text_out)));
}

// ---- Corruption matrix: every case must fail with its exact typed code,
// ---- on both the copying and the mapped load path.

TEST_F(SnapshotTest, MissingFileIsOpenFailed) {
  EXPECT_EQ(load_error(path("nope.v2vsnap")), SnapshotErrorCode::kOpenFailed);
  EXPECT_EQ(map_error(path("nope.v2vsnap"), MappedEmbedding::MapMode::kAuto),
            SnapshotErrorCode::kOpenFailed);
}

TEST_F(SnapshotTest, TruncatedHeaderIsTyped) {
  const auto p = path("short.v2vsnap");
  EmbeddingStore::save(make_embedding(4, 3, 1), p);
  auto bytes = read_file(p);
  bytes.resize(20);
  write_file(p, bytes);
  EXPECT_EQ(load_error(p), SnapshotErrorCode::kTruncatedHeader);
  EXPECT_EQ(map_error(p, MappedEmbedding::MapMode::kAuto),
            SnapshotErrorCode::kTruncatedHeader);
}

TEST_F(SnapshotTest, BadMagicIsTyped) {
  const auto p = path("magic.v2vsnap");
  EmbeddingStore::save(make_embedding(4, 3, 2), p);
  auto bytes = read_file(p);
  bytes[0] = 'X';
  write_file(p, bytes);
  EXPECT_EQ(load_error(p), SnapshotErrorCode::kBadMagic);
}

TEST_F(SnapshotTest, HeaderBitflipIsChecksumMismatch) {
  const auto p = path("hdrflip.v2vsnap");
  EmbeddingStore::save(make_embedding(4, 3, 3), p);
  auto bytes = read_file(p);
  bytes[17] ^= 0x40;  // inside the rows field, checksum NOT resealed
  write_file(p, bytes);
  EXPECT_EQ(load_error(p), SnapshotErrorCode::kHeaderChecksumMismatch);
  EXPECT_EQ(map_error(p, MappedEmbedding::MapMode::kAuto),
            SnapshotErrorCode::kHeaderChecksumMismatch);
}

TEST_F(SnapshotTest, UnknownVersionIsTyped) {
  const auto p = path("ver.v2vsnap");
  EmbeddingStore::save(make_embedding(4, 3, 4), p);
  auto bytes = read_file(p);
  const std::uint32_t version = 99;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  reseal_header(bytes);
  write_file(p, bytes);
  EXPECT_EQ(load_error(p), SnapshotErrorCode::kBadVersion);
}

TEST_F(SnapshotTest, UnknownDtypeIsTyped) {
  const auto p = path("dtype.v2vsnap");
  EmbeddingStore::save(make_embedding(4, 3, 5), p);
  auto bytes = read_file(p);
  const std::uint16_t dtype = 7;
  std::memcpy(bytes.data() + 12, &dtype, sizeof(dtype));
  reseal_header(bytes);
  write_file(p, bytes);
  EXPECT_EQ(load_error(p), SnapshotErrorCode::kBadDtype);
}

TEST_F(SnapshotTest, ByteSwappedEndianTagIsTyped) {
  const auto p = path("endian.v2vsnap");
  EmbeddingStore::save(make_embedding(4, 3, 6), p);
  auto bytes = read_file(p);
  const std::uint16_t swapped = 0x0201;
  std::memcpy(bytes.data() + 14, &swapped, sizeof(swapped));
  reseal_header(bytes);
  write_file(p, bytes);
  EXPECT_EQ(load_error(p), SnapshotErrorCode::kBadEndianness);
}

TEST_F(SnapshotTest, InconsistentDimsIsBadHeader) {
  const auto p = path("dims.v2vsnap");
  EmbeddingStore::save(make_embedding(4, 3, 7), p);
  auto bytes = read_file(p);
  // dims > row_stride: geometrically impossible, caught before any row math.
  const std::uint64_t dims = 1u << 20;
  std::memcpy(bytes.data() + 24, &dims, sizeof(dims));
  reseal_header(bytes);
  write_file(p, bytes);
  EXPECT_EQ(load_error(p), SnapshotErrorCode::kBadHeader);
  EXPECT_EQ(map_error(p, MappedEmbedding::MapMode::kAuto),
            SnapshotErrorCode::kBadHeader);
}

TEST_F(SnapshotTest, OverflowingRowCountIsBadHeader) {
  const auto p = path("overflow.v2vsnap");
  EmbeddingStore::save(make_embedding(4, 3, 8), p);
  auto bytes = read_file(p);
  const std::uint64_t rows = ~std::uint64_t{0} / 2;  // rows * stride * 4 wraps
  std::memcpy(bytes.data() + 16, &rows, sizeof(rows));
  reseal_header(bytes);
  write_file(p, bytes);
  EXPECT_EQ(load_error(p), SnapshotErrorCode::kBadHeader);
}

TEST_F(SnapshotTest, TruncatedDataIsTyped) {
  const auto p = path("shortdata.v2vsnap");
  EmbeddingStore::save(make_embedding(8, 5, 9), p);
  auto bytes = read_file(p);
  bytes.resize(bytes.size() - 16);
  write_file(p, bytes);
  EXPECT_EQ(load_error(p), SnapshotErrorCode::kTruncatedData);
  EXPECT_EQ(map_error(p, MappedEmbedding::MapMode::kAuto),
            SnapshotErrorCode::kTruncatedData);
}

TEST_F(SnapshotTest, DataBitflipIsChecksumMismatch) {
  const auto p = path("dataflip.v2vsnap");
  EmbeddingStore::save(make_embedding(8, 5, 10), p);
  auto bytes = read_file(p);
  bytes[bytes.size() - 2] ^= 0x01;
  write_file(p, bytes);
  EXPECT_EQ(load_error(p), SnapshotErrorCode::kDataChecksumMismatch);
  EXPECT_EQ(map_error(p, MappedEmbedding::MapMode::kAuto),
            SnapshotErrorCode::kDataChecksumMismatch);
  EXPECT_EQ(map_error(p, MappedEmbedding::MapMode::kBuffered),
            SnapshotErrorCode::kDataChecksumMismatch);
  for (const auto mode :
       {MappedSnapshot::MapMode::kAuto, MappedSnapshot::MapMode::kBuffered}) {
    try {
      (void)MappedSnapshot::open(p, mode);
      ADD_FAILURE() << "MappedSnapshot accepted a corrupt float region";
    } catch (const SnapshotError& err) {
      EXPECT_EQ(err.code(), SnapshotErrorCode::kDataChecksumMismatch);
    }
  }
}

// Whole-file FNV-1a 64 hashes pin the bytes each writer emits — header
// fields, section table, padding — so a layout change cannot slip in
// unnoticed: v1 save, a v3 builder file with floats and two sections,
// and a two-section streamed file (whose tail is padded).
TEST_F(SnapshotTest, WrittenBytesArePinned) {
  embed::Embedding e(3, 5);
  for (std::size_t v = 0; v < 3; ++v) {
    for (std::size_t d = 0; d < 5; ++d) {
      e.vector(v)[d] = static_cast<float>(v) - 0.25f * static_cast<float>(d);
    }
  }
  const auto payload = [](std::size_t n, unsigned mul) {
    std::vector<std::uint8_t> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = static_cast<std::uint8_t>(i * mul + 3);
    }
    return b;
  };
  const auto codes = payload(100, 7), freq = payload(37, 13);
  const auto file_hash = [](const std::string& p) {
    const auto bytes = read_file(p);
    return fnv1a64(bytes.data(), bytes.size());
  };

  const auto v1 = path("pin_v1.v2vsnap");
  EmbeddingStore::save(e, v1);
  EXPECT_EQ(file_hash(v1), 0x53b1b4700780a72bULL);

  const auto v3 = path("pin_v3.v2vsnap");
  SnapshotBuilder builder(3, 5);
  builder.set_float_matrix(EmbeddingView::of(e));
  builder.add_section("pqbk", codes);
  builder.add_section("tfreq", freq);
  builder.set_min_version(kSnapshotVersionTrainerState);
  builder.write(v3);
  EXPECT_EQ(file_hash(v3), 0x737ea52a12f0d7ebULL);

  const auto streamed = path("pin_stream.v2vseg");
  StreamingSnapshotWriter writer(streamed, {"ctok", "cofs"});
  writer.append(codes.data(), 13);
  writer.next_section();
  writer.append(freq.data(), 21);
  writer.finish(4, 0);
  EXPECT_EQ(file_hash(streamed), 0x23a50d6a331fc674ULL);
}

// decode_snapshot_header is the in-memory validator the file readers (and
// fuzz/fuzz_snapshot.cpp) share: it must agree with read_header on a real
// file and reject in-memory corruption with the same typed codes.
TEST_F(SnapshotTest, InMemoryHeaderDecodeMatchesFileReader) {
  const auto p = path("inmemory.v2vsnap");
  EmbeddingStore::save(make_embedding(6, 3, 11), p);
  const auto bytes = read_file(p);
  const SnapshotHeader from_file = EmbeddingStore::read_header(p);

  std::span<const std::uint8_t> header(bytes.data(), kSnapshotHeaderBytes);
  const SnapshotHeader decoded = decode_snapshot_header(header, bytes.size());
  EXPECT_EQ(decoded.rows, from_file.rows);
  EXPECT_EQ(decoded.dims, from_file.dims);
  EXPECT_EQ(decoded.row_stride, from_file.row_stride);
  EXPECT_EQ(decoded.data_offset, from_file.data_offset);
  EXPECT_EQ(decoded.data_bytes, from_file.data_bytes);
  EXPECT_EQ(decoded.data_checksum, from_file.data_checksum);

  const auto code_of = [&](std::span<const std::uint8_t> h, std::uint64_t sz) {
    try {
      (void)decode_snapshot_header(h, sz);
    } catch (const SnapshotError& e) {
      return e.code();
    }
    return SnapshotErrorCode::kOpenFailed;  // sentinel: "did not throw"
  };
  EXPECT_EQ(code_of(header.first(40), bytes.size()),
            SnapshotErrorCode::kTruncatedHeader);
  EXPECT_EQ(code_of(header, from_file.data_offset + from_file.data_bytes - 1),
            SnapshotErrorCode::kTruncatedData);
  auto corrupt = bytes;
  corrupt[0] ^= 0xff;
  EXPECT_EQ(code_of({corrupt.data(), kSnapshotHeaderBytes}, corrupt.size()),
            SnapshotErrorCode::kBadMagic);
  corrupt = bytes;
  corrupt[20] ^= 0x01;  // inside rows: integrity check fires first
  EXPECT_EQ(code_of({corrupt.data(), kSnapshotHeaderBytes}, corrupt.size()),
            SnapshotErrorCode::kHeaderChecksumMismatch);
}

}  // namespace
}  // namespace v2v::store
