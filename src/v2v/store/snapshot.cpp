#include "v2v/store/snapshot.hpp"

#include <algorithm>
#include <vector>

#include "v2v/common/matrix.hpp"

namespace v2v::store {

void EmbeddingStore::save(const embed::Embedding& embedding,
                          const std::string& path) {
  StreamingSnapshotWriter writer(path, {"fmat"});
  const std::size_t dims = embedding.dimensions();
  std::vector<float> rowbuf(MatrixF::padded_stride(dims), 0.0f);
  for (std::size_t v = 0; v < embedding.vertex_count(); ++v) {
    const auto r = embedding.vector(v);
    std::copy(r.begin(), r.end(), rowbuf.begin());
    writer.append(rowbuf.data(), rowbuf.size() * sizeof(float));
  }
  writer.finish(embedding.vertex_count(), dims, kSnapshotVersion);
}

SnapshotHeader EmbeddingStore::read_header(const std::string& path) {
  return read_snapshot_header(path);
}

embed::Embedding EmbeddingStore::load(const std::string& path) {
  const MappedEmbedding mapped = MappedEmbedding::open(path);
  embed::Embedding out(mapped.rows(), mapped.dimensions());
  for (std::size_t v = 0; v < mapped.rows(); ++v) {
    const auto row = mapped.row(v);
    std::copy(row.begin(), row.end(), out.vector(v).begin());
  }
  return out;
}

MappedEmbedding MappedEmbedding::open(const std::string& path, MapMode mode) {
  MappedSnapshot snapshot = MappedSnapshot::open(path, mode);
  if (!snapshot.has_floats()) {
    throw_snapshot_error(SnapshotErrorCode::kBadDtype, path,
                         "snapshot carries no float matrix");
  }
  return MappedEmbedding(std::move(snapshot));
}

void convert_text_to_snapshot(const std::string& text_path,
                              const std::string& snapshot_path) {
  EmbeddingStore::save(embed::Embedding::load_text_file(text_path), snapshot_path);
}

void convert_snapshot_to_text(const std::string& snapshot_path,
                              const std::string& text_path) {
  EmbeddingStore::load(snapshot_path).save_text_file(text_path);
}

}  // namespace v2v::store
