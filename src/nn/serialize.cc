#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define RESUFORMER_HAVE_MMAP 1
#endif

#include "common/metrics.h"
#include "common/string_util.h"

namespace resuformer {
namespace nn {

namespace {
// RFP3 keeps a shape index at the front of the file and aligns every raw
// payload to 64 bytes so the whole file can be mmap'd and parameters
// pointed straight at the page cache. The older layouts' magics are still
// recognised, only to refuse the file by name: RFP1 stored only flattened
// element counts (a transposed projection loaded silently into the wrong
// layout), and RFP2 packed each payload inline after its shape record, so
// it cannot be mapped. All multi-byte fields are little-endian; a
// big-endian reader rejects the magic rather than mis-reading payloads.
constexpr uint32_t kMagicV1 = 0x52465031;  // "RFP1"
constexpr uint32_t kMagicV2 = 0x52465032;  // "RFP2"
constexpr uint32_t kMagicV3 = 0x52465033;  // "RFP3"

constexpr uint32_t kMaxRank = 8;
constexpr uint64_t kPayloadAlign = 64;

std::string ShapeToString(const std::vector<int>& shape) {
  std::string s = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

Status CountMismatch(const std::string& source, uint64_t have, size_t want) {
  return Status::InvalidArgument(StringPrintf(
      "parameter count mismatch: %s has %llu, module has %zu",
      source.c_str(), static_cast<unsigned long long>(have), want));
}

Status ShapeMismatch(const std::string& source, size_t index,
                     const std::vector<int>& have,
                     const std::vector<int>& want) {
  return Status::InvalidArgument(StringPrintf(
      "parameter %zu shape mismatch: %s has %s, module has %s", index,
      source.c_str(), ShapeToString(have).c_str(),
      ShapeToString(want).c_str()));
}

/// InvalidArgument unless `shapes` matches `params` in count and in every
/// shape, checked before anything is copied. Equal element counts are not
/// enough: a [3,5] payload copied into a [5,3] parameter would silently
/// transpose it.
Status CheckShapes(const std::string& source,
                   const std::vector<std::vector<int>>& shapes,
                   const std::vector<Tensor>& params) {
  if (shapes.size() != params.size()) {
    return CountMismatch(source, shapes.size(), params.size());
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (shapes[i] != params[i].shape()) {
      return ShapeMismatch(source, i, shapes[i], params[i].shape());
    }
  }
  return Status::OK();
}

#if !defined(RESUFORMER_HAVE_MMAP)
/// Byte size of the whole file, or -1 on failure. Pre-validating payload
/// extents against this is what keeps a corrupt header from driving huge
/// allocations or silent short reads.
int64_t FileSizeOf(std::ifstream* in) {
  in->seekg(0, std::ios::end);
  const std::streamoff size = in->tellg();
  in->seekg(0, std::ios::beg);
  return in->good() ? static_cast<int64_t>(size) : -1;
}
#endif

Status TruncatedRecord(size_t index, const std::string& path) {
  return Status::FailedPrecondition(StringPrintf(
      "parameter %zu: record header extends past end of file %s",
      index, path.c_str()));
}

/// One parsed RFP3 index record.
struct ParamRecord {
  std::vector<int> shape;
  uint64_t elements = 0;
  uint64_t payload_offset = 0;
};

#if defined(RESUFORMER_HAVE_MMAP)
/// Owns one whole-checkpoint mapping; every parameter's external_owner is a
/// shared_ptr to one of these, so the pages outlive the last tensor using
/// them and the mmap_bytes gauge tracks live mappings exactly.
struct MmapRegion {
  void* base = nullptr;
  size_t bytes = 0;
  ~MmapRegion() {
    if (base != nullptr) {
      ::munmap(base, bytes);
      metrics::MetricsRegistry::Global()
          .GetGauge("checkpoint.mmap_bytes")
          ->Add(-static_cast<int64_t>(bytes));
    }
  }
};
#endif

/// Bounds-checked little-endian cursor over an in-memory RFP3 image.
struct ByteCursor {
  const unsigned char* base = nullptr;
  uint64_t size = 0;
  uint64_t pos = 0;
  bool Read(void* out, uint64_t n) {
    if (pos + n > size || pos + n < pos) return false;
    std::memcpy(out, base + pos, n);
    pos += n;
    return true;
  }
  bool ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }
  bool ReadI32(int32_t* v) { return Read(v, sizeof(*v)); }
};

/// Parses and validates an RFP3 header+index against the module's shapes
/// and the actual file size. On success `records` holds one fully
/// bounds-checked entry per parameter.
Status ParseRfp3Index(const unsigned char* base, uint64_t file_size,
                      const std::vector<Tensor>& params,
                      const std::string& path,
                      std::vector<ParamRecord>* records) {
  ByteCursor cur{base, file_size, 0};
  uint32_t magic = 0, reserved = 0;
  uint64_t count = 0;
  if (!cur.ReadU32(&magic) || !cur.ReadU32(&reserved) ||
      !cur.ReadU64(&count) || magic != kMagicV3) {
    return Status::IoError("bad parameter file header: " + path);
  }
  if (count != params.size()) return CountMismatch(path, count, params.size());
  records->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    ParamRecord& rec = (*records)[i];
    uint32_t rank = 0;
    if (!cur.ReadU32(&rank)) return TruncatedRecord(i, path);
    if (rank > kMaxRank) {
      return Status::FailedPrecondition(StringPrintf(
          "parameter %llu: corrupt rank %u in %s",
          static_cast<unsigned long long>(i), rank, path.c_str()));
    }
    rec.shape.resize(rank);
    rec.elements = 1;
    for (uint32_t d = 0; d < rank; ++d) {
      int32_t extent = 0;
      if (!cur.ReadI32(&extent) || extent < 0) {
        return Status::FailedPrecondition(StringPrintf(
            "parameter %llu: corrupt dimension in %s",
            static_cast<unsigned long long>(i), path.c_str()));
      }
      rec.shape[d] = extent;
      rec.elements *= static_cast<uint64_t>(extent);
    }
    if (!cur.ReadU64(&rec.payload_offset)) return TruncatedRecord(i, path);
    if (rec.shape != params[i].shape()) {
      return ShapeMismatch(path, i, rec.shape, params[i].shape());
    }
    const uint64_t bytes = rec.elements * 4;
    if (rec.payload_offset % kPayloadAlign != 0 ||
        rec.payload_offset + bytes > file_size ||
        rec.payload_offset + bytes < rec.payload_offset) {
      return Status::FailedPrecondition(StringPrintf(
          "parameter %llu (shape %s): payload [%llu, +%llu) is misaligned "
          "or extends past end of file %s",
          static_cast<unsigned long long>(i),
          ShapeToString(rec.shape).c_str(),
          static_cast<unsigned long long>(rec.payload_offset),
          static_cast<unsigned long long>(bytes), path.c_str()));
    }
  }
  return Status::OK();
}

Status LoadParametersRfp3(std::vector<Tensor>* params,
                          const std::string& path) {
#if defined(RESUFORMER_HAVE_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open for read: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IoError("cannot stat: " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size == 0) {
    ::close(fd);
    return Status::IoError("bad parameter file header: " + path);
  }
  // MAP_PRIVATE + PROT_READ|PROT_WRITE: reads share the page cache with
  // every other replica mapping this checkpoint; a write (fine-tuning on
  // loaded weights) faults in a private copy instead of crashing or
  // corrupting the file.
  void* base = ::mmap(nullptr, file_size, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (base == MAP_FAILED) return Status::IoError("mmap failed: " + path);
  auto region = std::make_shared<MmapRegion>();
  region->base = base;
  region->bytes = file_size;

  std::vector<ParamRecord> records;
  const Status st_idx = ParseRfp3Index(
      static_cast<const unsigned char*>(base), file_size, *params, path,
      &records);
  if (!st_idx.ok()) return st_idx;  // region unmaps on return

  metrics::MetricsRegistry::Global()
      .GetGauge("checkpoint.mmap_bytes")
      ->Add(static_cast<int64_t>(file_size));
  metrics::MetricsRegistry::Global()
      .GetCounter("checkpoint.mmap_loads")
      ->Increment();
  char* bytes = static_cast<char*>(base);
  for (size_t i = 0; i < params->size(); ++i) {
    // 64-byte payload alignment (validated above) implies float alignment.
    float* payload =
        reinterpret_cast<float*>(bytes + records[i].payload_offset);
    (*params)[i].AttachExternalStorage(payload, region);
  }
  return Status::OK();
#else
  // No mmap on this platform: stream the payloads into heap storage (same
  // validation, no zero-copy).
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  const int64_t file_size = FileSizeOf(&in);
  if (file_size < 0) return Status::IoError("cannot stat: " + path);
  std::vector<unsigned char> image(static_cast<size_t>(file_size));
  in.read(reinterpret_cast<char*>(image.data()), file_size);
  if (!in) return Status::IoError("truncated parameter file: " + path);
  std::vector<ParamRecord> records;
  const Status st_idx = ParseRfp3Index(
      image.data(), static_cast<uint64_t>(file_size), *params, path,
      &records);
  if (!st_idx.ok()) return st_idx;
  for (size_t i = 0; i < params->size(); ++i) {
    std::memcpy((*params)[i].data(), image.data() + records[i].payload_offset,
                records[i].elements * 4);
  }
  return Status::OK();
#endif
}

}  // namespace

Status SaveParameters(const Module& module, const std::string& path) {
  // The image goes to `path + ".tmp"`, which is then renamed over `path`.
  // rename() swaps the directory entry atomically: readers see either the
  // old file or the new one, and a process that mmap'd the old file keeps
  // the old inode — rewriting in place would change its loaded weights.
  const std::vector<Tensor> params = module.Parameters();
  const std::string tmp_path = path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + tmp_path);
  const uint64_t count = params.size();
  // Header + index size determines where the aligned payload region starts.
  uint64_t pos = sizeof(kMagicV3) + sizeof(uint32_t) + sizeof(count);
  for (const Tensor& p : params) {
    pos += sizeof(uint32_t) + 4 * p.shape().size() + sizeof(uint64_t);
  }
  std::vector<uint64_t> offsets(count);
  std::vector<uint64_t> sizes(count);
  for (uint64_t i = 0; i < count; ++i) {
    pos = (pos + kPayloadAlign - 1) / kPayloadAlign * kPayloadAlign;
    offsets[i] = pos;
    sizes[i] = static_cast<uint64_t>(params[i].size()) * 4;
    pos += sizes[i];
  }
  const uint32_t reserved = 0;
  out.write(reinterpret_cast<const char*>(&kMagicV3), sizeof(kMagicV3));
  out.write(reinterpret_cast<const char*>(&reserved), sizeof(reserved));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t rank = static_cast<uint32_t>(params[i].shape().size());
    out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
    for (int d : params[i].shape()) {
      const int32_t extent = d;
      out.write(reinterpret_cast<const char*>(&extent), sizeof(extent));
    }
    out.write(reinterpret_cast<const char*>(&offsets[i]),
              sizeof(offsets[i]));
  }
  uint64_t written = static_cast<uint64_t>(out.tellp());
  const char zeros[kPayloadAlign] = {};
  for (uint64_t i = 0; i < count; ++i) {
    if (offsets[i] > written) {
      out.write(zeros, static_cast<std::streamsize>(offsets[i] - written));
    }
    out.write(reinterpret_cast<const char*>(params[i].data()),
              static_cast<std::streamsize>(sizes[i]));
    written = offsets[i] + sizes[i];
  }
  out.close();
  if (!out) {
    std::remove(tmp_path.c_str());
    return Status::IoError("write failed: " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot rename " + tmp_path + " to " + path);
  }
  return Status::OK();
}

Status LoadParameters(Module* module, const std::string& path) {
  std::vector<Tensor> params = module->Parameters();
  uint32_t magic = 0;
  {
    std::ifstream sniff(path, std::ios::binary);
    if (!sniff) return Status::IoError("cannot open for read: " + path);
    sniff.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  }
  if (magic == kMagicV3) return LoadParametersRfp3(&params, path);
  if (magic == kMagicV1 || magic == kMagicV2) {
    return Status::FailedPrecondition(StringPrintf(
        "unsupported legacy %s checkpoint %s: only RFP3 is readable",
        magic == kMagicV1 ? "RFP1" : "RFP2", path.c_str()));
  }
  return Status::IoError("bad parameter file header: " + path);
}

Status CopyParameters(const Module& source, Module* target) {
  ParameterSnapshot snapshot;
  snapshot.Capture(source.Parameters());
  return snapshot.Restore(target->Parameters());
}

void ParameterSnapshot::Capture(const std::vector<Tensor>& params) {
  shapes_.resize(params.size());
  values_.resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    shapes_[i] = params[i].shape();
    values_[i].assign(params[i].data(), params[i].data() + params[i].size());
  }
}

Status ParameterSnapshot::Restore(std::vector<Tensor> params) const {
  RF_RETURN_NOT_OK(CheckShapes("the source", shapes_, params));
  for (size_t i = 0; i < params.size(); ++i) {
    std::copy(values_[i].begin(), values_[i].end(), params[i].data());
  }
  return Status::OK();
}

}  // namespace nn
}  // namespace resuformer
