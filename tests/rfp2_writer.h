#ifndef RESUFORMER_TESTS_RFP2_WRITER_H_
#define RESUFORMER_TESTS_RFP2_WRITER_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "nn/module.h"

namespace resuformer {
namespace testing {

/// Test-only RFP2 writer. The library only reads RFP2 (LoadParameters,
/// ConvertRfp2ToRfp3), so the fixtures that exercise those readers are
/// written here: magic "RFP2", u64 count, then per parameter u32 rank,
/// i32 dims, raw little-endian float32 payload. Returns false on I/O
/// failure.
[[nodiscard]] inline bool WriteRfp2ForTest(const nn::Module& module,
                                           const std::string& path) {
  const std::vector<Tensor> params = module.Parameters();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const uint32_t magic = 0x52465032;  // "RFP2"
  const uint64_t count = params.size();
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Tensor& p : params) {
    const uint32_t rank = static_cast<uint32_t>(p.rank());
    out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
    for (int d = 0; d < p.rank(); ++d) {
      const int32_t extent = p.dim(d);
      out.write(reinterpret_cast<const char*>(&extent), sizeof(extent));
    }
    out.write(reinterpret_cast<const char*>(p.data()),
              static_cast<std::streamsize>(p.size() * sizeof(float)));
  }
  return static_cast<bool>(out);
}

}  // namespace testing
}  // namespace resuformer

#endif  // RESUFORMER_TESTS_RFP2_WRITER_H_
