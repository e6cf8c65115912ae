#ifndef RESUFORMER_NN_SERIALIZE_H_
#define RESUFORMER_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "nn/module.h"

namespace resuformer {
namespace nn {

/// On-disk parameter layouts. Both are little-endian and self-describing
/// (shapes in the file); LoadParameters sniffs the magic.
///
///   RFP3  the only layout written: a header + index up front, then
///         64-byte-aligned raw float32 payloads. Loading maps the file
///         (MAP_PRIVATE, PROT_READ|PROT_WRITE) and points each parameter
///         at its payload pages — zero-copy, so N replicas on one host
///         share a single physical copy of the weights and cold start is a
///         page fault, not a parse. A write (optimizer step)
///         copy-on-writes privately.
///   RFP2  read-only: per-tensor shapes, payloads packed inline after each
///         record. LoadParameters stream-loads it; ConvertRfp2ToRfp3
///         rewrites it once into RFP3.
///
/// The shape-less RFP1 layout is rejected with FailedPrecondition.

/// Writes the module's parameters (in Parameters() order) as RFP3. The
/// bytes go to `path + ".tmp"`, which is then renamed over `path`: a
/// process that has the old file mapped keeps the old inode and its
/// weights, and a reader never sees a half-written file.
[[nodiscard]] Status SaveParameters(const Module& module,
                                    const std::string& path);

/// Loads parameters saved by SaveParameters (or an RFP2 file) into an
/// identically-shaped module. Every header field is validated against the
/// actual file size before any payload is read — a truncated or corrupt
/// file yields FailedPrecondition naming the offending parameter, never a
/// huge allocation or a silent short read. RFP3 files are mmap'd; RFP2
/// stream-loads.
[[nodiscard]] Status LoadParameters(Module* module, const std::string& path);

/// Rewrites an RFP2 checkpoint into the mmap-able RFP3 layout without
/// needing the module (RFP2 records are self-describing). Validates the
/// source like LoadParameters does and writes `dst_path` atomically like
/// SaveParameters.
[[nodiscard]] Status ConvertRfp2ToRfp3(const std::string& src_path,
                                       const std::string& dst_path);

/// Copies parameters between two identically-structured modules (used to
/// clone teacher -> student in the self-distillation loop). InvalidArgument
/// when the parameter counts or any pair of shapes differ — equal element
/// counts are not enough ([2,3] into [3,2] is refused).
[[nodiscard]] Status CopyParameters(const Module& source, Module* target);

/// \brief In-memory copy of parameter values: the keep-the-best snapshot
/// of the early-stopping training loops. It never touches the file
/// system, so trainings running at the same time — in threads or in
/// processes — cannot overwrite each other's best weights.
class ParameterSnapshot {
 public:
  /// Replaces the snapshot with the current values of `params` (e.g.
  /// Module::Parameters()).
  void Capture(const std::vector<Tensor>& params);

  /// Writes the captured values back into `params` (handles, so the
  /// owning modules see the write). Checked like CopyParameters: the count
  /// and every shape must match what was captured.
  [[nodiscard]] Status Restore(std::vector<Tensor> params) const;

 private:
  std::vector<std::vector<int>> shapes_;
  std::vector<std::vector<float>> values_;
};

}  // namespace nn
}  // namespace resuformer

#endif  // RESUFORMER_NN_SERIALIZE_H_
