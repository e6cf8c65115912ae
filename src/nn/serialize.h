#ifndef RESUFORMER_NN_SERIALIZE_H_
#define RESUFORMER_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "nn/module.h"

namespace resuformer {
namespace nn {

/// On-disk parameter layout RFP3, little-endian and self-describing: a
/// header + shape index up front, then 64-byte-aligned raw float32
/// payloads. Loading maps the file (MAP_PRIVATE, PROT_READ|PROT_WRITE) and
/// points each parameter at its payload pages — zero-copy, so N replicas on
/// one host share a single physical copy of the weights and cold start is a
/// page fault, not a parse. A write (optimizer step) copy-on-writes
/// privately.
///
/// LoadParameters sniffs the magic: the legacy RFP1 and RFP2 layouts are
/// rejected with FailedPrecondition naming the layout.

/// Writes the module's parameters (in Parameters() order) as RFP3. The
/// bytes go to `path + ".tmp"`, which is then renamed over `path`: a
/// process that has the old file mapped keeps the old inode and its
/// weights, and a reader never sees a half-written file.
[[nodiscard]] Status SaveParameters(const Module& module,
                                    const std::string& path);

/// Maps a file saved by SaveParameters into an identically-shaped module.
/// Every header field is validated against the actual file size before any
/// payload is read — a truncated or corrupt file yields FailedPrecondition
/// naming the offending parameter, never a read past the end of the file.
[[nodiscard]] Status LoadParameters(Module* module, const std::string& path);

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
