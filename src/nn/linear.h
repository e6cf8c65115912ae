#ifndef RESUFORMER_NN_LINEAR_H_
#define RESUFORMER_NN_LINEAR_H_

#include <memory>
#include <mutex>

#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace resuformer {
namespace nn {

/// Fully-connected layer y = xW + b with Xavier-uniform initialization.
///
/// After SetInt8(true), eval-mode forwards under NoGradGuard multiply by an
/// int8 copy of the weight (quant::LinearI8, per-row activation scales);
/// the bias add stays fp32. The copy is quantized on first use and dropped
/// by SetTraining, because weights change around mode switches (optimizer
/// steps, snapshot restores, checkpoint loads). Training and
/// gradient-enabled forwards always run fp32.
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng* rng, bool bias = true);

  /// x: [m, in_features] -> [m, out_features].
  Tensor Forward(const Tensor& x) const;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  const Tensor& weight() const { return weight_; }

  void SetTraining(bool training) override;
  void SetInt8(bool int8) override;

 private:
  /// The int8 weight, quantized on first use.
  std::shared_ptr<const quant::QuantizedTensor> QuantizedWeight() const;

  int in_features_;
  int out_features_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out] or undefined
  bool int8_ = false;
  // Guards the lazy quantization and its reset, so concurrent readers
  // share one copy.
  mutable std::mutex qweight_mu_;
  mutable std::shared_ptr<const quant::QuantizedTensor> qweight_;
};

}  // namespace nn
}  // namespace resuformer

#endif  // RESUFORMER_NN_LINEAR_H_
