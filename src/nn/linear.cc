#include "nn/linear.h"

#include <cmath>

namespace resuformer {
namespace nn {

Linear::Linear(int in_features, int out_features, Rng* rng, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  weight_ = RegisterParameter(
      Tensor::Uniform({in_features, out_features}, rng, -bound, bound));
  if (bias) {
    bias_ = RegisterParameter(Tensor::Zeros({out_features}));
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  Tensor y = int8_ && !training() && !NoGradGuard::GradEnabled()
                 ? quant::LinearI8(x, *QuantizedWeight())
                 : ops::MatMul(x, weight_);
  if (bias_.defined()) y = ops::Add(y, bias_);
  return y;
}

std::shared_ptr<const quant::QuantizedTensor> Linear::QuantizedWeight()
    const {
  std::lock_guard<std::mutex> lock(qweight_mu_);
  if (qweight_ == nullptr) {
    qweight_ = std::make_shared<const quant::QuantizedTensor>(
        quant::QuantizeTransposed(weight_.data(), in_features_,
                                  out_features_));
  }
  return qweight_;
}

void Linear::SetTraining(bool training) {
  Module::SetTraining(training);
  std::lock_guard<std::mutex> lock(qweight_mu_);
  qweight_.reset();
}

void Linear::SetInt8(bool int8) {
  int8_ = int8;
  std::lock_guard<std::mutex> lock(qweight_mu_);
  qweight_.reset();
}

}  // namespace nn
}  // namespace resuformer
