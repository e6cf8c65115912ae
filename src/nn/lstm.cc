#include "nn/lstm.h"

#include <cmath>

#include "tensor/ops.h"

namespace resuformer {
namespace nn {

Lstm::Lstm(int input_dim, int hidden_dim, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(input_dim + 4 * hidden_dim));
  w_ih_ = RegisterParameter(
      Tensor::Uniform({input_dim, 4 * hidden_dim}, rng, -bound, bound));
  const float rbound = std::sqrt(6.0f / static_cast<float>(5 * hidden_dim));
  w_hh_ = RegisterParameter(
      Tensor::Uniform({hidden_dim, 4 * hidden_dim}, rng, -rbound, rbound));
  // Forget-gate bias initialized to 1 (standard trick for gradient flow).
  Tensor bias = Tensor::Zeros({4 * hidden_dim});
  for (int j = hidden_dim; j < 2 * hidden_dim; ++j) bias.at(j) = 1.0f;
  bias_ = RegisterParameter(bias);
}

Tensor Lstm::Forward(const Tensor& x, bool reverse) const {
  // Input projections for every step at once; the recurrence is one op.
  Tensor proj = ops::Add(ops::MatMul(x, w_ih_), bias_);  // [T, 4H]
  return ops::LstmSequence(proj, w_hh_, reverse);
}

BiLstm::BiLstm(int input_dim, int hidden_dim, Rng* rng) {
  forward_ = std::make_unique<Lstm>(input_dim, hidden_dim, rng);
  backward_ = std::make_unique<Lstm>(input_dim, hidden_dim, rng);
  RegisterModule(forward_.get());
  RegisterModule(backward_.get());
}

Tensor BiLstm::Forward(const Tensor& x) const {
  Tensor fwd = forward_->Forward(x, /*reverse=*/false);
  Tensor bwd = backward_->Forward(x, /*reverse=*/true);
  return ops::ConcatCols({fwd, bwd});
}

int BiLstm::output_dim() const { return 2 * forward_->hidden_dim(); }

}  // namespace nn
}  // namespace resuformer
