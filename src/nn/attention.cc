#include "nn/attention.h"

#include "common/logging.h"
#include "tensor/ops.h"

namespace resuformer {
namespace nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(int dim, int num_heads,
                                               Rng* rng)
    : dim_(dim), num_heads_(num_heads) {
  RF_CHECK_EQ(dim % num_heads, 0);
  wq_ = std::make_unique<Linear>(dim, dim, rng);
  wk_ = std::make_unique<Linear>(dim, dim, rng);
  wv_ = std::make_unique<Linear>(dim, dim, rng);
  wo_ = std::make_unique<Linear>(dim, dim, rng);
  RegisterModule(wq_.get());
  RegisterModule(wk_.get());
  RegisterModule(wv_.get());
  RegisterModule(wo_.get());
}

Tensor MultiHeadSelfAttention::Forward(
    const Tensor& x, const std::vector<int>& segment_offsets) const {
  const Tensor q = wq_->Forward(x);
  const Tensor k = wk_->Forward(x);
  const Tensor v = wv_->Forward(x);
  return wo_->Forward(
      ops::FusedMultiHeadAttention(q, k, v, segment_offsets, num_heads_));
}

}  // namespace nn
}  // namespace resuformer
