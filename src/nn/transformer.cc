#include "nn/transformer.h"

#include "tensor/ops.h"

namespace resuformer {
namespace nn {

TransformerEncoderLayer::TransformerEncoderLayer(
    const TransformerConfig& config, Rng* rng)
    : config_(config) {
  attention_ = std::make_unique<MultiHeadSelfAttention>(config.dim,
                                                        config.num_heads, rng);
  norm1_ = std::make_unique<LayerNorm>(config.dim);
  ffn1_ = std::make_unique<Linear>(config.dim, config.ffn_dim, rng);
  ffn2_ = std::make_unique<Linear>(config.ffn_dim, config.dim, rng);
  norm2_ = std::make_unique<LayerNorm>(config.dim);
  RegisterModule(attention_.get());
  RegisterModule(norm1_.get());
  RegisterModule(ffn1_.get());
  RegisterModule(ffn2_.get());
  RegisterModule(norm2_.get());
}

Tensor TransformerEncoderLayer::Forward(
    const Tensor& x, const std::vector<int>& segment_offsets,
    Rng* dropout_rng) const {
  const bool train = training() && dropout_rng != nullptr;
  Tensor attn = attention_->Forward(x, segment_offsets);
  attn = ops::Dropout(attn, config_.dropout, dropout_rng, train);
  Tensor h = norm1_->Forward(ops::Add(x, attn));

  Tensor ffn = ffn2_->Forward(ops::Gelu(ffn1_->Forward(h)));
  ffn = ops::Dropout(ffn, config_.dropout, dropout_rng, train);
  return norm2_->Forward(ops::Add(h, ffn));
}

TransformerEncoder::TransformerEncoder(const TransformerConfig& config,
                                       Rng* rng)
    : config_(config) {
  layers_.reserve(config.num_layers);
  for (int i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(config, rng));
    RegisterModule(layers_.back().get());
  }
}

Tensor TransformerEncoder::Forward(const Tensor& x,
                                   const std::vector<int>& segment_offsets,
                                   Rng* dropout_rng) const {
  Tensor h = x;
  for (const auto& layer : layers_) {
    h = layer->Forward(h, segment_offsets, dropout_rng);
  }
  return h;
}

}  // namespace nn
}  // namespace resuformer
