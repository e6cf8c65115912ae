#ifndef RESUFORMER_NN_TRANSFORMER_H_
#define RESUFORMER_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace resuformer {
namespace nn {

/// Hyper-parameters of one Transformer encoder stack.
struct TransformerConfig {
  int dim = 32;
  int num_layers = 2;
  int num_heads = 4;
  int ffn_dim = 64;
  float dropout = 0.1f;
};

/// Post-norm Transformer encoder layer (BERT convention):
///   x = LN(x + Attn(x)); x = LN(x + FFN(x)).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(const TransformerConfig& config, Rng* rng);

  /// x: [T, dim], one sequence or several packed back to back whose first
  /// rows `segment_offsets` lists (empty: one sequence). Every op but
  /// attention is row-wise, so each packed sequence gets exactly the
  /// output of a call on its rows alone. `dropout_rng` supplies dropout
  /// noise during training (may be null when not training).
  Tensor Forward(const Tensor& x, const std::vector<int>& segment_offsets,
                 Rng* dropout_rng) const;

 private:
  TransformerConfig config_;
  std::unique_ptr<MultiHeadSelfAttention> attention_;
  std::unique_ptr<LayerNorm> norm1_;
  std::unique_ptr<Linear> ffn1_;
  std::unique_ptr<Linear> ffn2_;
  std::unique_ptr<LayerNorm> norm2_;
};

/// Stack of encoder layers.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(const TransformerConfig& config, Rng* rng);

  /// See TransformerEncoderLayer::Forward.
  Tensor Forward(const Tensor& x,
                 const std::vector<int>& segment_offsets = {},
                 Rng* dropout_rng = nullptr) const;

  const TransformerConfig& config() const { return config_; }

 private:
  TransformerConfig config_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
};

}  // namespace nn
}  // namespace resuformer

#endif  // RESUFORMER_NN_TRANSFORMER_H_
