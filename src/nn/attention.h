#ifndef RESUFORMER_NN_ATTENTION_H_
#define RESUFORMER_NN_ATTENTION_H_

#include <memory>

#include "nn/linear.h"
#include "nn/module.h"

namespace resuformer {
namespace nn {

/// \brief Multi-head scaled-dot-product self-attention.
///
/// Single-sequence formulation: the input is [T, D]; heads are column slices
/// of the projected Q/K/V matrices. An optional additive attention bias
/// [T, T] supports padding masks (-inf entries) and locality priors.
///
/// The heads run as one ops::FusedMultiHeadAttention node over strided head
/// views — no per-head slice/transpose/concat copies, one fork-join for all
/// heads, full autograd support. Results are deterministic and
/// bit-identical across thread counts. The composed per-head op chain
/// (SliceCols / MatMul / Transpose / Scale / Add / Softmax / ConcatCols) is
/// the test oracle (tests/tensor_test.cc, FusedOpsTest): the two agree to
/// float rounding, within 1e-5 relative on forward and backward — the score
/// reductions run as SIMD-reassociated dots, see kernels::GemmNTVec.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int dim, int num_heads, Rng* rng);

  /// x: [T, dim] -> [T, dim]. `bias` (optional) is added to the raw
  /// attention scores of every head.
  Tensor Forward(const Tensor& x, const Tensor& bias = Tensor()) const;

  int dim() const { return dim_; }
  int num_heads() const { return num_heads_; }

 private:
  int dim_;
  int num_heads_;
  std::unique_ptr<Linear> wq_;
  std::unique_ptr<Linear> wk_;
  std::unique_ptr<Linear> wv_;
  std::unique_ptr<Linear> wo_;
};

}  // namespace nn
}  // namespace resuformer

#endif  // RESUFORMER_NN_ATTENTION_H_
