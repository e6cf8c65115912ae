#ifndef RESUFORMER_NN_ATTENTION_H_
#define RESUFORMER_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace resuformer {
namespace nn {

/// \brief Multi-head scaled-dot-product self-attention.
///
/// The input is [T, D]: one sequence, or several packed back to back whose
/// first rows `segment_offsets` lists (each attends only within itself).
/// Heads are column slices of the projected Q/K/V matrices.
///
/// The heads run as one ops::FusedMultiHeadAttention node over strided head
/// views — no per-head slice/transpose/concat copies, one fork-join for all
/// heads and sequences, autograd for a single sequence. Results are
/// deterministic and bit-identical across thread counts. The composed
/// per-head op chain (SliceCols / MatMul / Transpose / Scale / Add /
/// Softmax / ConcatCols) is the test oracle (tests/tensor_test.cc,
/// FusedOpsTest): the two agree to float rounding, within 1e-5 relative on
/// forward and backward — the score reductions run as SIMD-reassociated
/// dots, see kernels::GemmNTVec.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int dim, int num_heads, Rng* rng);

  /// x: [T, dim] -> [T, dim]. `segment_offsets` (empty: one sequence) are
  /// the first rows of the packed sequences, ascending from 0.
  Tensor Forward(const Tensor& x,
                 const std::vector<int>& segment_offsets = {}) const;

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
