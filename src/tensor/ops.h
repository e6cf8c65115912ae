#ifndef RESUFORMER_TENSOR_OPS_H_
#define RESUFORMER_TENSOR_OPS_H_

#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace resuformer {
namespace ops {

/// Matrix product [m,k] x [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A * B^T for A [m,k], B [n,k] -> [m,n], without materializing the
/// transpose. Bit-identical to MatMul(a, Transpose(b)) at any thread count.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);

/// C = A^T * B for A [k,m], B [k,n] -> [m,n], without materializing the
/// transpose. Bit-identical to MatMul(Transpose(a), b) at any thread count.
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);

/// Elementwise sum. If `b` is rank-1 with b.size() == a.cols(), it is
/// broadcast over the rows of `a` (bias addition).
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise difference (same broadcast rule as Add).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise product of same-shape tensors.
Tensor Mul(const Tensor& a, const Tensor& b);

/// Multiplication by a constant.
Tensor Scale(const Tensor& a, float s);

/// Addition of a constant to every element.
Tensor AddScalar(const Tensor& a, float s);

/// Elementwise activations.
Tensor Relu(const Tensor& a);
Tensor Gelu(const Tensor& a);  // tanh approximation
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);

/// Row-wise softmax / log-softmax over the last dimension.
Tensor Softmax(const Tensor& a);
Tensor LogSoftmax(const Tensor& a);

/// Fused multi-head scaled-dot-product self-attention core over one or more
/// packed sequences: q/k/v are [T, dim] with dim = num_heads * head_dim
/// (heads are column blocks). `segment_offsets` lists the first row of each
/// sequence, ascending strictly from 0; empty means one sequence of all T
/// rows. Each sequence attends only to its own rows and gets exactly the
/// arithmetic of a single-sequence call on them, so packing changes no bit
/// of the output; each counts once in `ops.fused_attention.calls`. Returns
/// concat_h(softmax(Qh Kh^T / sqrt(head_dim)) Vh) as [T, dim], computed on
/// strided head views — no per-head slice/transpose/concat copies. A
/// single-sequence call differentiates through q, k and v; a
/// gradient-tracked call with several sequences is refused (RF_CHECK).
/// Results are deterministic and bit-identical across thread counts;
/// against the composed per-head reference they agree within 1e-5 relative
/// on forward and backward (the score reductions use the SIMD-reassociated
/// kernels::GemmNTVec).
Tensor FusedMultiHeadAttention(const Tensor& q, const Tensor& k,
                               const Tensor& v,
                               const std::vector<int>& segment_offsets,
                               int num_heads);

/// The whole recurrence of one LSTM direction as one op. `proj` [T, 4H]
/// holds each step's input projection x·W_ih + b (gate column blocks i, f,
/// g, o), `w_hh` [H, 4H] the recurrent weights; returns the hidden states
/// [T, H] in input order, computed right to left when `reverse`. Starts
/// from zero h and c. Output and the gradients of `proj` and `w_hh` are
/// bit-identical to the per-step chain of MatMul/Add/SliceCols/Sigmoid/
/// Tanh/Mul ops it replaces, and each step counts one NN GEMM of
/// [1, H]·[H, 4H]. Under NoGradGuard it saves nothing for backward and
/// draws a constant number of arena buffers whatever T is.
Tensor LstmSequence(const Tensor& proj, const Tensor& w_hh, bool reverse);

/// Mean negative log-likelihood of `targets` under row-wise softmax of
/// `logits` [m, n]. Rows whose target equals `ignore_index` contribute
/// nothing. Returns a scalar.
Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                    int ignore_index = -1);

/// Mean over rows of -sum_c soft_targets[r,c] * log_softmax(logits)[r,c],
/// optionally weighting each row (used by the self-distillation KL loss,
/// Eq. 10/12 — the entropy of the soft target is constant w.r.t. the
/// student, so minimizing this cross-entropy minimizes the KL divergence).
/// Rows with weight 0 are excluded from the normalizer.
Tensor SoftCrossEntropy(const Tensor& logits, const Tensor& soft_targets,
                        const std::vector<float>& row_weights = {});

/// Scalar mean / sum of all elements.
Tensor Mean(const Tensor& a);
Tensor Sum(const Tensor& a);

/// Stacks parts along rows; rank-1 parts are treated as single rows.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Concatenates parts along columns; all parts must share the row count.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Row / column slices of a rank-2 tensor.
Tensor SliceRows(const Tensor& a, int start, int len);
Tensor SliceCols(const Tensor& a, int start, int len);

/// Gathers the given rows (duplicates allowed); backward scatter-adds.
Tensor GatherRows(const Tensor& a, const std::vector<int>& indices);

/// Embedding lookup: rows of `weight` [V, D] selected by token ids.
Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int>& ids);

/// Row-wise layer normalization with learned gain/bias (rank-1, size cols).
Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps = 1e-5f);

/// Inverted dropout; identity when !training or p == 0.
Tensor Dropout(const Tensor& x, float p, Rng* rng, bool training);

/// Rows scaled to unit L2 norm (used for sentence representations before
/// the contrastive objective).
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-8f);

/// View with a new shape (same element count).
Tensor Reshape(const Tensor& a, std::vector<int> shape);

}  // namespace ops
}  // namespace resuformer

#endif  // RESUFORMER_TENSOR_OPS_H_
