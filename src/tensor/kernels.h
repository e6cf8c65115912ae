#ifndef RESUFORMER_TENSOR_KERNELS_H_
#define RESUFORMER_TENSOR_KERNELS_H_

#include <cstdint>

namespace resuformer {
namespace kernels {

// ---------------------------------------------------------------------------
// Raw strided GEMM micro-kernels shared by the tensor ops and the fused
// attention path. All kernels ACCUMULATE into C (callers zero-fill first),
// take explicit leading dimensions (row strides), and restrict their writes
// to output rows [r0, r1) so callers can partition work across the thread
// pool without any two workers sharing an output element.
//
// Except where noted (GemmNTVec), every kernel visits the reduction index in
// ascending order for each output element, matching the accumulation order
// of the ops.cc reference GEMM — which is what keeps the transposed-GEMM ops
// bit-identical to the composed ops they replace.
// ---------------------------------------------------------------------------

/// C[i, j] += sum_t A[i, t] * B[j, t] for i in [r0, r1), j in [0, bn).
/// A is [*, d] with row stride lda, B is [bn, d] with row stride ldb,
/// C has row stride ldc. This is C += A * B^T without materializing B^T.
void GemmNT(const float* a, int lda, const float* b, int ldb, float* c,
            int ldc, int bn, int d, int64_t r0, int64_t r1);

/// C[i, j] += sum_t A[i, t] * B[t, j] for i in [r0, r1), j in [0, bn).
/// A is [*, d] with row stride lda, B is [d, bn] with row stride ldb.
/// Cache-tiled over (t, j) like the ops.cc blocked GEMM; tiles ascend, so
/// each element still accumulates t in ascending order.
void GemmNN(const float* a, int lda, const float* b, int ldb, float* c,
            int ldc, int d, int bn, int64_t r0, int64_t r1);

/// C[i, j] += sum_t A[t, i] * B[t, j] for i in [r0, r1), j in [0, bn).
/// A is [d, *] with row stride lda, B is [d, bn] with row stride ldb.
/// This is C += A^T * B restricted to C rows [r0, r1); the t loop stays
/// outermost so accumulation order is ascending t.
void GemmTN(const float* a, int lda, const float* b, int ldb, float* c,
            int ldc, int d, int bn, int64_t r0, int64_t r1);

/// Same contract as GemmNT, but the per-element reduction over t runs as a
/// SIMD-reassociated dot product (16 partial lanes, fixed-shape final
/// reduction): deterministic for given inputs, within ~1e-6 relative of the
/// serial ascending-t order, but NOT bit-identical to it. Used by the fused
/// attention path, where the contract is 1e-5 closeness to the composed
/// reference rather than bit-identity.
void GemmNTVec(const float* a, int lda, const float* b, int ldb, float* c,
               int ldc, int bn, int d, int64_t r0, int64_t r1);

// -- Int8 GEMM (tensor/quant.h provides the scales). -------------------------
//
// Same stride/row-range contract as the fp32 kernels above: ACCUMULATE into
// C, explicit leading dimensions, writes restricted to rows [r0, r1).
// Accumulation is int32 (exact for d <= quant::kMaxI8ReduceDim), so unlike
// the fp32 family this kernel is free to reassociate: integer addition is
// associative and the result is bit-exact regardless of lane order.

/// C[i, j] += sum_t A[i, t] * B[j, t] (int8 operands, int32 accumulation).
/// A is [*, d] with row stride lda, B is [bn, d] with row stride ldb.
void GemmNTI8(const int8_t* a, int lda, const int8_t* b, int ldb, int32_t* c,
              int ldc, int bn, int d, int64_t r0, int64_t r1);

/// In-place fused row kernel: row[j] = softmax(row[j] * scale) with the
/// usual max-subtraction. The op sequence per element (multiply, then
/// max/exp/sum/divide) matches the composed Scale -> Softmax ops exactly.
void ScaleSoftmaxRow(float* row, int n, float scale);

/// Softmax backward for one row: dx[j] += (dy[j] - dot(dy, y)) * y[j].
/// When `out_overwrite` is true the result is written (not accumulated)
/// into dx, which lets callers reuse a dy buffer as scratch.
void SoftmaxBackwardRow(const float* y, const float* dy, float* dx, int n,
                        bool out_overwrite);

}  // namespace kernels
}  // namespace resuformer

#endif  // RESUFORMER_TENSOR_KERNELS_H_
