#ifndef RESUFORMER_TENSOR_QUANT_H_
#define RESUFORMER_TENSOR_QUANT_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace resuformer {
namespace quant {

// ---------------------------------------------------------------------------
// Symmetric int8 quantization for inference-time linear layers.
//
// A float vector x maps to int8 q with one scale s = max|x| / 127:
//
//   q[i] = clamp(round(x[i] / s), -127, 127)      (saturating, half away
//   x[i] ~ q[i] * s                                from zero)
//
// The representable range is symmetric (-127..127; -128 is never produced)
// so that q and -q are exact negations and a GEMM over two quantized
// operands needs only one combined scale sa*sw on the int32 accumulator.
//
// A weight is quantized per tensor, once: nn::Linear quantizes its weight
// on the first int8 forward and drops the copy in SetTraining, since
// weights change around mode switches. Activations are quantized per row
// inside LinearI8Forward, so a row's output never depends on the rows
// beside it — a sentence gets the same int8 result alone or packed into a
// document. The int8 GEMM kernel itself lives in tensor/kernels.h
// (GemmNTI8).
//
// Error bound: |x - Dequantize(Quantize(x))| <= s/2 element-wise whenever
// |x| <= max|x| (always true for the vector that defined s). The property
// test in tests/quant_test.cc pins this bound.
//
// This file (with nn/serialize.cc) is one of the two TUs allowed to
// reinterpret_cast raw payload bytes — rf_lint rule 11 flags such casts
// anywhere else.
// ---------------------------------------------------------------------------

/// Quantization scale for n values: max|x| / 127. Returns 0.0f for an
/// all-zero (or empty) input, which callers treat as "output is exactly 0".
float ComputeScale(const float* x, int64_t n);

/// q[i] = clamp(round(x[i] / scale), -127, 127). scale must be > 0.
void Quantize(const float* x, int64_t n, float scale, int8_t* out);

/// x[i] = q[i] * scale.
void Dequantize(const int8_t* q, int64_t n, float scale, float* out);

/// An int8 weight matrix plus its per-tensor scale. `data` is row-major
/// [rows, cols] with rows = output features and cols = reduction dim, i.e.
/// the NT ("B transposed") layout whose per-output-row dot products are
/// contiguous.
struct QuantizedTensor {
  std::vector<int8_t> data;
  int rows = 0;
  int cols = 0;
  float scale = 0.0f;
};

/// Quantizes a row-major [k, n] weight into its [n, k] transpose. This is
/// how a Linear weight (x * W, W = [in, out]) becomes an NT-form operand:
/// one quantize buys contiguous dot products at every forward.
QuantizedTensor QuantizeTransposed(const float* w, int k, int n);

/// Workspace floats LinearI8Forward needs for an [m,k] x [k,n] product:
/// an int32 accumulator block [m,n] plus the quantized activations [m,k]
/// packed 4-per-float.
int64_t LinearI8ScratchFloats(int m, int k, int n);

/// Largest reduction dim k for which the int32 accumulator cannot overflow
/// (127 * 127 * k < 2^31).
inline constexpr int kMaxI8ReduceDim = 130000;

/// C[m,n] = A[m,k] * W^T for a quantized weight W = [n, k]: quantizes each
/// row of A with its own scale into `scratch`, runs the int8 NT GEMM with
/// int32 accumulation, and dequantizes into C (overwrite, not accumulate).
/// `scratch` must hold LinearI8ScratchFloats(m, k, n) floats. Row i of C
/// depends only on row i of A and on W, so results are identical at any
/// thread count, partition or row packing.
void LinearI8Forward(const float* a, const QuantizedTensor& w, float* c,
                     int m, int k, int n, float* scratch);

/// x [m, k] times the weight that `w` quantizes (QuantizeTransposed of
/// W [k, n]) as a new [m, n] tensor without autograd: LinearI8Forward with
/// arena scratch. Counts as the fp32 NN GEMM it replaces
/// (`ops.gemm_nn.calls`, `ops.gemm.forward_flops`).
Tensor LinearI8(const Tensor& x, const QuantizedTensor& w);

}  // namespace quant
}  // namespace resuformer

#endif  // RESUFORMER_TENSOR_QUANT_H_
