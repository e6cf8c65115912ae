#ifndef RESUFORMER_TENSOR_QUANT_H_
#define RESUFORMER_TENSOR_QUANT_H_

#include <cstdint>
#include <vector>

namespace resuformer {
namespace quant {

// ---------------------------------------------------------------------------
// Per-tensor symmetric int8 quantization.
//
// A float tensor x maps to int8 q with one scale s = max|x| / 127:
//
//   q[i] = clamp(round(x[i] / s), -127, 127)      (saturating, half away
//   x[i] ~ q[i] * s                                from zero)
//
// The representable range is symmetric (-127..127; -128 is never produced)
// so that q and -q are exact negations and a GEMM over two quantized
// operands needs only one combined scale sa*sw on the int32 accumulator.
//
// Weights are quantized ONCE at plan-build time (plan::Recorder::Finish)
// and cached in the plan as `QuantizedTensor`s; activations are quantized
// dynamically per replay inside LinearI8Forward. The int8 GEMM kernel
// itself lives in tensor/kernels.h (GemmNTI8).
//
// Error bound: |x - Dequantize(Quantize(x))| <= s/2 element-wise whenever
// |x| <= max|x| (always true for the tensor that defined s). The property
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
/// [rows, cols]; for plan use, rows = output features and cols = reduction
/// dim, i.e. the NT ("B transposed") layout whose per-output-row dot
/// products are contiguous.
struct QuantizedTensor {
  std::vector<int8_t> data;
  int rows = 0;
  int cols = 0;
  float scale = 0.0f;
};

/// Quantizes a row-major [k, n] weight into its [n, k] transpose. This is
/// how a Linear weight (x * W, W = [in, out]) becomes an NT-form operand:
/// one quantize at plan build buys contiguous dot products at every replay.
QuantizedTensor QuantizeTransposed(const float* w, int k, int n);

/// Quantizes a row-major [rows, cols] matrix as-is (already NT layout).
QuantizedTensor QuantizeRows(const float* w, int rows, int cols);

/// Workspace floats LinearI8Forward needs for an [m,k] x [k,n] product:
/// an int32 accumulator block [m,n] plus the quantized activations [m,k]
/// packed 4-per-float.
int64_t LinearI8ScratchFloats(int m, int k, int n);

/// Largest reduction dim k for which the int32 accumulator cannot overflow
/// (127 * 127 * k < 2^31). Recorder::Finish refuses to rewrite wider GEMMs.
inline constexpr int kMaxI8ReduceDim = 130000;

/// C[m,n] = A[m,k] * W^T for a plan-cached quantized weight W = [n, k]:
/// computes the dynamic activation scale, quantizes A into `scratch`, runs
/// the int8 NT GEMM with int32 accumulation, and dequantizes into C
/// (overwrite, not accumulate). `scratch` must hold
/// LinearI8ScratchFloats(m, k, n) floats. Parallel partitioning follows the
/// fp32 GEMM contract (row partitions, deterministic at any thread count —
/// integer accumulation is exact, so results are identical regardless of
/// the partition).
void LinearI8Forward(const float* a, const QuantizedTensor& w, float* c,
                     int m, int k, int n, float* scratch);

}  // namespace quant
}  // namespace resuformer

#endif  // RESUFORMER_TENSOR_QUANT_H_
