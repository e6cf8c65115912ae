#include "tensor/quant.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/op_compute.h"

namespace resuformer {
namespace quant {

namespace {

struct QuantMetrics {
  metrics::Counter* weights_quantized;
  metrics::Counter* dynamic_quants;
};

QuantMetrics& Metrics() {
  static QuantMetrics m = [] {
    auto& reg = metrics::MetricsRegistry::Global();
    return QuantMetrics{reg.GetCounter("quant.weights_quantized"),
                        reg.GetCounter("quant.dynamic_quants")};
  }();
  return m;
}

/// Saturating round-half-away-from-zero to [-127, 127]. std::lround is
/// exactly this rounding mode; the clamp makes values at max|x| (which
/// round to +/-127 by construction) and any future out-of-range input safe.
inline int8_t SaturateRound(float scaled) {
  const long r = std::lround(scaled);
  return static_cast<int8_t>(std::min(127L, std::max(-127L, r)));
}

}  // namespace

float ComputeScale(const float* x, int64_t n) {
  float amax = 0.0f;
  for (int64_t i = 0; i < n; ++i) amax = std::max(amax, std::fabs(x[i]));
  return amax / 127.0f;
}

void Quantize(const float* x, int64_t n, float scale, int8_t* out) {
  RF_DCHECK_GT(scale, 0.0f);
  const float inv = 1.0f / scale;
  for (int64_t i = 0; i < n; ++i) out[i] = SaturateRound(x[i] * inv);
}

void Dequantize(const int8_t* q, int64_t n, float scale, float* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(q[i]) * scale;
  }
}

QuantizedTensor QuantizeTransposed(const float* w, int k, int n) {
  QuantizedTensor qt;
  qt.rows = n;
  qt.cols = k;
  qt.scale = ComputeScale(w, static_cast<int64_t>(k) * n);
  qt.data.assign(static_cast<size_t>(k) * n, 0);
  if (qt.scale == 0.0f) return qt;
  const float inv = 1.0f / qt.scale;
  for (int t = 0; t < k; ++t) {
    const float* wrow = w + static_cast<int64_t>(t) * n;
    for (int j = 0; j < n; ++j) {
      qt.data[static_cast<int64_t>(j) * k + t] = SaturateRound(wrow[j] * inv);
    }
  }
  Metrics().weights_quantized->Increment();
  return qt;
}

int64_t LinearI8ScratchFloats(int m, int k, int n) {
  const int64_t acc_floats = static_cast<int64_t>(m) * n;
  const int64_t qa_floats = (static_cast<int64_t>(m) * k + 3) / 4;
  return acc_floats + qa_floats;
}

void LinearI8Forward(const float* a, const QuantizedTensor& w, float* c,
                     int m, int k, int n, float* scratch) {
  RF_DCHECK_EQ(w.rows, n);
  RF_DCHECK_EQ(w.cols, k);
  RF_DCHECK_LE(k, kMaxI8ReduceDim);
  Metrics().dynamic_quants->Increment();
  // Workspace layout: the int32 accumulator block first (float-aligned is
  // int32-aligned), then the int8 activations packed 4 per float. The casts
  // below are the reason this TU is on rf_lint rule 11's allow-list.
  int32_t* c32 = reinterpret_cast<int32_t*>(scratch);
  int8_t* qa =
      reinterpret_cast<int8_t*>(scratch + static_cast<int64_t>(m) * n);
  // One fork for quantize + GEMM + dequantize. Each row is quantized with
  // its own scale and touches only its own A, scratch and C rows, so a
  // row's output depends on nothing but that row and the weight — not on
  // the rows beside it, the partition or the thread count (integer
  // accumulation is exact).
  const int64_t work = static_cast<int64_t>(m) * k * n;
  opcompute::ForRows(
      m, work, opcompute::kGemmParallelWork,
      [&](int /*worker*/, int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* arow = a + i * k;
          int8_t* qrow = qa + i * k;
          int32_t* crow = c32 + i * n;
          // An all-zero row (or weight) yields exactly zero: its int8
          // operand is all zeros. There is no NaN to propagate, unlike the
          // fp32 kernels: quantization already collapsed non-finite values.
          const float sa = ComputeScale(arow, k);
          if (sa == 0.0f) {
            std::fill(qrow, qrow + k, 0);
          } else {
            Quantize(arow, k, sa, qrow);
          }
          std::fill(crow, crow + n, 0);
          kernels::GemmNTI8(qrow, k, w.data.data(), k, crow, n, n, k, 0, 1);
          const float dq = sa * w.scale;
          float* out = c + i * n;
          for (int j = 0; j < n; ++j) {
            out[j] = static_cast<float>(crow[j]) * dq;
          }
        }
      });
}

Tensor LinearI8(const Tensor& x, const QuantizedTensor& w) {
  RF_CHECK_EQ(x.rank(), 2);
  const int m = x.rows(), k = x.cols(), n = w.rows;
  RF_CHECK_EQ(k, w.cols);
  opcompute::CountGemm(opcompute::GemmForm::kNN,
                       static_cast<int64_t>(m) * k * n);
  Tensor out = Tensor::Zeros({m, n});
  ArenaBuffer scratch(LinearI8ScratchFloats(m, k, n));
  LinearI8Forward(x.data(), w, out.data(), m, k, n, scratch.data());
  return out;
}

}  // namespace quant
}  // namespace resuformer
