#ifndef RESUFORMER_TENSOR_OP_COMPUTE_H_
#define RESUFORMER_TENSOR_OP_COMPUTE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/thread_pool.h"
#include "tensor/kernels.h"

namespace resuformer {
namespace opcompute {

// ---------------------------------------------------------------------------
// Shared forward-compute substrate.
//
// The forward loops of the autograd ops (tensor/ops.cc), the row
// partitioning helpers they share with the int8 GEMM (tensor/quant.cc), and
// the work counters both bump.
//
// Parallelism contract (inherited from the original ops.cc substrate):
// partitions are over output rows, chunk boundaries depend only on
// (count, NumThreads()), and per-element accumulation order never changes
// with the thread count.
// ---------------------------------------------------------------------------

// Minimum multiply-accumulate count (m*k*n) before a GEMM goes parallel.
inline constexpr int64_t kGemmParallelWork = 1 << 16;
// Minimum element count before row-wise ops (softmax/layernorm/losses) and
// elementwise ops go parallel.
inline constexpr int64_t kRowParallelWork = 1 << 14;
inline constexpr int64_t kElemwiseParallelWork = 1 << 15;

inline bool ShouldParallelize(int64_t work, int64_t threshold) {
  return work >= threshold && ThreadPool::Global().NumThreads() > 1;
}

/// Runs fn(worker, row_begin, row_end) over [0, rows), parallel when `work`
/// crosses `threshold`, inline otherwise.
template <typename Fn>
void ForRows(int64_t rows, int64_t work, int64_t threshold, Fn&& fn) {
  if (ShouldParallelize(work, threshold)) {
    ThreadPool::Global().ParallelFor(
        rows,
        [&fn](int worker, int64_t begin, int64_t end) { fn(worker, begin, end); });
  } else {
    fn(0, 0, rows);
  }
}

// Work counters. Every GEMM-bearing op counts through CountGemm; an int8
// GEMM (quant::LinearI8) counts as the fp32 GEMM it replaces.
enum class GemmForm { kNN, kNT, kTN, kFusedAttention };

/// Bumps the form's call counter (`ops.gemm_nn/nt/tn.calls`,
/// `ops.fused_attention.calls`) and `ops.gemm.forward_flops` by
/// 2·mul_adds. Always live (relaxed atomic adds). Defined in ops.cc.
void CountGemm(GemmForm form, int64_t mul_adds);

/// Multiply-accumulates of one fused attention forward: the score and
/// output GEMMs of every head, 2·H·T·T·head_dim.
inline int64_t FusedAttentionMulAdds(int t_len, int dim, int num_heads) {
  return 2 * static_cast<int64_t>(num_heads) * t_len * t_len *
         (dim / num_heads);
}

/// Runs fn(begin, end) over [0, n), chunked across the pool for large n.
template <typename Fn>
void ForElems(int64_t n, Fn&& fn) {
  if (ShouldParallelize(n, kElemwiseParallelWork)) {
    ThreadPool::Global().ParallelFor(
        n, [&fn](int /*worker*/, int64_t begin, int64_t end) { fn(begin, end); });
  } else {
    fn(0, n);
  }
}

// -- Full-op forwards (output pre-zeroed by the caller for the GEMMs). ------

/// C += A[m,k] * B[k,n].
inline void MatMulNNForward(const float* a, const float* b, float* c, int m,
                            int k, int n) {
  const int64_t work = static_cast<int64_t>(m) * k * n;
  ForRows(m, work, kGemmParallelWork, [&](int /*worker*/, int64_t r0, int64_t r1) {
    kernels::GemmNN(a, k, b, n, c, n, k, n, r0, r1);
  });
}

/// C += A[m,k] * B[n,k]^T.
inline void MatMulNTForward(const float* a, const float* b, float* c, int m,
                            int k, int n) {
  const int64_t work = static_cast<int64_t>(m) * k * n;
  ForRows(m, work, kGemmParallelWork, [&](int /*worker*/, int64_t r0, int64_t r1) {
    kernels::GemmNT(a, k, b, k, c, n, n, k, r0, r1);
  });
}

/// C += A[k,m]^T * B[k,n].
inline void MatMulTNForward(const float* a, const float* b, float* c, int m,
                            int k, int n) {
  const int64_t work = static_cast<int64_t>(m) * k * n;
  ForRows(m, work, kGemmParallelWork, [&](int /*worker*/, int64_t r0, int64_t r1) {
    kernels::GemmTN(a, m, b, n, c, n, k, n, r0, r1);
  });
}

inline void TransposeForward(const float* a, float* o, int m, int n) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) o[static_cast<int64_t>(j) * m + i] = a[static_cast<int64_t>(i) * n + j];
  }
}

/// o[i] = a[i] + sign * b[i % cols when broadcast else i].
inline void AddSubForward(const float* a, const float* b, float* o, int64_t n,
                          int cols, bool broadcast, float sign) {
  ForElems(n, [a, b, o, cols, broadcast, sign](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const float bv = broadcast ? b[i % cols] : b[i];
      o[i] = a[i] + sign * bv;
    }
  });
}

inline void MulForward(const float* a, const float* b, float* o, int64_t n) {
  ForElems(n, [a, b, o](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) o[i] = a[i] * b[i];
  });
}

inline void ScaleForward(const float* a, float* o, int64_t n, float s) {
  ForElems(n, [a, o, s](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) o[i] = a[i] * s;
  });
}

inline void AddScalarForward(const float* a, float* o, int64_t n, float s) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + s;
}

// Scalar activations, applied by the Elementwise autograd wrappers.
inline float ReluScalar(float x) { return x > 0.0f ? x : 0.0f; }
inline float TanhScalar(float x) { return std::tanh(x); }
inline float SigmoidScalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }
inline float GeluScalar(float x) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  const float u = kC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(u));
}

template <typename ScalarFn>
void ElementwiseForward(const float* a, float* o, int64_t n, ScalarFn fn) {
  ForElems(n, [a, o, fn](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) o[i] = fn(a[i]);
  });
}

inline void SoftmaxForward(const float* a, float* o, int m, int n) {
  const int64_t work = static_cast<int64_t>(m) * n;
  ForRows(m, work, kRowParallelWork,
          [a, o, n](int /*worker*/, int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              const float* row = a + i * n;
              float* orow = o + i * n;
              float mx = row[0];
              for (int j = 1; j < n; ++j) mx = std::max(mx, row[j]);
              float total = 0.0f;
              for (int j = 0; j < n; ++j) {
                orow[j] = std::exp(row[j] - mx);
                total += orow[j];
              }
              for (int j = 0; j < n; ++j) orow[j] /= total;
            }
          });
}

inline void LogSoftmaxForward(const float* a, float* o, int m, int n) {
  const int64_t work = static_cast<int64_t>(m) * n;
  ForRows(m, work, kRowParallelWork,
          [a, o, n](int /*worker*/, int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              const float* row = a + i * n;
              float* orow = o + i * n;
              float mx = row[0];
              for (int j = 1; j < n; ++j) mx = std::max(mx, row[j]);
              float total = 0.0f;
              for (int j = 0; j < n; ++j) total += std::exp(row[j] - mx);
              const float lse = mx + std::log(total);
              for (int j = 0; j < n; ++j) orow[j] = row[j] - lse;
            }
          });
}

/// Gate activations and cell state one LSTM step keeps per hidden unit:
/// i, f, g, o, c and tanh(c), each a block of H floats.
inline constexpr int kLstmStepBlocks = 6;

/// One LSTM direction over the input projections `proj` [T, 4H] (gate
/// column blocks i, f, g, o) with recurrent weights `w_hh` [H, 4H]. Writes
/// the hidden states to `out` [T, H] in input order; `reverse` processes
/// the rows right to left. `scratch` is 5H zero-filled floats: the [1, 4H]
/// gate row and a zero initial state. Processed step s keeps its
/// kLstmStepBlocks blocks at `steps + s * step_stride`; a stride of 0 reuses
/// one row, which is all the recurrence reads back.
///
/// Each step makes the kernel calls of the per-step op chain in the chain's
/// order, so every output bit matches it: GemmNN of h_prev·W_hh into a
/// zeroed row (what MatMulNNForward runs at m = 1), proj[t] + 1·mm, the
/// gate activations, c = f·c_prev + 1·(i·g), then h = o·tanh(c). Step 0
/// starts from zero h and c rows, and each step counts one NN GEMM.
inline void LstmSequenceForward(const float* proj, const float* w_hh,
                                float* out, float* scratch, float* steps,
                                int64_t step_stride, int t_len, int h,
                                bool reverse) {
  const int g4 = 4 * h;
  float* gates = scratch;
  const float* zeros = scratch + g4;
  for (int s = 0; s < t_len; ++s) {
    const int t = reverse ? t_len - 1 - s : s;
    float* step = steps + s * step_stride;
    const float* h_prev =
        s == 0 ? zeros : out + static_cast<int64_t>(reverse ? t + 1 : t - 1) * h;
    const float* c_prev = s == 0 ? zeros : step - step_stride + 4 * h;
    std::fill(gates, gates + g4, 0.0f);
    kernels::GemmNN(h_prev, h, w_hh, g4, gates, g4, h, g4, 0, 1);
    CountGemm(GemmForm::kNN, static_cast<int64_t>(h) * g4);
    const float* prow = proj + static_cast<int64_t>(t) * g4;
    for (int j = 0; j < g4; ++j) gates[j] = prow[j] + 1.0f * gates[j];
    float* hrow = out + static_cast<int64_t>(t) * h;
    for (int k = 0; k < h; ++k) {
      const float i = SigmoidScalar(gates[k]);
      const float f = SigmoidScalar(gates[h + k]);
      const float g = TanhScalar(gates[2 * h + k]);
      const float o = SigmoidScalar(gates[3 * h + k]);
      // With a zero stride c_prev aliases step's c block; read it first.
      const float c = f * c_prev[k] + 1.0f * (i * g);
      const float tc = TanhScalar(c);
      step[k] = i;
      step[h + k] = f;
      step[2 * h + k] = g;
      step[3 * h + k] = o;
      step[4 * h + k] = c;
      step[5 * h + k] = tc;
      hrow[k] = o * tc;
    }
  }
}

/// Fused multi-head attention forward over packed sequences. Sequence s
/// spans rows [bounds[s], bounds[s + 1]) of q/k/v/o (num_segments + 1
/// ascending bounds from 0) and attends only within itself; its
/// [H, T_s, T_s] probabilities sit at `attn + attn_offsets[s]`. `o` is the
/// [T, dim] output. `attn` and `o` must be zero-filled by the caller (every
/// GEMM below accumulates). `work` is the summed FusedAttentionMulAdds of
/// the sequences.
inline void FusedAttentionForward(const float* q, const float* k,
                                  const float* v, const int* bounds,
                                  const int64_t* attn_offsets,
                                  int num_segments, float* attn, float* o,
                                  int dim, int num_heads, int64_t work) {
  const int head_dim = dim / num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const int64_t rows =
      static_cast<int64_t>(num_heads) * bounds[num_segments];
  // One fork for the whole op; each (sequence, head, row) triple computes
  // its score row, softmaxes it in place, and accumulates its slice of the
  // output — no transposes, slices or concats, and no worker shares an
  // output row. A sequence's triples make exactly the kernel calls of a
  // single-sequence call on its rows, so packing changes no bit.
  ForRows(rows, work, kGemmParallelWork,
          [&](int /*worker*/, int64_t r0, int64_t r1) {
            for (int64_t idx = r0; idx < r1; ++idx) {
              // Sequence s owns flat rows [H * bounds[s], H * bounds[s + 1]).
              const int s = static_cast<int>(
                  std::upper_bound(bounds + 1, bounds + num_segments + 1,
                                   idx / num_heads) -
                  (bounds + 1));
              const int64_t base = bounds[s];
              const int t_len = bounds[s + 1] - bounds[s];
              const int64_t local = idx - num_heads * base;  // h * T_s + i
              const int h = static_cast<int>(local / t_len);
              const int64_t i = local % t_len;
              const int64_t off = base * dim + h * head_dim;
              float* prow = attn + attn_offsets[s] + local * t_len;
              kernels::GemmNTVec(q + off + i * dim, dim, k + off, dim, prow,
                                 t_len, t_len, head_dim, 0, 1);
              kernels::ScaleSoftmaxRow(prow, t_len, scale);
              kernels::GemmNN(prow, t_len, v + off, dim, o + off + i * dim,
                              dim, t_len, head_dim, 0, 1);
            }
          });
}

/// LayerNorm forward. `means` / `inv_std` are per-row saves for backward;
/// either may be null when the caller does not need them.
inline void LayerNormForward(const float* x, const float* gamma,
                             const float* beta, float* o, int m, int n,
                             float eps, float* means, float* inv_std) {
  const int64_t work = static_cast<int64_t>(m) * n;
  ForRows(m, work, kRowParallelWork,
          [&](int /*worker*/, int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              const float* row = x + i * n;
              float mean = 0.0f;
              for (int j = 0; j < n; ++j) mean += row[j];
              mean /= n;
              float var = 0.0f;
              for (int j = 0; j < n; ++j) {
                var += (row[j] - mean) * (row[j] - mean);
              }
              var /= n;
              const float is = 1.0f / std::sqrt(var + eps);
              if (means != nullptr) means[i] = mean;
              if (inv_std != nullptr) inv_std[i] = is;
              float* orow = o + i * n;
              for (int j = 0; j < n; ++j) {
                orow[j] = (row[j] - mean) * is * gamma[j] + beta[j];
              }
            }
          });
}

/// Row-wise L2 normalization. `inv_norm` (per-row saves) may be null.
inline void L2NormalizeForward(const float* a, float* o, int m, int n,
                               float eps, float* inv_norm) {
  for (int i = 0; i < m; ++i) {
    const float* row = a + static_cast<int64_t>(i) * n;
    float sq = 0.0f;
    for (int j = 0; j < n; ++j) sq += row[j] * row[j];
    const float in = 1.0f / (std::sqrt(sq) + eps);
    if (inv_norm != nullptr) inv_norm[i] = in;
    float* orow = o + static_cast<int64_t>(i) * n;
    for (int j = 0; j < n; ++j) orow[j] = row[j] * in;
  }
}

}  // namespace opcompute
}  // namespace resuformer

#endif  // RESUFORMER_TENSOR_OP_COMPUTE_H_
