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
// Every loop in this header is the single definition of its op's forward
// arithmetic: the autograd ops (tensor/ops.cc) and the static-plan executor
// (tensor/plan.cc) both call these functions, which is what makes plan
// replay bit-identical to the dynamic path — same kernels, same parallel
// partitioning thresholds, same per-element accumulation order. Keep any
// change to a loop here in sync with nothing: there is no second copy.
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

// Work counters. The dynamic ops (tensor/ops.cc) and the plan executor both
// count through CountGemm, so a run reports the same GEMM calls and forward
// flops whichever path executed them.
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

// Cache tile sizes for the blocked GEMM: a KB x JB tile of B (~16 KiB) stays
// L1-resident while successive A rows stream over it.
inline constexpr int kGemmKB = 32;
inline constexpr int kGemmJB = 128;

/// C[r0:r1, :] += A[r0:r1, :] * B for row-major A[m,k], B[k,n], C[m,n].
/// k-tiles are visited in ascending order, so each C element accumulates its
/// k products in the same order as the naive ikj loop (bit-identical).
inline void GemmAccRows(const float* a, const float* b, float* c, int k, int n,
                        int64_t r0, int64_t r1) {
  for (int kk0 = 0; kk0 < k; kk0 += kGemmKB) {
    const int kk1 = std::min(k, kk0 + kGemmKB);
    for (int j0 = 0; j0 < n; j0 += kGemmJB) {
      const int j1 = std::min(n, j0 + kGemmJB);
      for (int64_t i = r0; i < r1; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (int kk = kk0; kk < kk1; ++kk) {
          // No zero-skip here: 0 * NaN must stay NaN so divergence during
          // pre-training is not silently suppressed.
          const float av = arow[kk];
          const float* brow = b + static_cast<int64_t>(kk) * n;
          for (int j = j0; j < j1; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

// -- Full-op forwards (output pre-zeroed by the caller for the GEMMs). ------

/// C += A[m,k] * B[k,n].
inline void MatMulNNForward(const float* a, const float* b, float* c, int m,
                            int k, int n) {
  const int64_t work = static_cast<int64_t>(m) * k * n;
  ForRows(m, work, kGemmParallelWork, [&](int /*worker*/, int64_t r0, int64_t r1) {
    GemmAccRows(a, b, c, k, n, r0, r1);
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

// Scalar activations. Defined once so the Elementwise autograd wrappers and
// the plan executor apply the exact same arithmetic.
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

/// bias may be null; bias_broadcast selects the rank-1 row broadcast.
inline void ScaleAddSoftmaxForward(const float* a, const float* bias,
                                   bool bias_broadcast, float* o, int m, int n,
                                   float scale) {
  const int64_t work = static_cast<int64_t>(m) * n;
  ForRows(m, work, kRowParallelWork,
          [&](int /*worker*/, int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              float* orow = o + i * n;
              std::copy(a + i * n, a + (i + 1) * n, orow);
              const float* brow =
                  bias == nullptr ? nullptr : (bias_broadcast ? bias : bias + i * n);
              kernels::ScaleAddSoftmaxRow(orow, brow, n, scale);
            }
          });
}

/// Fused multi-head attention forward. `attn` is the [H, T, T] probability
/// scratch, `o` the [T, dim] output; both must be zero-filled by the caller
/// (every GEMM below accumulates).
inline void FusedAttentionForward(const float* q, const float* k,
                                  const float* v, const float* bias,
                                  float* attn, float* o, int t_len, int dim,
                                  int num_heads) {
  const int head_dim = dim / num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const int64_t rows = static_cast<int64_t>(num_heads) * t_len;
  const int64_t work = FusedAttentionMulAdds(t_len, dim, num_heads);
  // One fork for the whole op; each (head, row) pair computes its score
  // row, softmaxes it in place, and accumulates its slice of the output —
  // no transposes, slices or concats, and no worker shares an output row.
  ForRows(rows, work, kGemmParallelWork,
          [&](int /*worker*/, int64_t r0, int64_t r1) {
            for (int64_t idx = r0; idx < r1; ++idx) {
              const int h = static_cast<int>(idx / t_len);
              const int64_t i = idx % t_len;
              const int off = h * head_dim;
              float* ahead = attn + static_cast<int64_t>(h) * t_len * t_len;
              kernels::GemmNTVec(q + off, dim, k + off, dim, ahead, t_len,
                                 t_len, head_dim, i, i + 1);
              kernels::ScaleAddSoftmaxRow(
                  ahead + i * t_len,
                  bias == nullptr ? nullptr : bias + i * t_len, t_len, scale);
              kernels::GemmNN(ahead, t_len, v + off, dim, o + off, dim, t_len,
                              head_dim, i, i + 1);
            }
          });
}

/// LayerNorm forward. `means` / `inv_std` are per-row saves for backward;
/// either may be null when the caller does not need them (inference replay).
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
