#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

// The generic-vector helpers below pass Vf8 values through always-inlined
// internal functions; GCC warns that the by-value ABI would differ if AVX
// were enabled, which is irrelevant inside one TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace resuformer {
namespace kernels {

namespace {
// Tile sizes mirror the ops.cc blocked GEMM: a KB x JB tile of B (~16 KiB)
// stays L1-resident while successive A rows stream over it.
constexpr int kKB = 32;
constexpr int kJB = 128;

#if defined(__GNUC__) || defined(__clang__)
#define RESUFORMER_HAVE_VEC 1
// 8-lane float vector via the compiler's generic vector extension: lowered
// to AVX where available, pairs of SSE ops otherwise, and plain scalar code
// on targets without SIMD. memcpy in/out keeps loads/stores unaligned-safe.
typedef float Vf8 __attribute__((vector_size(32)));

inline Vf8 LoadVf8(const float* p) {
  Vf8 v;
  __builtin_memcpy(&v, p, sizeof(Vf8));
  return v;
}

inline void StoreVf8(float* p, Vf8 v) { __builtin_memcpy(p, &v, sizeof(Vf8)); }
#endif

// Reassociated dot product: 16 partial lanes accumulated in a fixed order,
// then a fixed-shape lane reduction. NOT bit-identical to the serial
// ascending-t dot (floating-point addition is not associative) but always
// deterministic, and within ~1e-6 relative of it. Only the fused attention
// path uses this; the transposed-GEMM ops keep the strict serial order.
inline float DotReassoc(const float* a, const float* b, int d) {
  int t = 0;
  float sum = 0.0f;
#if defined(RESUFORMER_HAVE_VEC)
  if (d >= 16) {
    Vf8 acc0 = {};
    Vf8 acc1 = {};
    for (; t + 16 <= d; t += 16) {
      acc0 += LoadVf8(a + t) * LoadVf8(b + t);
      acc1 += LoadVf8(a + t + 8) * LoadVf8(b + t + 8);
    }
    const Vf8 acc = acc0 + acc1;
    float lanes[8];
    __builtin_memcpy(lanes, &acc, sizeof(lanes));
    sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
          ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  }
#endif
  for (; t < d; ++t) sum += a[t] * b[t];
  return sum;
}
}  // namespace

void GemmNT(const float* a, int lda, const float* b, int ldb, float* c,
            int ldc, int bn, int d, int64_t r0, int64_t r1) {
  // Stride preconditions (debug-only; these run inside ParallelFor chunks).
  RF_DCHECK_GE(lda, d);
  RF_DCHECK_GE(ldb, d);
  RF_DCHECK_GE(ldc, bn);
  RF_DCHECK(0 <= r0 && r0 <= r1) << r0 << " vs " << r1;
  for (int64_t i = r0; i < r1; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    int j = 0;
    for (; j + 4 <= bn; j += 4) {
      const float* b0 = b + static_cast<int64_t>(j) * ldb;
      const float* b1 = b0 + ldb;
      const float* b2 = b1 + ldb;
      const float* b3 = b2 + ldb;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (int t = 0; t < d; ++t) {
        const float av = arow[t];
        acc0 += av * b0[t];
        acc1 += av * b1[t];
        acc2 += av * b2[t];
        acc3 += av * b3[t];
      }
      crow[j] += acc0;
      crow[j + 1] += acc1;
      crow[j + 2] += acc2;
      crow[j + 3] += acc3;
    }
    for (; j < bn; ++j) {
      const float* brow = b + static_cast<int64_t>(j) * ldb;
      float acc = 0.0f;
      for (int t = 0; t < d; ++t) acc += arow[t] * brow[t];
      crow[j] += acc;
    }
  }
}

namespace {
// crow[j] += av * brow[j] for j in [j0, j1). Vector lanes hold independent
// output elements, so this is bit-identical to the scalar loop: each c[j]
// sees the exact same multiply-add, just eight at a time.
inline void AxpyRow(float av, const float* brow, float* crow, int j0,
                    int j1) {
  int j = j0;
#if defined(RESUFORMER_HAVE_VEC)
  const Vf8 avv = {av, av, av, av, av, av, av, av};
  for (; j + 8 <= j1; j += 8) {
    StoreVf8(crow + j, LoadVf8(crow + j) + avv * LoadVf8(brow + j));
  }
#endif
  for (; j < j1; ++j) crow[j] += av * brow[j];
}
}  // namespace

void GemmNN(const float* a, int lda, const float* b, int ldb, float* c,
            int ldc, int d, int bn, int64_t r0, int64_t r1) {
  RF_DCHECK_GE(lda, d);
  RF_DCHECK_GE(ldb, bn);
  RF_DCHECK_GE(ldc, bn);
  RF_DCHECK(0 <= r0 && r0 <= r1) << r0 << " vs " << r1;
  for (int t0 = 0; t0 < d; t0 += kKB) {
    const int t1 = std::min(d, t0 + kKB);
    for (int j0 = 0; j0 < bn; j0 += kJB) {
      const int j1 = std::min(bn, j0 + kJB);
      for (int64_t i = r0; i < r1; ++i) {
        const float* arow = a + i * lda;
        float* crow = c + i * ldc;
        for (int t = t0; t < t1; ++t) {
          // No zero-skip: 0 * NaN must stay NaN (divergence stays visible).
          const float av = arow[t];
          const float* brow = b + static_cast<int64_t>(t) * ldb;
          AxpyRow(av, brow, crow, j0, j1);
        }
      }
    }
  }
}

void GemmTN(const float* a, int lda, const float* b, int ldb, float* c,
            int ldc, int d, int bn, int64_t r0, int64_t r1) {
  RF_DCHECK_GE(lda, r1);  // A is [d, *]: its rows must span the C rows used
  RF_DCHECK_GE(ldb, bn);
  RF_DCHECK_GE(ldc, bn);
  RF_DCHECK(0 <= r0 && r0 <= r1) << r0 << " vs " << r1;
  for (int j0 = 0; j0 < bn; j0 += kJB) {
    const int j1 = std::min(bn, j0 + kJB);
    for (int t = 0; t < d; ++t) {
      const float* arow = a + static_cast<int64_t>(t) * lda;
      const float* brow = b + static_cast<int64_t>(t) * ldb;
      for (int64_t i = r0; i < r1; ++i) {
        AxpyRow(arow[i], brow, c + i * ldc, j0, j1);
      }
    }
  }
}

void GemmNTVec(const float* a, int lda, const float* b, int ldb, float* c,
               int ldc, int bn, int d, int64_t r0, int64_t r1) {
  RF_DCHECK_GE(lda, d);
  RF_DCHECK_GE(ldb, d);
  RF_DCHECK_GE(ldc, bn);
  RF_DCHECK(0 <= r0 && r0 <= r1) << r0 << " vs " << r1;
  for (int64_t i = r0; i < r1; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (int j = 0; j < bn; ++j) {
      crow[j] += DotReassoc(arow, b + static_cast<int64_t>(j) * ldb, d);
    }
  }
}

namespace {
#if defined(RESUFORMER_HAVE_VEC)
// Integer lanes for the int8 GEMM family. The product of two int8 values
// fits int16 (|127 * 127| = 16129), and the SUM OF TWO such products still
// fits (32258 < 32767), so each 32-element step multiplies two 16-lane
// int16 vectors, adds them pairwise in int16, and only then widens to the
// int32 accumulator — half the widening work of a naive convert-per-lane
// loop. Integer addition is associative, so any lane order is bit-exact.
typedef int8_t Vi8x16 __attribute__((vector_size(16)));
typedef int16_t Vi16x16 __attribute__((vector_size(32)));
typedef int32_t Vi32x16 __attribute__((vector_size(64)));

inline Vi16x16 LoadI8AsI16(const int8_t* p) {
  Vi8x16 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return __builtin_convertvector(v, Vi16x16);
}
#endif

// Exact int32 dot product of two int8 vectors of length d.
inline int32_t DotI8(const int8_t* a, const int8_t* b, int d) {
  int t = 0;
  int32_t sum = 0;
#if defined(RESUFORMER_HAVE_VEC)
  if (d >= 32) {
    Vi32x16 acc = {};
    for (; t + 32 <= d; t += 32) {
      const Vi16x16 p0 = LoadI8AsI16(a + t) * LoadI8AsI16(b + t);
      const Vi16x16 p1 = LoadI8AsI16(a + t + 16) * LoadI8AsI16(b + t + 16);
      acc += __builtin_convertvector(p0 + p1, Vi32x16);
    }
    int32_t lanes[16];
    __builtin_memcpy(lanes, &acc, sizeof(lanes));
    for (int l = 0; l < 16; ++l) sum += lanes[l];
  }
#endif
  for (; t < d; ++t) {
    sum += static_cast<int32_t>(a[t]) * static_cast<int32_t>(b[t]);
  }
  return sum;
}
}  // namespace

void GemmNTI8(const int8_t* a, int lda, const int8_t* b, int ldb, int32_t* c,
              int ldc, int bn, int d, int64_t r0, int64_t r1) {
  RF_DCHECK_GE(lda, d);
  RF_DCHECK_GE(ldb, d);
  RF_DCHECK_GE(ldc, bn);
  RF_DCHECK(0 <= r0 && r0 <= r1) << r0 << " vs " << r1;
  for (int64_t i = r0; i < r1; ++i) {
    const int8_t* arow = a + i * lda;
    int32_t* crow = c + i * ldc;
    for (int j = 0; j < bn; ++j) {
      crow[j] += DotI8(arow, b + static_cast<int64_t>(j) * ldb, d);
    }
  }
}

void ScaleSoftmaxRow(float* row, int n, float scale) {
  RF_DCHECK_GT(n, 0) << "softmax over an empty row";
  for (int j = 0; j < n; ++j) row[j] *= scale;
  float mx = row[0];
  for (int j = 1; j < n; ++j) mx = std::max(mx, row[j]);
  float total = 0.0f;
  for (int j = 0; j < n; ++j) {
    row[j] = std::exp(row[j] - mx);
    total += row[j];
  }
  for (int j = 0; j < n; ++j) row[j] /= total;
}

void SoftmaxBackwardRow(const float* y, const float* dy, float* dx, int n,
                        bool out_overwrite) {
  RF_DCHECK_GE(n, 0);
  float dot = 0.0f;
  for (int j = 0; j < n; ++j) dot += dy[j] * y[j];
  if (out_overwrite) {
    for (int j = 0; j < n; ++j) dx[j] = (dy[j] - dot) * y[j];
  } else {
    for (int j = 0; j < n; ++j) dx[j] += (dy[j] - dot) * y[j];
  }
}

}  // namespace kernels
}  // namespace resuformer
