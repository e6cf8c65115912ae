// Int8 quantization + int8 GEMM kernel tests (PR 7 tentpole).
//
// Three layers of pinning:
//  * quantize -> dequantize round trip obeys the analytic per-element
//    error bound |x - deq(q(x))| <= scale/2,
//  * the int8 GEMM kernels (NT/NN/TN) match an exact scalar int32
//    reference bit-for-bit across ragged shapes and row partitions
//    (integer accumulation is associative, so there is no tolerance),
//  * LinearI8Forward (per-row activation quant + NT GEMM + dequant)
//    tracks the fp32 product within the analytic quantization bound, is
//    bit-identical across thread-pool widths, and gives each row the same
//    output whatever rows surround it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"

namespace resuformer {
namespace quant {
namespace {

std::vector<float> RandomVec(int64_t n, float scale, Rng* rng) {
  std::vector<float> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = scale * static_cast<float>(rng->Normal());
  }
  return v;
}

std::vector<int8_t> RandomI8(int64_t n, Rng* rng) {
  std::vector<int8_t> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = static_cast<int8_t>(static_cast<int>(rng->UniformInt(255)) - 127);
  }
  return v;
}

TEST(QuantizeTest, RoundTripErrorBoundedByHalfScale) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t n = 1 + static_cast<int64_t>(rng.UniformInt(500));
    const float mag = 0.01f + 10.0f * static_cast<float>(rng.Uniform());
    std::vector<float> x = RandomVec(n, mag, &rng);
    const float scale = ComputeScale(x.data(), n);
    ASSERT_GT(scale, 0.0f);
    std::vector<int8_t> q(n);
    Quantize(x.data(), n, scale, q.data());
    std::vector<float> back(n);
    Dequantize(q.data(), n, scale, back.data());
    for (int64_t i = 0; i < n; ++i) {
      // Half-away-from-zero rounding: the representable grid has pitch
      // `scale`, and every |x[i]| <= 127*scale by construction of the
      // scale, so the round-trip error is at most half a grid step.
      ASSERT_LE(std::abs(x[i] - back[i]), scale * 0.5f + 1e-7f)
          << "trial " << trial << " element " << i << " x=" << x[i];
      ASSERT_GE(q[i], -127);
      ASSERT_LE(q[i], 127);
    }
  }
}

TEST(QuantizeTest, ScaleIsMaxAbsOver127AndZeroForZeroInput) {
  const float x[4] = {0.5f, -2.54f, 1.0f, 0.0f};
  EXPECT_FLOAT_EQ(ComputeScale(x, 4), 2.54f / 127.0f);
  const float zeros[3] = {0.0f, 0.0f, 0.0f};
  EXPECT_EQ(ComputeScale(zeros, 3), 0.0f);
  EXPECT_EQ(ComputeScale(nullptr, 0), 0.0f);
}

TEST(QuantizeTest, NegationIsExact) {
  // Symmetric range (-127..127, never -128): q(-x) == -q(x) exactly.
  Rng rng(7);
  std::vector<float> x = RandomVec(257, 3.0f, &rng);
  const float scale = ComputeScale(x.data(), 257);
  std::vector<float> neg(x.size());
  for (size_t i = 0; i < x.size(); ++i) neg[i] = -x[i];
  std::vector<int8_t> qx(x.size()), qn(x.size());
  Quantize(x.data(), 257, scale, qx.data());
  Quantize(neg.data(), 257, scale, qn.data());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(static_cast<int>(qn[i]), -static_cast<int>(qx[i])) << i;
  }
}

TEST(QuantizeTest, QuantizeTransposedMatchesManualTranspose) {
  Rng rng(31);
  const int k = 9, n = 5;
  std::vector<float> w = RandomVec(static_cast<int64_t>(k) * n, 1.0f, &rng);
  const QuantizedTensor qt = QuantizeTransposed(w.data(), k, n);
  ASSERT_EQ(qt.rows, n);
  ASSERT_EQ(qt.cols, k);
  const float scale = ComputeScale(w.data(), static_cast<int64_t>(k) * n);
  EXPECT_FLOAT_EQ(qt.scale, scale);
  std::vector<int8_t> qw(w.size());
  Quantize(w.data(), static_cast<int64_t>(k) * n, scale, qw.data());
  for (int t = 0; t < k; ++t) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(qt.data[static_cast<size_t>(j) * k + t],
                qw[static_cast<size_t>(t) * n + j])
          << "t=" << t << " j=" << j;
    }
  }
}

// ---------------------------------------------------------------------------
// The int8 GEMM kernel vs an exact scalar reference. Shapes include 1, odd,
// prime, and >32 reduction dims so both the 32-wide vector body and the
// scalar tail are exercised.
// ---------------------------------------------------------------------------

struct GemmShape {
  int m, d, n;
};

const GemmShape kShapes[] = {{1, 1, 1},  {1, 16, 3},  {3, 17, 5},
                             {4, 32, 4}, {5, 33, 7},  {2, 63, 2},
                             {7, 64, 9}, {6, 100, 11}, {3, 257, 8}};

TEST(GemmI8Test, NtMatchesScalarReference) {
  Rng rng(201);
  for (const GemmShape& s : kShapes) {
    std::vector<int8_t> a = RandomI8(static_cast<int64_t>(s.m) * s.d, &rng);
    std::vector<int8_t> b = RandomI8(static_cast<int64_t>(s.n) * s.d, &rng);
    std::vector<int32_t> c(static_cast<size_t>(s.m) * s.n, 5);
    std::vector<int32_t> want(c);
    for (int i = 0; i < s.m; ++i) {
      for (int j = 0; j < s.n; ++j) {
        int32_t acc = 0;
        for (int t = 0; t < s.d; ++t) {
          acc += static_cast<int32_t>(a[static_cast<size_t>(i) * s.d + t]) *
                 static_cast<int32_t>(b[static_cast<size_t>(j) * s.d + t]);
        }
        want[static_cast<size_t>(i) * s.n + j] += acc;
      }
    }
    kernels::GemmNTI8(a.data(), s.d, b.data(), s.d, c.data(), s.n, s.n, s.d, 0, s.m);
    EXPECT_EQ(c, want) << "shape " << s.m << "x" << s.d << "x" << s.n;
  }
}

TEST(GemmI8Test, RowPartitionsComposeExactly) {
  // The pool splits GEMMs into [r0, r1) row ranges across workers; int32
  // accumulation makes any split bit-identical to the full run.
  Rng rng(204);
  const int m = 9, d = 77, n = 6;
  std::vector<int8_t> a = RandomI8(static_cast<int64_t>(m) * d, &rng);
  std::vector<int8_t> b = RandomI8(static_cast<int64_t>(n) * d, &rng);
  std::vector<int32_t> full(static_cast<size_t>(m) * n, 0);
  kernels::GemmNTI8(a.data(), d, b.data(), d, full.data(), n, n, d, 0, m);
  std::vector<int32_t> split(static_cast<size_t>(m) * n, 0);
  kernels::GemmNTI8(a.data(), d, b.data(), d, split.data(), n, n, d, 0, 4);
  kernels::GemmNTI8(a.data(), d, b.data(), d, split.data(), n, n, d, 4, 7);
  kernels::GemmNTI8(a.data(), d, b.data(), d, split.data(), n, n, d, 7, m);
  EXPECT_EQ(split, full);
}

// ---------------------------------------------------------------------------
// LinearI8Forward: quantized linear vs the fp32 product.
// ---------------------------------------------------------------------------

/// Analytic error bound for one output element of the quantized product:
/// with |a_i - sa*qa_i| <= sa/2 and |w_i - sw*qw_i| <= sw/2 and operand
/// magnitudes at most 127*scale, the per-term error is at most
/// sa*sw*(127/2 + 127/2 + 1/4) < 128*sa*sw, so the dot over k terms is
/// within k*128*sa*sw of the exact fp32 value.
float LinearTolerance(int k, float sa, float sw) {
  return 128.0f * sa * sw * static_cast<float>(k);
}

TEST(LinearI8Test, TracksFp32WithinAnalyticBound) {
  Rng rng(301);
  const GemmShape shapes[] = {{1, 8, 4}, {5, 33, 7}, {12, 96, 24}};
  for (const GemmShape& s : shapes) {
    std::vector<float> a =
        RandomVec(static_cast<int64_t>(s.m) * s.d, 0.9f, &rng);
    std::vector<float> w =
        RandomVec(static_cast<int64_t>(s.d) * s.n, 0.2f, &rng);
    const QuantizedTensor qw = QuantizeTransposed(w.data(), s.d, s.n);
    std::vector<float> scratch(LinearI8ScratchFloats(s.m, s.d, s.n));
    std::vector<float> c(static_cast<size_t>(s.m) * s.n,
                         123.0f);  // must be overwritten
    LinearI8Forward(a.data(), qw, c.data(), s.m, s.d, s.n, scratch.data());
    for (int i = 0; i < s.m; ++i) {
      // Each row is quantized with its own scale.
      const float sa =
          ComputeScale(a.data() + static_cast<size_t>(i) * s.d, s.d);
      const float tol = LinearTolerance(s.d, sa, qw.scale);
      for (int j = 0; j < s.n; ++j) {
        float exact = 0.0f;
        for (int t = 0; t < s.d; ++t) {
          exact += a[static_cast<size_t>(i) * s.d + t] *
                   w[static_cast<size_t>(t) * s.n + j];
        }
        ASSERT_NEAR(c[static_cast<size_t>(i) * s.n + j], exact, tol)
            << "shape " << s.m << "x" << s.d << "x" << s.n << " (" << i
            << "," << j << ")";
      }
    }
  }
}

TEST(LinearI8Test, ZeroActivationsOrWeightsYieldExactZero) {
  const int m = 3, k = 8, n = 2;
  std::vector<float> zeros(static_cast<size_t>(m) * k, 0.0f);
  Rng rng(302);
  std::vector<float> w = RandomVec(static_cast<int64_t>(k) * n, 1.0f, &rng);
  const QuantizedTensor qw = QuantizeTransposed(w.data(), k, n);
  std::vector<float> scratch(LinearI8ScratchFloats(m, k, n));
  std::vector<float> c(static_cast<size_t>(m) * n, 9.0f);
  LinearI8Forward(zeros.data(), qw, c.data(), m, k, n, scratch.data());
  for (float v : c) EXPECT_EQ(v, 0.0f);

  std::vector<float> a = RandomVec(static_cast<int64_t>(m) * k, 1.0f, &rng);
  std::vector<float> wz(static_cast<size_t>(k) * n, 0.0f);
  const QuantizedTensor qz = QuantizeTransposed(wz.data(), k, n);
  std::fill(c.begin(), c.end(), 9.0f);
  LinearI8Forward(a.data(), qz, c.data(), m, k, n, scratch.data());
  for (float v : c) EXPECT_EQ(v, 0.0f);
}

TEST(LinearI8Test, RowOutputIgnoresTheOtherRows) {
  // Rows of very different magnitude: a per-tensor activation scale would
  // quantize the small row coarsely because of the large one.
  Rng rng(304);
  const int m = 3, k = 40, n = 12;
  std::vector<float> a = RandomVec(static_cast<int64_t>(m) * k, 1.0f, &rng);
  for (int t = 0; t < k; ++t) a[static_cast<size_t>(2) * k + t] *= 50.0f;
  std::vector<float> w = RandomVec(static_cast<int64_t>(k) * n, 0.3f, &rng);
  const QuantizedTensor qw = QuantizeTransposed(w.data(), k, n);
  std::vector<float> scratch(LinearI8ScratchFloats(m, k, n));
  std::vector<float> all(static_cast<size_t>(m) * n);
  LinearI8Forward(a.data(), qw, all.data(), m, k, n, scratch.data());
  for (int i = 0; i < m; ++i) {
    std::vector<float> alone(n);
    LinearI8Forward(a.data() + static_cast<size_t>(i) * k, qw, alone.data(),
                    1, k, n, scratch.data());
    const std::vector<float> row(all.begin() + static_cast<size_t>(i) * n,
                                 all.begin() + static_cast<size_t>(i + 1) * n);
    EXPECT_EQ(alone, row) << "row " << i;
  }
}

TEST(LinearI8Test, BitIdenticalAcrossThreadCounts) {
  Rng rng(303);
  const int m = 40, k = 64, n = 48;  // big enough to actually parallelize
  std::vector<float> a = RandomVec(static_cast<int64_t>(m) * k, 1.0f, &rng);
  std::vector<float> w = RandomVec(static_cast<int64_t>(k) * n, 0.3f, &rng);
  const QuantizedTensor qw = QuantizeTransposed(w.data(), k, n);
  std::vector<float> scratch(LinearI8ScratchFloats(m, k, n));

  ThreadPool::Global().SetNumThreads(1);
  std::vector<float> serial(static_cast<size_t>(m) * n);
  LinearI8Forward(a.data(), qw, serial.data(), m, k, n, scratch.data());

  ThreadPool::Global().SetNumThreads(4);
  std::vector<float> parallel(static_cast<size_t>(m) * n);
  LinearI8Forward(a.data(), qw, parallel.data(), m, k, n, scratch.data());
  ThreadPool::Global().SetNumThreads(1);

  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace quant
}  // namespace resuformer
