#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "gradcheck.h"
#include "tensor/arena.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace resuformer {
namespace {

using testing::GradCheck;

constexpr double kTol = 5e-2;  // float32 + finite differences

Tensor RandTensor(std::vector<int> shape, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return Tensor::Randn(std::move(shape), &rng, scale);
}

TEST(TensorTest, FactoriesAndAccessors) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.rank(), 2);
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  EXPECT_EQ(z.size(), 6);
  EXPECT_EQ(z.at(1, 2), 0.0f);

  Tensor f = Tensor::Full({4}, 2.5f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(f.at(i), 2.5f);

  Tensor d = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(d.at(1, 0), 3.0f);
  EXPECT_EQ(d.ShapeString(), "[2, 2]");
}

TEST(TensorTest, DetachSharesNoHistory) {
  Tensor a = Tensor::Full({2}, 3.0f, /*requires_grad=*/true);
  Tensor b = ops::Scale(a, 2.0f);
  Tensor d = b.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.at(0), 6.0f);
}

TEST(AutogradTest, TopologicalOrderVisitsParentsFirst) {
  Tensor a = Tensor::Full({1}, 1.0f, true);
  Tensor b = ops::Scale(a, 2.0f);
  Tensor c = ops::Add(a, b);
  auto order = autograd_internal::TopologicalOrder(c.impl().get());
  // c must come after both a and b.
  EXPECT_EQ(order.back(), c.impl().get());
  EXPECT_EQ(order.size(), 3u);
}

TEST(AutogradTest, ChainRuleThroughSharedNode) {
  // y = (2a) + (2a) => dy/da = 4.
  Tensor a = Tensor::Full({1}, 1.5f, true);
  Tensor b = ops::Scale(a, 2.0f);
  Tensor y = ops::Add(b, b);
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f);
}

TEST(AutogradTest, NoGradGuardSuppressesGraph) {
  Tensor a = Tensor::Full({2, 2}, 1.0f, true);
  NoGradGuard guard;
  Tensor b = ops::MatMul(a, a);
  EXPECT_FALSE(b.requires_grad());
  EXPECT_TRUE(b.impl()->parents.empty());
}

TEST(OpsForwardTest, MatMulValues) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(OpsForwardTest, SoftmaxRowsSumToOne) {
  Tensor a = RandTensor({3, 5}, 1);
  Tensor s = ops::Softmax(a);
  for (int i = 0; i < 3; ++i) {
    float total = 0.0f;
    for (int j = 0; j < 5; ++j) total += s.at(i, j);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(OpsForwardTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = RandTensor({2, 4}, 2);
  Tensor s = ops::Softmax(a);
  Tensor ls = ops::LogSoftmax(a);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(ls.at(i, j), std::log(s.at(i, j)), 1e-5f);
    }
  }
}

TEST(OpsForwardTest, TransposeRoundTrip) {
  Tensor a = RandTensor({3, 4}, 3);
  Tensor t = ops::Transpose(ops::Transpose(a));
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) EXPECT_EQ(a.at(i, j), t.at(i, j));
  }
}

TEST(OpsForwardTest, ConcatAndSliceInverse) {
  Tensor a = RandTensor({2, 3}, 4);
  Tensor b = RandTensor({1, 3}, 5);
  Tensor c = ops::ConcatRows({a, b});
  EXPECT_EQ(c.rows(), 3);
  Tensor back = ops::SliceRows(c, 0, 2);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_EQ(back.at(i, j), a.at(i, j));
  }
}

TEST(OpsForwardTest, GatherRowsSelects) {
  Tensor a = Tensor::FromData({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor g = ops::GatherRows(a, {2, 0, 2});
  EXPECT_FLOAT_EQ(g.at(0, 0), 20.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(g.at(2, 1), 21.0f);
}

TEST(OpsForwardTest, L2NormalizeRowsUnitNorm) {
  Tensor a = RandTensor({4, 6}, 6);
  Tensor n = ops::L2NormalizeRows(a);
  for (int i = 0; i < 4; ++i) {
    float sq = 0.0f;
    for (int j = 0; j < 6; ++j) sq += n.at(i, j) * n.at(i, j);
    EXPECT_NEAR(sq, 1.0f, 1e-4f);
  }
}

TEST(OpsForwardTest, CrossEntropyIgnoresIndex) {
  Tensor logits = Tensor::FromData({2, 3}, {10, 0, 0, 0, 10, 0});
  Tensor l1 = ops::CrossEntropy(logits, {0, -1}, -1);
  Tensor l2 = ops::CrossEntropy(ops::SliceRows(logits, 0, 1), {0});
  EXPECT_NEAR(l1.item(), l2.item(), 1e-6f);
}

TEST(OpsForwardTest, DropoutIdentityWhenEval) {
  Rng rng(1);
  Tensor a = RandTensor({3, 3}, 7);
  Tensor d = ops::Dropout(a, 0.5f, &rng, /*training=*/false);
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.data()[i], d.data()[i]);
}

TEST(OpsForwardTest, DropoutPreservesExpectation) {
  Rng rng(2);
  Tensor a = Tensor::Full({1, 10000}, 1.0f);
  Tensor d = ops::Dropout(a, 0.3f, &rng, /*training=*/true);
  double total = 0;
  for (int64_t i = 0; i < d.size(); ++i) total += d.data()[i];
  EXPECT_NEAR(total / d.size(), 1.0, 0.05);
}

// ---------- gradient checks ----------

TEST(OpsGradTest, MatMulGrad) {
  Tensor a = RandTensor({3, 4}, 10);
  Tensor b = RandTensor({4, 2}, 11);
  b.set_requires_grad(true);
  EXPECT_LT(GradCheck(a, [&]() { return ops::Mean(ops::MatMul(a, b)); }),
            kTol);
}

TEST(OpsGradTest, MatMulGradRhs) {
  Tensor a = RandTensor({3, 4}, 12);
  Tensor b = RandTensor({4, 2}, 13);
  a.set_requires_grad(true);
  EXPECT_LT(GradCheck(b, [&]() { return ops::Mean(ops::MatMul(a, b)); }),
            kTol);
}

TEST(OpsGradTest, AddBroadcastGrad) {
  Tensor a = RandTensor({3, 4}, 14);
  Tensor bias = RandTensor({4}, 15);
  a.set_requires_grad(true);
  EXPECT_LT(GradCheck(bias,
                      [&]() {
                        return ops::Mean(
                            ops::Mul(ops::Add(a, bias), ops::Add(a, bias)));
                      }),
            kTol);
}

TEST(OpsGradTest, ElementwiseActivations) {
  for (uint64_t seed : {20ull, 21ull}) {
    Tensor x = RandTensor({2, 5}, seed);
    EXPECT_LT(GradCheck(x, [&]() { return ops::Mean(ops::Tanh(x)); }), kTol);
    EXPECT_LT(GradCheck(x, [&]() { return ops::Mean(ops::Sigmoid(x)); }),
              kTol);
    EXPECT_LT(GradCheck(x, [&]() { return ops::Mean(ops::Gelu(x)); }), kTol);
  }
}

TEST(OpsGradTest, SoftmaxGrad) {
  Tensor x = RandTensor({2, 4}, 22);
  Tensor w = RandTensor({2, 4}, 23);
  EXPECT_LT(
      GradCheck(x, [&]() { return ops::Mean(ops::Mul(ops::Softmax(x), w)); }),
      kTol);
}

TEST(OpsGradTest, LogSoftmaxGrad) {
  Tensor x = RandTensor({2, 4}, 24);
  Tensor w = RandTensor({2, 4}, 25);
  EXPECT_LT(GradCheck(
                x, [&]() { return ops::Mean(ops::Mul(ops::LogSoftmax(x), w)); }),
            kTol);
}

TEST(OpsGradTest, CrossEntropyGrad) {
  Tensor logits = RandTensor({4, 5}, 26);
  const std::vector<int> targets = {0, 3, -1, 2};
  EXPECT_LT(GradCheck(logits,
                      [&]() { return ops::CrossEntropy(logits, targets, -1); }),
            kTol);
}

TEST(OpsGradTest, SoftCrossEntropyGrad) {
  Tensor logits = RandTensor({3, 4}, 27);
  Tensor targets = ops::Softmax(RandTensor({3, 4}, 28)).Detach();
  const std::vector<float> weights = {1.0f, 0.0f, 2.0f};
  EXPECT_LT(GradCheck(logits,
                      [&]() {
                        return ops::SoftCrossEntropy(logits, targets, weights);
                      }),
            kTol);
}

TEST(OpsGradTest, LayerNormGrad) {
  Tensor x = RandTensor({3, 6}, 29);
  Tensor gamma = RandTensor({6}, 30, 0.5f);
  Tensor beta = RandTensor({6}, 31, 0.5f);
  Tensor w = RandTensor({3, 6}, 32);
  auto loss = [&]() {
    return ops::Mean(ops::Mul(ops::LayerNormOp(x, gamma, beta), w));
  };
  EXPECT_LT(GradCheck(x, loss), kTol);
  EXPECT_LT(GradCheck(gamma, loss), kTol);
  EXPECT_LT(GradCheck(beta, loss), kTol);
}

TEST(OpsGradTest, ConcatSliceGatherGrad) {
  Tensor a = RandTensor({2, 3}, 33);
  Tensor b = RandTensor({2, 3}, 34);
  Tensor w = RandTensor({4, 3}, 35);
  EXPECT_LT(GradCheck(a,
                      [&]() {
                        return ops::Mean(
                            ops::Mul(ops::ConcatRows({a, b}), w));
                      }),
            kTol);
  Tensor w2 = RandTensor({2, 6}, 36);
  EXPECT_LT(GradCheck(a,
                      [&]() {
                        return ops::Mean(
                            ops::Mul(ops::ConcatCols({a, b}), w2));
                      }),
            kTol);
  Tensor w3 = RandTensor({3, 3}, 37);
  EXPECT_LT(GradCheck(a,
                      [&]() {
                        return ops::Mean(
                            ops::Mul(ops::GatherRows(a, {0, 1, 0}), w3));
                      }),
            kTol);
}

TEST(OpsGradTest, L2NormalizeGrad) {
  Tensor x = RandTensor({2, 5}, 38);
  Tensor w = RandTensor({2, 5}, 39);
  EXPECT_LT(GradCheck(x,
                      [&]() {
                        return ops::Mean(ops::Mul(ops::L2NormalizeRows(x), w));
                      }),
            kTol);
}

TEST(OpsGradTest, TransposeSliceColsGrad) {
  Tensor x = RandTensor({3, 4}, 40);
  Tensor w = RandTensor({4, 3}, 41);
  EXPECT_LT(GradCheck(
                x, [&]() { return ops::Mean(ops::Mul(ops::Transpose(x), w)); }),
            kTol);
  Tensor w2 = RandTensor({3, 2}, 42);
  EXPECT_LT(GradCheck(x,
                      [&]() {
                        return ops::Mean(
                            ops::Mul(ops::SliceCols(x, 1, 2), w2));
                      }),
            kTol);
}

TEST(OpsGradTest, ScaleSubMulGrad) {
  Tensor x = RandTensor({2, 3}, 43);
  Tensor y = RandTensor({2, 3}, 44);
  EXPECT_LT(GradCheck(x,
                      [&]() {
                        return ops::Mean(ops::Mul(ops::Sub(x, y),
                                                  ops::Scale(x, 0.5f)));
                      }),
            kTol);
}

TEST(OpsGradTest, SumAndReshapeGrad) {
  Tensor x = RandTensor({2, 6}, 45);
  EXPECT_LT(GradCheck(x,
                      [&]() {
                        Tensor r = ops::Reshape(x, {3, 4});
                        return ops::Scale(ops::Sum(ops::Mul(r, r)), 0.1f);
                      }),
            kTol);
}

// ---------- NaN propagation ----------

TEST(OpsForwardTest, MatMulPropagatesNaNThroughZero) {
  // 0 * NaN must stay NaN: a zero-skip branch in the kernel would silently
  // suppress divergence instead of surfacing it.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a = Tensor::FromData({1, 2}, {0.0f, 1.0f});
  Tensor b = Tensor::FromData({2, 1}, {nan, 1.0f});
  Tensor c = ops::MatMul(a, b);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
}

TEST(OpsGradTest, MatMulBackwardPropagatesNaNThroughZero) {
  // dB = A^T * dC with A == 0 and NaN upstream gradient: dB must be NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a = Tensor::FromData({1, 1}, {0.0f});
  Tensor b = Tensor::FromData({1, 1}, {2.0f});
  b.set_requires_grad(true);
  Tensor c = ops::MatMul(a, b);
  Tensor poison = Tensor::FromData({1, 1}, {nan});
  Tensor loss = ops::Sum(ops::Mul(c, poison));
  loss.Backward();
  EXPECT_TRUE(std::isnan(b.grad()[0]));
}

// ---------- serial vs parallel kernels ----------

namespace {

/// Restores the pool to single-thread mode when a test scope exits.
struct PoolGuard {
  explicit PoolGuard(int n) { ThreadPool::Global().SetNumThreads(n); }
  ~PoolGuard() { ThreadPool::Global().SetNumThreads(1); }
};

std::vector<float> GradOf(const Tensor& t) { return t.impl()->grad; }

}  // namespace

TEST(ParallelOpsTest, GemmMatchesSerialAcrossThreshold) {
  // 24^3 is below the GEMM parallel threshold, 96^3 is above; both must be
  // bit-identical between a 1-thread and a 4-thread pool (the parallel GEMM
  // preserves the serial per-element accumulation order).
  for (int size : {24, 96}) {
    Tensor a = RandTensor({size, size}, 100 + size);
    Tensor b = RandTensor({size, size}, 200 + size);
    Tensor w = RandTensor({size, size}, 300 + size);
    a.set_requires_grad(true);
    b.set_requires_grad(true);
    auto run = [&]() {
      a.ZeroGrad();
      b.ZeroGrad();
      Tensor c = ops::MatMul(a, b);
      ops::Mean(ops::Mul(c, w)).Backward();
      return c;
    };
    ThreadPool::Global().SetNumThreads(1);
    Tensor serial_out = run();
    std::vector<float> serial_da = GradOf(a), serial_db = GradOf(b);
    {
      PoolGuard guard(4);
      Tensor parallel_out = run();
      std::vector<float> parallel_da = GradOf(a), parallel_db = GradOf(b);
      for (int64_t i = 0; i < serial_out.size(); ++i) {
        ASSERT_EQ(serial_out.data()[i], parallel_out.data()[i]) << i;
      }
      ASSERT_EQ(serial_da, parallel_da) << "dA mismatch at size " << size;
      ASSERT_EQ(serial_db, parallel_db) << "dB mismatch at size " << size;
    }
  }
}

TEST(ParallelOpsTest, SoftmaxMatchesSerialAcrossThreshold) {
  // Rows are independent, so forward and backward are bit-identical.
  for (int rows : {8, 512}) {  // 8x64 below the row threshold, 512x64 above
    Tensor x = RandTensor({rows, 64}, 400 + rows);
    Tensor w = RandTensor({rows, 64}, 500 + rows);
    x.set_requires_grad(true);
    auto run = [&]() {
      x.ZeroGrad();
      Tensor y = ops::Softmax(x);
      ops::Mean(ops::Mul(y, w)).Backward();
      return y;
    };
    ThreadPool::Global().SetNumThreads(1);
    Tensor serial_out = run();
    std::vector<float> serial_dx = GradOf(x);
    {
      PoolGuard guard(4);
      Tensor parallel_out = run();
      for (int64_t i = 0; i < serial_out.size(); ++i) {
        ASSERT_EQ(serial_out.data()[i], parallel_out.data()[i]) << i;
      }
      ASSERT_EQ(serial_dx, GradOf(x)) << "dx mismatch at rows " << rows;
    }
  }
}

TEST(ParallelOpsTest, LayerNormMatchesSerialAcrossThreshold) {
  for (int rows : {8, 512}) {
    Tensor x = RandTensor({rows, 64}, 600 + rows);
    Tensor gamma = RandTensor({64}, 601, 0.5f);
    Tensor beta = RandTensor({64}, 602, 0.5f);
    Tensor w = RandTensor({rows, 64}, 603 + rows);
    x.set_requires_grad(true);
    gamma.set_requires_grad(true);
    beta.set_requires_grad(true);
    auto run = [&]() {
      x.ZeroGrad();
      gamma.ZeroGrad();
      beta.ZeroGrad();
      Tensor y = ops::LayerNormOp(x, gamma, beta);
      ops::Mean(ops::Mul(y, w)).Backward();
      return y;
    };
    ThreadPool::Global().SetNumThreads(1);
    Tensor serial_out = run();
    std::vector<float> serial_dx = GradOf(x);
    std::vector<float> serial_dgamma = GradOf(gamma);
    std::vector<float> serial_dbeta = GradOf(beta);
    {
      PoolGuard guard(4);
      Tensor parallel_out = run();
      // Forward rows are independent: bit-identical.
      for (int64_t i = 0; i < serial_out.size(); ++i) {
        ASSERT_EQ(serial_out.data()[i], parallel_out.data()[i]) << i;
      }
      // dx rows are disjoint: bit-identical. dgamma/dbeta reduce over rows
      // through per-worker buffers, so only near-equality holds vs serial...
      ASSERT_EQ(serial_dx, GradOf(x));
      std::vector<float> parallel_dgamma = GradOf(gamma);
      std::vector<float> parallel_dbeta = GradOf(beta);
      for (size_t i = 0; i < serial_dgamma.size(); ++i) {
        ASSERT_NEAR(serial_dgamma[i], parallel_dgamma[i],
                    2e-4f * (1.0f + std::abs(serial_dgamma[i])));
        ASSERT_NEAR(serial_dbeta[i], parallel_dbeta[i],
                    2e-4f * (1.0f + std::abs(serial_dbeta[i])));
      }
      // ...but repeating the run at the same thread count must reproduce the
      // reduction exactly: static partitioning, no scheduling dependence.
      run();
      ASSERT_EQ(parallel_dgamma, GradOf(gamma));
      ASSERT_EQ(parallel_dbeta, GradOf(beta));
      ASSERT_EQ(serial_dx, GradOf(x));
    }
  }
}

TEST(ParallelOpsTest, CrossEntropyBitIdenticalAtAnyThreadCount) {
  // The loss reduces per-row terms serially in row order, so even the
  // parallel path is bit-identical to the serial kernel.
  const int rows = 512, cols = 64;
  Tensor logits = RandTensor({rows, cols}, 700);
  logits.set_requires_grad(true);
  std::vector<int> targets(rows);
  for (int i = 0; i < rows; ++i) targets[i] = (i * 7) % cols;
  targets[3] = -1;  // exercise ignore_index
  auto run = [&]() {
    logits.ZeroGrad();
    Tensor loss = ops::CrossEntropy(logits, targets, -1);
    loss.Backward();
    return loss.item();
  };
  ThreadPool::Global().SetNumThreads(1);
  const float serial_loss = run();
  std::vector<float> serial_grad = GradOf(logits);
  {
    PoolGuard guard(4);
    EXPECT_EQ(serial_loss, run());
    EXPECT_EQ(serial_grad, GradOf(logits));
  }
}

TEST(ParallelOpsTest, ElementwiseMatchesSerialAcrossThreshold) {
  for (int64_t n : {1024, 100000}) {
    Tensor x = RandTensor({static_cast<int>(n)}, 800 + n);
    x.set_requires_grad(true);
    auto run = [&]() {
      x.ZeroGrad();
      Tensor y = ops::Gelu(x);
      ops::Mean(y).Backward();
      return y;
    };
    ThreadPool::Global().SetNumThreads(1);
    Tensor serial_out = run();
    std::vector<float> serial_dx = GradOf(x);
    {
      PoolGuard guard(4);
      Tensor parallel_out = run();
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(serial_out.data()[i], parallel_out.data()[i]) << i;
      }
      ASSERT_EQ(serial_dx, GradOf(x));
    }
  }
}

// ---------- transpose-free GEMM and fused softmax/attention ----------

namespace {

/// Composed-ops reference for the fused attention core: the per-head
/// slice/transpose/scale/softmax/concat chain, the oracle that
/// MultiHeadSelfAttention's single fused path is checked against.
Tensor ComposedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                         int num_heads) {
  const int head_dim = q.cols() / num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  std::vector<Tensor> heads;
  for (int h = 0; h < num_heads; ++h) {
    const int off = h * head_dim;
    Tensor qh = ops::SliceCols(q, off, head_dim);
    Tensor kh = ops::SliceCols(k, off, head_dim);
    Tensor vh = ops::SliceCols(v, off, head_dim);
    Tensor scores = ops::Scale(ops::MatMul(qh, ops::Transpose(kh)), scale);
    heads.push_back(ops::MatMul(ops::Softmax(scores), vh));
  }
  return ops::ConcatCols(heads);
}

void ExpectBitEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

void ExpectTensorNear(const Tensor& a, const Tensor& b, float tol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i],
                tol * (1.0f + std::abs(b.data()[i])))
        << "element " << i;
  }
}

void ExpectAllNear(const std::vector<float>& a, const std::vector<float>& b,
                   float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol * (1.0f + std::abs(a[i]))) << "element " << i;
  }
}

}  // namespace

TEST(FusedOpsTest, MatMulTransposedBMatchesComposed) {
  // Non-square shapes on both sides of the GEMM parallel threshold.
  for (auto [m, kdim, n] : {std::tuple{3, 5, 4}, std::tuple{48, 96, 80}}) {
    Tensor a = RandTensor({m, kdim}, 900 + m);
    Tensor b = RandTensor({n, kdim}, 910 + m);
    Tensor w = RandTensor({m, n}, 920 + m);
    a.set_requires_grad(true);
    b.set_requires_grad(true);

    Tensor fused = ops::MatMulTransposedB(a, b);
    ops::Mean(ops::Mul(fused, w)).Backward();
    std::vector<float> fused_da = GradOf(a), fused_db = GradOf(b);

    a.ZeroGrad();
    b.ZeroGrad();
    Tensor composed = ops::MatMul(a, ops::Transpose(b));
    ops::Mean(ops::Mul(composed, w)).Backward();

    ExpectBitEqual(fused, composed);
    ExpectAllNear(fused_da, GradOf(a), 1e-5f);
    ExpectAllNear(fused_db, GradOf(b), 1e-5f);
  }
}

TEST(FusedOpsTest, MatMulTransposedAMatchesComposed) {
  for (auto [kdim, m, n] : {std::tuple{5, 3, 4}, std::tuple{96, 48, 80}}) {
    Tensor a = RandTensor({kdim, m}, 930 + m);
    Tensor b = RandTensor({kdim, n}, 940 + m);
    Tensor w = RandTensor({m, n}, 950 + m);
    a.set_requires_grad(true);
    b.set_requires_grad(true);

    Tensor fused = ops::MatMulTransposedA(a, b);
    ops::Mean(ops::Mul(fused, w)).Backward();
    std::vector<float> fused_da = GradOf(a), fused_db = GradOf(b);

    a.ZeroGrad();
    b.ZeroGrad();
    Tensor composed = ops::MatMul(ops::Transpose(a), b);
    ops::Mean(ops::Mul(composed, w)).Backward();

    ExpectBitEqual(fused, composed);
    ExpectAllNear(fused_da, GradOf(a), 1e-5f);
    ExpectAllNear(fused_db, GradOf(b), 1e-5f);
  }
}

TEST(FusedOpsTest, MatMulTransposedGradCheck) {
  Tensor a = RandTensor({4, 6}, 960, 0.5f);
  Tensor b = RandTensor({5, 6}, 961, 0.5f);
  a.set_requires_grad(true);
  b.set_requires_grad(true);
  auto loss_bt = [&]() { return ops::Mean(ops::MatMulTransposedB(a, b)); };
  EXPECT_LT(GradCheck(a, loss_bt), kTol);
  EXPECT_LT(GradCheck(b, loss_bt), kTol);

  Tensor c = RandTensor({6, 4}, 962, 0.5f);
  Tensor d = RandTensor({6, 5}, 963, 0.5f);
  c.set_requires_grad(true);
  d.set_requires_grad(true);
  auto loss_at = [&]() { return ops::Mean(ops::MatMulTransposedA(c, d)); };
  EXPECT_LT(GradCheck(c, loss_at), kTol);
  EXPECT_LT(GradCheck(d, loss_at), kTol);
}

TEST(FusedOpsTest, LstmSequenceGradCheck) {
  // H = 3, T = 5: gradients through the whole recurrence, both directions.
  Tensor proj = RandTensor({5, 12}, 990, 0.5f);
  Tensor w_hh = RandTensor({3, 12}, 991, 0.5f);
  Tensor w = RandTensor({5, 3}, 992);
  proj.set_requires_grad(true);
  w_hh.set_requires_grad(true);
  for (bool reverse : {false, true}) {
    auto loss = [&]() {
      return ops::Mean(ops::Mul(ops::LstmSequence(proj, w_hh, reverse), w));
    };
    EXPECT_LT(GradCheck(proj, loss), kTol) << "reverse=" << reverse;
    EXPECT_LT(GradCheck(w_hh, loss), kTol) << "reverse=" << reverse;
  }
}

TEST(FusedOpsTest, FusedAttentionMatchesComposed) {
  // Non-square (T != dim) shapes; every head-count divides dim = 8.
  const int t_len = 6, dim = 8;
  for (int num_heads : {1, 2, 4}) {
    Tensor q = RandTensor({t_len, dim}, 1000 + num_heads);
    Tensor k = RandTensor({t_len, dim}, 1010 + num_heads);
    Tensor v = RandTensor({t_len, dim}, 1020 + num_heads);
    Tensor w = RandTensor({t_len, dim}, 1040 + num_heads);
    for (Tensor* t : {&q, &k, &v}) t->set_requires_grad(true);
    auto zero_all = [&]() {
      for (Tensor* t : {&q, &k, &v}) t->ZeroGrad();
    };

    zero_all();
    Tensor fused = ops::FusedMultiHeadAttention(q, k, v, {}, num_heads);
    ops::Mean(ops::Mul(fused, w)).Backward();
    std::vector<float> dq = GradOf(q), dk = GradOf(k), dv = GradOf(v);

    zero_all();
    Tensor composed = ComposedAttention(q, k, v, num_heads);
    ops::Mean(ops::Mul(composed, w)).Backward();

    // Forward is 1e-5-close, not bitwise: the fused score reductions are
    // SIMD-reassociated (kernels::GemmNTVec).
    ExpectTensorNear(fused, composed, 1e-5f);
    ExpectAllNear(dq, GradOf(q), 1e-5f);
    ExpectAllNear(dk, GradOf(k), 1e-5f);
    ExpectAllNear(dv, GradOf(v), 1e-5f);
  }
}

TEST(FusedOpsTest, FusedAttentionGradCheck) {
  const int t_len = 4, dim = 6, num_heads = 2;
  Tensor q = RandTensor({t_len, dim}, 1100, 0.5f);
  Tensor k = RandTensor({t_len, dim}, 1101, 0.5f);
  Tensor v = RandTensor({t_len, dim}, 1102, 0.5f);
  Tensor w = RandTensor({t_len, dim}, 1104);
  for (Tensor* t : {&q, &k, &v}) t->set_requires_grad(true);
  auto loss = [&]() {
    return ops::Mean(
        ops::Mul(ops::FusedMultiHeadAttention(q, k, v, {}, num_heads), w));
  };
  EXPECT_LT(GradCheck(q, loss), kTol);
  EXPECT_LT(GradCheck(k, loss), kTol);
  EXPECT_LT(GradCheck(v, loss), kTol);
}

TEST(FusedOpsTest, PackedSequencesMatchSeparateCallsBitExact) {
  // Ragged sequences, a one-row one among them, packed back to back: each
  // must get exactly the rows a single-sequence call on it returns, at any
  // pool width, and count as one attention call of its own.
  const std::vector<int> lengths = {5, 1, 9, 3, 40};
  const std::vector<int> offsets = {0, 5, 6, 15, 18};
  const int t_len = 58, dim = 64, num_heads = 4;  // crosses the GEMM
                                                  // parallel threshold
  Tensor q = RandTensor({t_len, dim}, 1150);
  Tensor k = RandTensor({t_len, dim}, 1151);
  Tensor v = RandTensor({t_len, dim}, 1152);
  auto& registry = metrics::MetricsRegistry::Global();
  metrics::Counter* calls = registry.GetCounter("ops.fused_attention.calls");
  metrics::Counter* flops = registry.GetCounter("ops.gemm.forward_flops");
  NoGradGuard no_grad;
  for (int threads : {1, 4}) {
    PoolGuard guard(threads);
    const int64_t calls_before = calls->value();
    const int64_t flops_before = flops->value();
    Tensor packed =
        ops::FusedMultiHeadAttention(q, k, v, offsets, num_heads);
    const int64_t packed_calls = calls->value() - calls_before;
    const int64_t packed_flops = flops->value() - flops_before;
    EXPECT_EQ(packed_calls, static_cast<int64_t>(lengths.size()));
    std::vector<Tensor> parts;
    for (size_t s = 0; s < lengths.size(); ++s) {
      parts.push_back(ops::FusedMultiHeadAttention(
          ops::SliceRows(q, offsets[s], lengths[s]),
          ops::SliceRows(k, offsets[s], lengths[s]),
          ops::SliceRows(v, offsets[s], lengths[s]), {}, num_heads));
    }
    EXPECT_EQ(flops->value() - flops_before, 2 * packed_flops);
    ExpectBitEqual(packed, ops::ConcatRows(parts));
  }
}

TEST(ParallelOpsTest, FusedAttentionBitIdenticalAcrossThreads) {
  // Big enough to cross the GEMM work threshold; every backward phase
  // partitions over disjoint output elements, so gradients are bit-identical
  // between thread counts too.
  const int t_len = 64, dim = 32, num_heads = 4;
  Tensor q = RandTensor({t_len, dim}, 1200);
  Tensor k = RandTensor({t_len, dim}, 1201);
  Tensor v = RandTensor({t_len, dim}, 1202);
  Tensor w = RandTensor({t_len, dim}, 1204);
  for (Tensor* t : {&q, &k, &v}) t->set_requires_grad(true);
  auto run = [&]() {
    for (Tensor* t : {&q, &k, &v}) t->ZeroGrad();
    Tensor y = ops::FusedMultiHeadAttention(q, k, v, {}, num_heads);
    ops::Mean(ops::Mul(y, w)).Backward();
    return y;
  };
  ThreadPool::Global().SetNumThreads(1);
  Tensor serial = run();
  std::vector<float> dq = GradOf(q), dk = GradOf(k), dv = GradOf(v);
  {
    PoolGuard guard(4);
    Tensor parallel = run();
    ExpectBitEqual(serial, parallel);
    ASSERT_EQ(dq, GradOf(q));
    ASSERT_EQ(dk, GradOf(k));
    ASSERT_EQ(dv, GradOf(v));
  }
}

TEST(ParallelOpsTest, MatMulTransposedBitIdenticalAcrossThreads) {
  Tensor a = RandTensor({96, 128}, 1300);
  Tensor b = RandTensor({112, 128}, 1301);
  Tensor w = RandTensor({96, 112}, 1302);
  a.set_requires_grad(true);
  b.set_requires_grad(true);
  auto run = [&]() {
    a.ZeroGrad();
    b.ZeroGrad();
    Tensor c = ops::MatMulTransposedB(a, b);
    ops::Mean(ops::Mul(c, w)).Backward();
    return c;
  };
  ThreadPool::Global().SetNumThreads(1);
  Tensor serial = run();
  std::vector<float> da = GradOf(a), db = GradOf(b);
  {
    PoolGuard guard(4);
    Tensor parallel = run();
    ExpectBitEqual(serial, parallel);
    ASSERT_EQ(da, GradOf(a));
    ASSERT_EQ(db, GradOf(b));
  }
}

// ---------- tensor buffer arena ----------

TEST(ArenaTest, RecyclesReleasedBuffers) {
  TensorArena& arena = TensorArena::Global();
  arena.Clear();
  arena.ResetStats();
  const int64_t before_outstanding = arena.stats().outstanding;
  {
    Tensor t = Tensor::Zeros({256});
    EXPECT_EQ(arena.stats().outstanding, before_outstanding + 1);
  }
  // The released buffer must serve the next same-class request as a hit,
  // zero-filled despite the previous tenant's writes.
  {
    Tensor t = Tensor::Full({256}, 3.0f);
  }
  const int64_t misses_before = arena.stats().misses;
  Tensor t = Tensor::Zeros({256});
  EXPECT_EQ(arena.stats().misses, misses_before);
  EXPECT_GE(arena.stats().hits, 1);
  EXPECT_GT(arena.stats().bytes_recycled, 0);
  for (int i = 0; i < 256; ++i) ASSERT_EQ(t.at(i), 0.0f);
}

TEST(ArenaTest, OutstandingReturnsToBaselineAfterGraphRuns) {
  TensorArena& arena = TensorArena::Global();
  const int64_t before = arena.stats().outstanding;
  {
    // Forward + backward builds and destroys a whole graph, including the
    // fused attention's ArenaBuffer workspaces.
    Tensor q = RandTensor({16, 8}, 1400);
    q.set_requires_grad(true);
    Tensor y = ops::FusedMultiHeadAttention(q, q, q, {}, 2);
    ops::Mean(y).Backward();
  }
  EXPECT_EQ(arena.stats().outstanding, before);
}

TEST(ArenaTest, OddCapacityBuffersLandInFloorClass) {
  TensorArena& arena = TensorArena::Global();
  arena.Clear();
  arena.ResetStats();
  // 192 floats is not a size class: Acquire rounds the capacity up to 256
  // (ceil class), so the release parks it back where a 256-float request
  // finds it.
  { Tensor t = Tensor::Zeros({192}); }
  const int64_t hits_before = arena.stats().hits;
  { Tensor t = Tensor::Zeros({256}); }
  EXPECT_EQ(arena.stats().hits, hits_before + 1);
}

TEST(ArenaTest, ForeignBuffersAreFreedNotParked) {
  TensorArena& arena = TensorArena::Global();
  arena.Clear();
  // Buffers the arena never handed out (FromData adoptions, Detach copies,
  // gradient vectors) are freed when their tensor dies: steady-state demand
  // would never drain them from the free lists.
  const int64_t cached = arena.stats().cached_bytes;
  for (int i = 0; i < 1000; ++i) {
    Tensor t = Tensor::FromData({300}, std::vector<float>(300, 1.0f));
    Tensor copy = t.Detach();
    copy.set_requires_grad(true);
    copy.grad();  // materializes a plain gradient vector
  }
  EXPECT_EQ(arena.stats().cached_bytes, cached);
}

TEST(ArenaTest, SubClassForeignBuffersAreDropped) {
  TensorArena& arena = TensorArena::Global();
  arena.Clear();
  arena.ResetStats();
  // A foreign buffer below the minimum size class (FromData with capacity 8;
  // arena-acquired buffers always reserve at least the minimum class) is
  // freed on release, not cached.
  {
    std::vector<float> d(8, 1.0f);
    Tensor t = Tensor::FromData({8}, std::move(d));
  }
  EXPECT_EQ(arena.stats().cached_bytes, 0);
  { Tensor t = Tensor::Zeros({8}); }  // nothing cached: a miss, not a hit
  EXPECT_EQ(arena.stats().hits, 0);
  EXPECT_EQ(arena.stats().outstanding, 0);
}

TEST(ArenaTest, BudgetBoundsCachedBytes) {
  TensorArena& arena = TensorArena::Global();
  arena.Clear();
  arena.ResetStats();
  arena.SetBudgetBytes(1024 * sizeof(float));
  { Tensor t = Tensor::Zeros({1024}); }       // fills the whole budget
  { Tensor t = Tensor::Zeros({1024}); }       // hit, then re-parked
  const int64_t cached = arena.stats().cached_bytes;
  EXPECT_LE(cached, 1024 * static_cast<int64_t>(sizeof(float)));
  { Tensor t = Tensor::Zeros({512}); }        // release would exceed budget
  EXPECT_EQ(arena.stats().cached_bytes, cached);
  arena.SetBudgetBytes(256LL << 20);
  arena.Clear();
}

}  // namespace
}  // namespace resuformer
