#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "gradcheck.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
#include "tensor/arena.h"
#include "tensor/ops.h"

namespace resuformer {
namespace nn {
namespace {

using resuformer::testing::GradCheck;
constexpr double kTol = 8e-2;

TEST(ModuleTest, ParameterRegistryFlattensChildren) {
  Rng rng(1);
  Mlp mlp({4, 8, 2}, &rng);
  // Two linears, each weight+bias.
  EXPECT_EQ(mlp.Parameters().size(), 4u);
  EXPECT_EQ(mlp.ParameterCount(), 4 * 8 + 8 + 8 * 2 + 2);
}

TEST(ModuleTest, TrainingFlagPropagates) {
  Rng rng(1);
  TransformerEncoder enc(TransformerConfig{8, 2, 2, 16, 0.1f}, &rng);
  enc.SetTraining(false);
  EXPECT_FALSE(enc.training());
}

TEST(LinearTest, ShapesAndBias) {
  Rng rng(2);
  Linear lin(3, 5, &rng);
  Tensor x = Tensor::Randn({4, 3}, &rng);
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.rows(), 4);
  EXPECT_EQ(y.cols(), 5);
}

TEST(LinearTest, GradThroughLayer) {
  Rng rng(3);
  Linear lin(4, 3, &rng);
  Tensor x = Tensor::Randn({2, 4}, &rng);
  EXPECT_LT(GradCheck(x, [&]() { return ops::Mean(lin.Forward(x)); }), kTol);
}

TEST(EmbeddingTest, LookupMatchesWeightRows) {
  Rng rng(4);
  Embedding emb(10, 6, &rng);
  Tensor out = emb.Forward({3, 3, 7});
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(out.at(0, j), emb.weight().at(3, j));
    EXPECT_EQ(out.at(1, j), emb.weight().at(3, j));
    EXPECT_EQ(out.at(2, j), emb.weight().at(7, j));
  }
}

TEST(LayerNormTest, NormalizesRows) {
  Rng rng(5);
  LayerNorm ln(8);
  Tensor x = Tensor::Randn({3, 8}, &rng, 5.0f);
  Tensor y = ln.Forward(x);
  for (int i = 0; i < 3; ++i) {
    float mean = 0.0f, var = 0.0f;
    for (int j = 0; j < 8; ++j) mean += y.at(i, j);
    mean /= 8;
    for (int j = 0; j < 8; ++j) var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(AttentionTest, OutputShapeAndGrad) {
  Rng rng(6);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Tensor x = Tensor::Randn({5, 8}, &rng);
  Tensor y = attn.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 8);
  EXPECT_LT(GradCheck(x, [&]() { return ops::Mean(attn.Forward(x)); }), kTol);
}

TEST(AttentionTest, SegmentsDoNotAttendAcrossBoundaries) {
  Rng rng(7);
  MultiHeadSelfAttention attn(8, 2, &rng);
  Tensor x = Tensor::Randn({3, 8}, &rng);
  NoGradGuard no_grad;  // a packed call runs in inference only
  // Rows 0-1 and row 2 are separate sequences: perturbing row 2 must leave
  // rows 0-1 exactly as they were, and row 2 must equal its own call.
  Tensor packed = attn.Forward(x, {0, 2});
  Tensor x2 = x.Detach();
  for (int j = 0; j < 8; ++j) x2.at(2, j) += 10.0f;
  Tensor packed2 = attn.Forward(x2, {0, 2});
  Tensor alone = attn.Forward(ops::SliceRows(x, 2, 1));
  for (int j = 0; j < 8; ++j) {
    EXPECT_EQ(packed.at(0, j), packed2.at(0, j));
    EXPECT_EQ(packed.at(1, j), packed2.at(1, j));
    EXPECT_EQ(packed.at(2, j), alone.at(0, j));
  }
}

TEST(AttentionTest, FusedGradCheck) {
  Rng rng(11);
  MultiHeadSelfAttention attn(8, 4, &rng);
  Tensor x = Tensor::Randn({5, 8}, &rng);
  EXPECT_LT(GradCheck(x, [&]() { return ops::Mean(attn.Forward(x)); }), kTol);
}

TEST(TransformerTest, StackPreservesShape) {
  Rng rng(8);
  TransformerConfig cfg{12, 3, 2, 24, 0.0f};
  TransformerEncoder enc(cfg, &rng);
  Tensor x = Tensor::Randn({6, 12}, &rng);
  Tensor y = enc.Forward(x);
  EXPECT_EQ(y.rows(), 6);
  EXPECT_EQ(y.cols(), 12);
}

TEST(TransformerTest, GradFlowsThroughStack) {
  Rng rng(9);
  TransformerConfig cfg{8, 2, 2, 16, 0.0f};
  TransformerEncoder enc(cfg, &rng);
  Tensor x = Tensor::Randn({4, 8}, &rng);
  EXPECT_LT(GradCheck(x, [&]() { return ops::Mean(enc.Forward(x)); }),
            2e-1);  // deep stack, float32
}

TEST(LstmTest, ShapesAndReverseAlignment) {
  Rng rng(10);
  Lstm lstm(6, 4, &rng);
  Tensor x = Tensor::Randn({5, 6}, &rng);
  Tensor fwd = lstm.Forward(x, false);
  EXPECT_EQ(fwd.rows(), 5);
  EXPECT_EQ(fwd.cols(), 4);
  // Reverse processes rows 4, 3, ..., 0 and returns them in input order, so
  // its row 4 - r is, bit for bit, row r of a forward pass over the
  // reversed input.
  Tensor rev = lstm.Forward(x, true);
  ASSERT_EQ(rev.rows(), 5);
  ASSERT_EQ(rev.cols(), 4);
  Tensor fwd_of_reversed =
      lstm.Forward(ops::GatherRows(x, {4, 3, 2, 1, 0}), false);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(0, std::memcmp(rev.data() + (4 - r) * 4,
                             fwd_of_reversed.data() + r * 4,
                             4 * sizeof(float)))
        << "reverse row " << 4 - r << " vs forward-over-reversed row " << r;
  }
}

TEST(LstmTest, GradThroughTime) {
  Rng rng(11);
  Lstm lstm(4, 3, &rng);
  Tensor x = Tensor::Randn({4, 4}, &rng);
  EXPECT_LT(GradCheck(x, [&]() { return ops::Mean(lstm.Forward(x)); }), kTol);
}

// The per-step op chain nn::Lstm ran before ops::LstmSequence (about 16
// ops per step), kept only as the oracle the op must match bit for bit.
Tensor ChainLstmDirection(const Tensor& x, const Tensor& w_ih,
                          const Tensor& w_hh, const Tensor& bias,
                          bool reverse) {
  const int t_len = x.rows();
  const int h = w_hh.dim(0);
  Tensor proj = ops::Add(ops::MatMul(x, w_ih), bias);  // [T, 4H]
  Tensor h_prev = Tensor::Zeros({1, h});
  Tensor c_prev = Tensor::Zeros({1, h});
  std::vector<Tensor> outputs(t_len);
  for (int step = 0; step < t_len; ++step) {
    const int t = reverse ? t_len - 1 - step : step;
    Tensor gates = ops::Add(ops::SliceRows(proj, t, 1),
                            ops::MatMul(h_prev, w_hh));  // [1, 4H]
    Tensor i_gate = ops::Sigmoid(ops::SliceCols(gates, 0, h));
    Tensor f_gate = ops::Sigmoid(ops::SliceCols(gates, h, h));
    Tensor g_gate = ops::Tanh(ops::SliceCols(gates, 2 * h, h));
    Tensor o_gate = ops::Sigmoid(ops::SliceCols(gates, 3 * h, h));
    Tensor c_new =
        ops::Add(ops::Mul(f_gate, c_prev), ops::Mul(i_gate, g_gate));
    Tensor h_new = ops::Mul(o_gate, ops::Tanh(c_new));
    outputs[t] = h_new;
    h_prev = h_new;
    c_prev = c_new;
  }
  return ops::ConcatRows(outputs);
}

// One BiLstm pass: its output, the gradients of x and of every parameter,
// and the GEMM work its forward counted.
struct BiLstmPass {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;
  int64_t gemm_nn_calls = 0;
  int64_t gemm_flops = 0;
};

void ExpectSameBits(const std::vector<float>& a, const std::vector<float>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(&a[i], &b[i], sizeof(float)))
        << what << " element " << i << ": " << a[i] << " vs " << b[i];
  }
}

TEST(LstmTest, SequenceOpMatchesPerStepChainBitExact) {
  auto& registry = metrics::MetricsRegistry::Global();
  metrics::Counter* nn_calls = registry.GetCounter("ops.gemm_nn.calls");
  metrics::Counter* flops = registry.GetCounter("ops.gemm.forward_flops");
  const int input_dim = 16;
  for (int threads : {1, 4}) {
    ThreadPool::Global().SetNumThreads(threads);
    for (int h : {5, 24, 128}) {  // 128 reaches the GEMM parallel threshold
      Rng rng(100 + h);
      BiLstm bilstm(input_dim, h, &rng);
      // w_ih, w_hh, bias of the forward direction, then of the reverse one.
      const std::vector<Tensor> params = bilstm.Parameters();
      ASSERT_EQ(params.size(), 6u);
      for (int t_len : {1, 2, 28, 120}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " H=" + std::to_string(h) +
                     " T=" + std::to_string(t_len));
        Tensor x = Tensor::Randn({t_len, input_dim}, &rng);
        x.set_requires_grad(true);
        Tensor w = Tensor::Randn({t_len, 2 * h}, &rng);
        auto run = [&](const std::function<Tensor()>& forward) {
          x.ZeroGrad();
          bilstm.ZeroGrad();
          BiLstmPass pass;
          const int64_t calls_before = nn_calls->value();
          const int64_t flops_before = flops->value();
          Tensor y = forward();
          pass.gemm_nn_calls = nn_calls->value() - calls_before;
          pass.gemm_flops = flops->value() - flops_before;
          ops::Mean(ops::Mul(y, w)).Backward();
          pass.out.assign(y.data(), y.data() + y.size());
          pass.grads.push_back(x.impl()->grad);
          for (const Tensor& p : params) pass.grads.push_back(p.impl()->grad);
          return pass;
        };
        const BiLstmPass fused = run([&]() { return bilstm.Forward(x); });
        const BiLstmPass chain = run([&]() {
          return ops::ConcatCols(
              {ChainLstmDirection(x, params[0], params[1], params[2], false),
               ChainLstmDirection(x, params[3], params[4], params[5], true)});
        });
        ExpectSameBits(fused.out, chain.out, "output");
        const char* names[] = {"x",     "fwd w_ih", "fwd w_hh", "fwd bias",
                               "rev w_ih", "rev w_hh", "rev bias"};
        ASSERT_EQ(fused.grads.size(), 7u);
        for (size_t g = 0; g < fused.grads.size(); ++g) {
          ExpectSameBits(fused.grads[g], chain.grads[g],
                         std::string(names[g]) + " grad");
        }
        EXPECT_EQ(fused.gemm_nn_calls, chain.gemm_nn_calls);
        EXPECT_EQ(fused.gemm_nn_calls, 2 * (t_len + 1));
        EXPECT_EQ(fused.gemm_flops, chain.gemm_flops);

        // Inference saves nothing for backward and keeps one step's state;
        // the output bits stay the same.
        NoGradGuard no_grad;
        Tensor inferred = bilstm.Forward(x);
        ExpectSameBits(
            std::vector<float>(inferred.data(),
                               inferred.data() + inferred.size()),
            fused.out, "NoGradGuard output");
      }
    }
  }
  ThreadPool::Global().SetNumThreads(1);
}

TEST(LstmTest, InferenceDrawsArenaBuffersIndependentOfLength) {
  Rng rng(15);
  BiLstm bilstm(32, 24, &rng);  // an NER block's dims
  NoGradGuard no_grad;
  auto buffers_for = [&](int t_len) {
    Tensor x = Tensor::Randn({t_len, 32}, &rng);
    const TensorArena::ThreadStats before = TensorArena::thread_stats();
    Tensor y = bilstm.Forward(x);
    const TensorArena::ThreadStats after = TensorArena::thread_stats();
    return (after.hits + after.misses) - (before.hits + before.misses);
  };
  const int64_t at_28 = buffers_for(28);
  EXPECT_EQ(buffers_for(120), at_28);
  // Per direction: the projection's MatMul and Add, then the op's output,
  // step scratch and state; plus the concat.
  EXPECT_LE(at_28, 11);
}

TEST(BiLstmTest, ConcatenatesDirections) {
  Rng rng(12);
  BiLstm bilstm(6, 5, &rng);
  Tensor x = Tensor::Randn({3, 6}, &rng);
  Tensor y = bilstm.Forward(x);
  EXPECT_EQ(y.cols(), 10);
  EXPECT_EQ(bilstm.output_dim(), 10);
}

TEST(OptimizerTest, AdamMinimizesQuadratic) {
  // min ||w - target||^2
  Rng rng(13);
  Tensor w = Tensor::Randn({4}, &rng);
  w.set_requires_grad(true);
  Tensor target = Tensor::FromData({4}, {1.0f, -2.0f, 0.5f, 3.0f});
  Adam adam({w}, 0.1f);
  for (int step = 0; step < 300; ++step) {
    adam.ZeroGrad();
    Tensor diff = ops::Sub(w, target);
    Tensor loss = ops::Mean(ops::Mul(diff, diff));
    loss.Backward();
    adam.Step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(w.at(i), target.at(i), 1e-2f);
}

TEST(OptimizerTest, SgdMomentumMinimizes) {
  Rng rng(14);
  Tensor w = Tensor::Randn({3}, &rng);
  w.set_requires_grad(true);
  Sgd sgd({w}, 0.05f, 0.9f);
  for (int step = 0; step < 200; ++step) {
    sgd.ZeroGrad();
    Tensor loss = ops::Mean(ops::Mul(w, w));
    loss.Backward();
    sgd.Step();
  }
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(w.at(i), 0.0f, 1e-2f);
}

TEST(OptimizerTest, ClipGradNormRescales) {
  Tensor w = Tensor::Full({4}, 1.0f, true);
  for (int i = 0; i < 4; ++i) w.grad()[i] = 10.0f;
  Adam adam({w}, 0.1f);
  const float norm = adam.ClipGradNorm(1.0f);
  EXPECT_NEAR(norm, 20.0f, 1e-3f);
  float new_norm = 0.0f;
  for (int i = 0; i < 4; ++i) new_norm += w.grad()[i] * w.grad()[i];
  EXPECT_NEAR(std::sqrt(new_norm), 1.0f, 1e-4f);
}

TEST(OptimizerTest, PerGroupLearningRate) {
  Tensor a = Tensor::Full({1}, 0.0f, true);
  Tensor b = Tensor::Full({1}, 0.0f, true);
  a.grad()[0] = 1.0f;
  b.grad()[0] = 1.0f;
  Sgd sgd({a, b}, 0.1f);
  sgd.SetLearningRateFor({b}, 0.01f);
  sgd.Step();
  EXPECT_NEAR(a.at(0), -0.1f, 1e-6f);
  EXPECT_NEAR(b.at(0), -0.01f, 1e-6f);
}

TEST(OptimizerTest, TrainTinyClassifier) {
  // End-to-end sanity: a 2-layer MLP separates two Gaussian blobs.
  Rng rng(15);
  Mlp mlp({2, 16, 2}, &rng);
  Adam adam(mlp.Parameters(), 0.02f);
  std::vector<float> xs;
  std::vector<int> ys;
  for (int i = 0; i < 60; ++i) {
    const int label = i % 2;
    xs.push_back(static_cast<float>(rng.Normal()) + (label ? 2.5f : -2.5f));
    xs.push_back(static_cast<float>(rng.Normal()) + (label ? 2.5f : -2.5f));
    ys.push_back(label);
  }
  Tensor x = Tensor::FromData({60, 2}, xs);
  for (int epoch = 0; epoch < 60; ++epoch) {
    adam.ZeroGrad();
    Tensor loss = ops::CrossEntropy(mlp.Forward(x), ys);
    loss.Backward();
    adam.Step();
  }
  NoGradGuard guard;
  Tensor logits = mlp.Forward(x);
  int correct = 0;
  for (int i = 0; i < 60; ++i) {
    if ((logits.at(i, 1) > logits.at(i, 0)) == (ys[i] == 1)) ++correct;
  }
  EXPECT_GE(correct, 57);
}

TEST(OptimizerTest, TrainingStepsLeaveTheArenaCacheFlat) {
  // The first step parks every buffer a step acquires; later steps must
  // reuse them and park nothing new. Gradient vectors are not arena
  // buffers: were they parked when their graph dies, cached_bytes would
  // grow every step toward the arena's budget.
  TensorArena& arena = TensorArena::Global();
  arena.Clear();
  Rng rng(16);
  TransformerEncoder encoder(TransformerConfig{16, 1, 2, 32, 0.0f}, &rng);
  Linear head(16, 3, &rng);
  std::vector<Tensor> params = encoder.Parameters();
  for (const Tensor& p : head.Parameters()) params.push_back(p);
  Adam adam(params, 0.01f);
  const Tensor x = Tensor::Randn({10, 16}, &rng);
  const std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0, 1, 2, 0};
  int64_t cached_after_first_step = 0;
  for (int step = 0; step < 4; ++step) {
    {
      adam.ZeroGrad();
      Tensor loss = ops::CrossEntropy(head.Forward(encoder.Forward(x)), labels);
      loss.Backward();
      adam.Step();
    }
    if (step == 0) {
      cached_after_first_step = arena.stats().cached_bytes;
    } else {
      EXPECT_EQ(arena.stats().cached_bytes, cached_after_first_step)
          << "step " << step;
    }
  }
}

TEST(OptimizerTest, SkipsParametersThatNeverReceivedGradients) {
  // Partial fine-tuning: `frozen` is registered with the optimizer but never
  // flows into the loss, so its grad buffer is never allocated. The
  // optimizer must treat it as zero-gradient: no out-of-bounds read, no
  // allocation, and crucially no weight-decay/momentum update.
  Rng rng(40);
  Tensor active = Tensor::Randn({4}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor frozen = Tensor::Randn({4}, &rng, 1.0f, /*requires_grad=*/true);
  const std::vector<float> active_before(active.data(),
                                         active.data() + active.size());
  const std::vector<float> frozen_before(frozen.data(),
                                         frozen.data() + frozen.size());
  Adam adam({active, frozen}, 0.1f, 0.9f, 0.999f, 1e-8f,
            /*weight_decay=*/0.1f);
  for (int step = 0; step < 3; ++step) {
    adam.ZeroGrad();
    Tensor loss = ops::Mean(ops::Mul(active, active));
    loss.Backward();
    adam.ClipGradNorm(1.0f);
    adam.Step();
  }
  EXPECT_TRUE(frozen.impl()->grad.empty())
      << "optimizer must not allocate grads for untouched parameters";
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(frozen.at(i), frozen_before[i])
        << "weight decay applied to a parameter outside the loss";
  }
  // The active parameter did get updates.
  bool active_moved = false;
  for (int i = 0; i < 4; ++i) {
    if (active.at(i) != active_before[i]) active_moved = true;
  }
  EXPECT_TRUE(active_moved);
}

TEST(OptimizerTest, SgdSkipsParametersThatNeverReceivedGradients) {
  Rng rng(41);
  Tensor active = Tensor::Randn({3}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor frozen = Tensor::Randn({3}, &rng, 1.0f, /*requires_grad=*/true);
  const std::vector<float> frozen_before(frozen.data(),
                                         frozen.data() + frozen.size());
  Sgd sgd({active, frozen}, 0.05f, /*momentum=*/0.9f);
  for (int step = 0; step < 3; ++step) {
    sgd.ZeroGrad();
    Tensor loss = ops::Mean(ops::Mul(active, active));
    loss.Backward();
    sgd.Step();
  }
  EXPECT_TRUE(frozen.impl()->grad.empty());
  for (int i = 0; i < 3; ++i) EXPECT_EQ(frozen.at(i), frozen_before[i]);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(16);
  Mlp a({3, 5, 2}, &rng);
  Mlp b({3, 5, 2}, &rng);
  const std::string path = ::testing::TempDir() + "/params.bin";
  ASSERT_TRUE(SaveParameters(a, path).ok());
  ASSERT_TRUE(LoadParameters(&b, path).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i].size(); ++j) {
      EXPECT_EQ(pa[i].data()[j], pb[i].data()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsMismatchedModule) {
  Rng rng(17);
  Mlp a({3, 5, 2}, &rng);
  Mlp b({3, 7, 2}, &rng);
  const std::string path = ::testing::TempDir() + "/params2.bin";
  ASSERT_TRUE(SaveParameters(a, path).ok());
  EXPECT_FALSE(LoadParameters(&b, path).ok());
  std::remove(path.c_str());
}

namespace {

/// Module with a single 2-D weight; lets tests pick exact parameter shapes.
class SingleWeightModule : public Module {
 public:
  explicit SingleWeightModule(std::vector<int> shape) {
    weight_ = RegisterParameter(Tensor::Zeros(std::move(shape)));
  }
  Tensor weight_;
};

}  // namespace

TEST(SerializeTest, RejectsLegacyRfp1Files) {
  // Hand-write an RFP1 record (magic, count, flat size, raw floats) and an
  // RFP2 one (magic, count, rank, dims, raw floats): both legacy layouts
  // are refused with an error naming them, and the module keeps its values.
  SingleWeightModule m({2, 3});
  const float values[6] = {1, 2, 3, 4, 5, 6};
  const uint64_t count = 1;
  const std::string path = ::testing::TempDir() + "/params_legacy.bin";
  for (const char* layout : {"RFP1", "RFP2"}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      const bool v1 = std::string(layout) == "RFP1";
      const uint32_t magic = v1 ? 0x52465031 : 0x52465032;
      out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
      out.write(reinterpret_cast<const char*>(&count), sizeof(count));
      if (v1) {
        const uint64_t n = 6;
        out.write(reinterpret_cast<const char*>(&n), sizeof(n));
      } else {
        const uint32_t rank = 2;
        const int32_t dims[2] = {2, 3};
        out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
        out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
      }
      out.write(reinterpret_cast<const char*>(values), sizeof(values));
    }
    const Status status = LoadParameters(&m, path);
    ASSERT_FALSE(status.ok()) << layout;
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.message();
    EXPECT_NE(status.message().find(layout), std::string::npos)
        << status.message();
    for (int i = 0; i < 6; ++i) EXPECT_EQ(m.weight_.data()[i], 0.0f);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// RFP3 (mmap'd zero-copy) checkpoints + the PR-7 header-validation sweep.
// ---------------------------------------------------------------------------

namespace {

/// Byte-patches `path` at `offset` (opens r+b; the file must exist).
void PatchFile(const std::string& path, int64_t offset, const void* bytes,
               size_t n) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekp(offset);
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(n));
  ASSERT_TRUE(f.good());
}

/// Truncates `path` to `new_size` bytes by rewriting its prefix.
void TruncateFile(const std::string& path, int64_t new_size) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << path;
  std::vector<char> head(static_cast<size_t>(new_size));
  in.read(head.data(), new_size);
  ASSERT_EQ(in.gcount(), new_size);
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(head.data(), new_size);
  ASSERT_TRUE(out.good());
}

void ExpectParametersEqual(Module& a, Module& b) {
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].size(), pb[i].size()) << "parameter " << i;
    for (int64_t j = 0; j < pa[i].size(); ++j) {
      ASSERT_EQ(pa[i].data()[j], pb[i].data()[j])
          << "parameter " << i << " element " << j;
    }
  }
}

}  // namespace

TEST(SerializeTest, Rfp3SaveMmapLoadRoundTrip) {
  Rng rng(19);
  Mlp a({3, 5, 2}, &rng);
  Mlp b({3, 5, 2}, &rng);
  const std::string path = ::testing::TempDir() + "/params_v3.bin";
  ASSERT_TRUE(SaveParameters(a, path).ok());
  ASSERT_TRUE(LoadParameters(&b, path).ok());
  ExpectParametersEqual(a, b);
#if defined(__unix__) || defined(__APPLE__)
  // On mmap platforms the loaded tensors must point at the mapped pages
  // (zero-copy), not at private heap copies.
  for (Tensor& p : b.Parameters()) {
    EXPECT_TRUE(p.has_external_storage());
  }
#endif
  std::remove(path.c_str());
}

TEST(SerializeTest, ResaveDoesNotChangeMappedWeights) {
  // b maps the checkpoint; re-saving different weights to the same path
  // must not reach b's pages. An in-place rewrite would (the mapping shares
  // the file's page cache); write-then-rename leaves b on the old inode.
  Rng rng(23);
  Mlp a({3, 5, 2}, &rng);
  Mlp b({3, 5, 2}, &rng);
  Mlp c({3, 5, 2}, &rng);
  Mlp loaded_again({3, 5, 2}, &rng);
  const std::string path = ::testing::TempDir() + "/params_resave.bin";
  ASSERT_TRUE(SaveParameters(a, path).ok());
  ASSERT_TRUE(LoadParameters(&b, path).ok());
  ASSERT_TRUE(SaveParameters(c, path).ok());
  ExpectParametersEqual(a, b);
  // The new file is complete and the temporary is gone.
  ASSERT_TRUE(LoadParameters(&loaded_again, path).ok());
  ExpectParametersEqual(c, loaded_again);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(SerializeTest, Rfp3MmapTensorsAreCopyOnWrite) {
  // MAP_PRIVATE: an optimizer-style in-place write must not leak back into
  // the checkpoint file (a second load still sees the saved values).
  Rng rng(20);
  Mlp a({2, 4, 2}, &rng);
  Mlp b({2, 4, 2}, &rng);
  Mlp c({2, 4, 2}, &rng);
  const std::string path = ::testing::TempDir() + "/params_cow.bin";
  ASSERT_TRUE(SaveParameters(a, path).ok());
  ASSERT_TRUE(LoadParameters(&b, path).ok());
  for (Tensor& p : b.Parameters()) {
    for (int64_t j = 0; j < p.size(); ++j) p.data()[j] = -123.0f;
  }
  ASSERT_TRUE(LoadParameters(&c, path).ok());
  ExpectParametersEqual(a, c);
  std::remove(path.c_str());
}

TEST(SerializeTest, Rfp3RejectsMismatchedShapes) {
  SingleWeightModule a({3, 5});
  SingleWeightModule b({5, 3});
  const std::string path = ::testing::TempDir() + "/params_v3_t.bin";
  ASSERT_TRUE(SaveParameters(a, path).ok());
  const Status status = LoadParameters(&b, path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shape mismatch"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(SerializeTest, Rfp3TruncatedPayloadIsFailedPrecondition) {
  SingleWeightModule a({8, 8});
  SingleWeightModule b({8, 8});
  const std::string path = ::testing::TempDir() + "/params_v3_trunc.bin";
  ASSERT_TRUE(SaveParameters(a, path).ok());
  // Chop the tail of the (64-byte-aligned) payload region.
  std::ifstream probe(path, std::ios::binary | std::ios::ate);
  const int64_t full = probe.tellg();
  probe.close();
  TruncateFile(path, full - 32);
  const Status status = LoadParameters(&b, path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.message();
  EXPECT_NE(status.message().find("parameter"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

// RFP3 layout of a SingleWeightModule: magic u32, reserved u32, count u64,
// then record 0's rank u32 at 16, its two dims at 20 and 24, and its
// payload offset u64 at 28.
TEST(SerializeTest, Rfp3OversizedRankRejected) {
  SingleWeightModule a({3, 5});
  SingleWeightModule b({3, 5});
  const std::string path = ::testing::TempDir() + "/params_v3_rank.bin";
  ASSERT_TRUE(SaveParameters(a, path).ok());
  const uint32_t rank = 9;
  PatchFile(path, 16, &rank, sizeof(rank));
  const Status status = LoadParameters(&b, path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.message();
  EXPECT_NE(status.message().find("rank"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

TEST(SerializeTest, Rfp3MisalignedPayloadOffsetNamesParameter) {
  // A payload offset off the 64-byte grid (32 lies inside the 124-byte
  // file), or an aligned one whose extent runs past the end of the file, is
  // refused before any payload byte is touched.
  SingleWeightModule a({3, 5});
  SingleWeightModule b({3, 5});
  const std::string path = ::testing::TempDir() + "/params_v3_offset.bin";
  for (const uint64_t offset : {uint64_t{32}, uint64_t{1} << 40}) {
    ASSERT_TRUE(SaveParameters(a, path).ok());
    PatchFile(path, 28, &offset, sizeof(offset));
    const Status status = LoadParameters(&b, path);
    ASSERT_FALSE(status.ok()) << offset;
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.message();
    EXPECT_NE(status.message().find("parameter 0"), std::string::npos)
        << status.message();
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, CopyParametersClones) {
  Rng rng(18);
  Mlp a({2, 4, 2}, &rng);
  Mlp b({2, 4, 2}, &rng);
  ASSERT_TRUE(CopyParameters(a, &b).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].data()[0], pb[i].data()[0]);
  }
}

TEST(SerializeTest, CopyParametersRejectsTransposedShapes) {
  // Six elements each, but [2,3] into [3,2] would silently transpose.
  // CopyParameters is a ParameterSnapshot capture + restore, so this also
  // pins the shape check of the training loops' snapshot restore.
  SingleWeightModule a({2, 3});
  SingleWeightModule b({3, 2});
  for (int i = 0; i < 6; ++i) a.weight_.data()[i] = static_cast<float>(i + 1);
  const Status status = CopyParameters(a, &b);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("shape mismatch"), std::string::npos)
      << status.message();
  for (int i = 0; i < 6; ++i) EXPECT_EQ(b.weight_.data()[i], 0.0f);
}

TEST(ParameterSnapshotTest, RestoreWritesBackCapturedValues) {
  // Capture copies the values: training on after the capture must not
  // move the snapshot.
  Rng rng(24);
  Mlp m({3, 4, 2}, &rng);
  Mlp original({3, 4, 2}, &rng);
  ASSERT_TRUE(CopyParameters(m, &original).ok());
  ParameterSnapshot snapshot;
  snapshot.Capture(m.Parameters());
  for (Tensor& p : m.Parameters()) {
    for (int64_t j = 0; j < p.size(); ++j) p.data()[j] += 1.0f;
  }
  ASSERT_TRUE(snapshot.Restore(m.Parameters()).ok());
  ExpectParametersEqual(m, original);
}

}  // namespace
}  // namespace nn
}  // namespace resuformer
