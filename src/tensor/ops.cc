#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/op_compute.h"

namespace resuformer {

// ---------------------------------------------------------------------------
// Observability. Each GEMM-bearing op opens a TRACE_SPAN (one relaxed load
// when tracing is off) and bumps a call + forward-flop counter (relaxed
// atomic adds, always on — these are the structural tallies bench_micro
// snapshots into BENCH_MICRO.json). Instrument pointers are resolved once
// through function-local statics; the hot path never touches the registry.
// ---------------------------------------------------------------------------

void opcompute::CountGemm(GemmForm form, int64_t mul_adds) {
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Counter* const nn = registry.GetCounter("ops.gemm_nn.calls");
  static metrics::Counter* const nt = registry.GetCounter("ops.gemm_nt.calls");
  static metrics::Counter* const tn = registry.GetCounter("ops.gemm_tn.calls");
  static metrics::Counter* const attention =
      registry.GetCounter("ops.fused_attention.calls");
  static metrics::Counter* const flops =
      registry.GetCounter("ops.gemm.forward_flops");
  metrics::Counter* const calls[] = {nn, nt, tn, attention};
  calls[static_cast<int>(form)]->Increment();
  flops->Increment(2 * mul_adds);
}

namespace ops {

namespace {

using ImplPtr = std::shared_ptr<TensorImpl>;

// ---------------------------------------------------------------------------
// Parallel substrate. The forward loops and partitioning helpers live in
// tensor/op_compute.h, which tensor/quant.cc shares. Kernels route through
// ThreadPool::Global() with static row partitioning once the work exceeds a
// threshold; below it (or with a single-thread pool) they run the serial
// path inline. Partitions are over *output* rows
// wherever possible so no two workers ever write the same element, and
// per-element accumulation order matches the serial loops — which keeps
// results bit-identical to the legacy kernels at any thread count for those
// paths. The only reductions that need per-worker buffers (LayerNorm
// dgamma/dbeta, CrossEntropy loss) reduce the buffers in worker order, so
// they are deterministic for a fixed thread count.
// ---------------------------------------------------------------------------

using opcompute::CountGemm;
using opcompute::ForElems;
using opcompute::ForRows;
using opcompute::GemmForm;
using opcompute::kGemmParallelWork;
using opcompute::kRowParallelWork;
using opcompute::ShouldParallelize;

/// dA[r0:r1, :] += dC[r0:r1, :] * B^T for dC[m,n], B[k,n], dA[m,k].
/// Four dot products against consecutive B rows share one pass over the dC
/// row; each dot sums j ascending, matching the serial kernel exactly.
void GemmAccRowsNT(const float* dc, const float* b, float* da, int k, int n,
                   int64_t r0, int64_t r1) {
  for (int64_t i = r0; i < r1; ++i) {
    const float* dcrow = dc + i * n;
    float* darow = da + i * k;
    int kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const float* b0 = b + static_cast<int64_t>(kk) * n;
      const float* b1 = b0 + n;
      const float* b2 = b1 + n;
      const float* b3 = b2 + n;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (int j = 0; j < n; ++j) {
        const float d = dcrow[j];
        acc0 += d * b0[j];
        acc1 += d * b1[j];
        acc2 += d * b2[j];
        acc3 += d * b3[j];
      }
      darow[kk] += acc0;
      darow[kk + 1] += acc1;
      darow[kk + 2] += acc2;
      darow[kk + 3] += acc3;
    }
    for (; kk < k; ++kk) {
      const float* brow = b + static_cast<int64_t>(kk) * n;
      float acc = 0.0f;
      for (int j = 0; j < n; ++j) acc += dcrow[j] * brow[j];
      darow[kk] += acc;
    }
  }
}

// Column tile of GemmAccRowsTN: a tile of dB rows stays L1-resident while
// successive A and dC rows stream over it.
constexpr int kGemmJB = 128;

/// dB[k0:k1, :] += A^T * dC restricted to dB rows [k0, k1), for A[m,k],
/// dC[m,n]. The i loop stays outermost so every dB element accumulates its m
/// contributions in ascending i order — the serial order — and the row
/// restriction means workers never share an output element.
void GemmAccRowsTN(const float* a, const float* dc, float* db, int64_t m,
                   int k, int n, int64_t k0, int64_t k1) {
  for (int j0 = 0; j0 < n; j0 += kGemmJB) {
    const int j1 = std::min(n, j0 + kGemmJB);
    for (int64_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      const float* dcrow = dc + i * n;
      for (int64_t kk = k0; kk < k1; ++kk) {
        const float av = arow[kk];  // no zero-skip: preserve NaN propagation
        float* dbrow = db + kk * n;
        for (int j = j0; j < j1; ++j) dbrow[j] += av * dcrow[j];
      }
    }
  }
}

/// Creates the result node of an op: allocates storage, records parents, and
/// decides whether the node participates in autograd.
Tensor MakeNode(std::vector<int> shape, std::vector<ImplPtr> parents) {
  Tensor out = Tensor::Zeros(std::move(shape));
  bool needs_grad = false;
  if (NoGradGuard::GradEnabled()) {
    for (const auto& p : parents) {
      if (p && p->requires_grad) {
        needs_grad = true;
        break;
      }
    }
  }
  if (needs_grad) {
    out.impl()->requires_grad = true;
    out.impl()->parents = std::move(parents);
  }
  return out;
}

/// Installs the backward closure only when the node tracks gradients. In
/// RF_DCHECK builds the closure is wrapped to assert the node's own
/// gradient was materialized (seeded by the root or accumulated by its
/// children) before the op's backward reads it; release builds install the
/// closure unwrapped, so the hot path carries no extra indirection.
template <typename Fn>
void SetBackward(Tensor* out, Fn fn) {
  if (!out->impl()->requires_grad) return;
  if constexpr (DcheckEnabled()) {
    TensorImpl* self = out->impl().get();
    out->impl()->backward_fn = [self, fn = std::move(fn)]() {
      RF_DCHECK_EQ(static_cast<int64_t>(self->grad.size()), self->size())
          << "op backward ran before this node's gradient buffer was "
             "materialized — the graph below it is inconsistent";
      fn();
    };
  } else {
    out->impl()->backward_fn = std::move(fn);
  }
}

bool SameShape(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape();
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  TRACE_SPAN("gemm.nn");
  RF_CHECK_EQ(a.rank(), 2);
  RF_CHECK_EQ(b.rank(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  RF_CHECK_EQ(k, b.dim(0));
  CountGemm(GemmForm::kNN, static_cast<int64_t>(m) * k * n);
  Tensor out = MakeNode({m, n}, {a.impl(), b.impl()});
  opcompute::MatMulNNForward(a.data(), b.data(), out.data(), m, k, n);
  const int64_t work = static_cast<int64_t>(m) * k * n;
  TensorImpl* self = out.impl().get();
  auto ai = a.impl(), bi = b.impl();
  SetBackward(&out, [self, ai, bi, m, k, n, work]() {
    const float* dc = self->grad.data();
    if (ai->requires_grad) {
      ai->EnsureGrad();
      float* da = ai->grad.data();
      const float* pb = bi->data_ptr();
      // dA = dC * B^T, partitioned over dA rows.
      ForRows(m, work, kGemmParallelWork,
              [&](int /*worker*/, int64_t r0, int64_t r1) {
                GemmAccRowsNT(dc, pb, da, k, n, r0, r1);
              });
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      float* db = bi->grad.data();
      const float* pa = ai->data_ptr();
      // dB = A^T * dC, partitioned over dB rows so the shared output needs
      // no atomics or per-worker buffers.
      ForRows(k, work, kGemmParallelWork,
              [&](int /*worker*/, int64_t k0, int64_t k1) {
                GemmAccRowsTN(pa, dc, db, m, k, n, k0, k1);
              });
    }
  });
  return out;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  TRACE_SPAN("gemm.nt");
  RF_CHECK_EQ(a.rank(), 2);
  RF_CHECK_EQ(b.rank(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  RF_CHECK_EQ(k, b.dim(1));
  CountGemm(GemmForm::kNT, static_cast<int64_t>(m) * k * n);
  Tensor out = MakeNode({m, n}, {a.impl(), b.impl()});
  opcompute::MatMulNTForward(a.data(), b.data(), out.data(), m, k, n);
  const int64_t work = static_cast<int64_t>(m) * k * n;
  TensorImpl* self = out.impl().get();
  auto ai = a.impl(), bi = b.impl();
  SetBackward(&out, [self, ai, bi, m, k, n, work]() {
    const float* dc = self->grad.data();
    if (ai->requires_grad) {
      ai->EnsureGrad();
      float* da = ai->grad.data();
      const float* pb = bi->data_ptr();
      // dA = dC * B ([m,n] x [n,k]), partitioned over dA rows.
      ForRows(m, work, kGemmParallelWork,
              [&](int /*worker*/, int64_t r0, int64_t r1) {
                kernels::GemmNN(dc, n, pb, k, da, k, n, k, r0, r1);
              });
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      float* db = bi->grad.data();
      const float* pa = ai->data_ptr();
      // dB = dC^T * A ([n,m] x [m,k]), partitioned over dB rows.
      ForRows(n, work, kGemmParallelWork,
              [&](int /*worker*/, int64_t r0, int64_t r1) {
                kernels::GemmTN(dc, n, pa, k, db, k, m, k, r0, r1);
              });
    }
  });
  return out;
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  TRACE_SPAN("gemm.tn");
  RF_CHECK_EQ(a.rank(), 2);
  RF_CHECK_EQ(b.rank(), 2);
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  RF_CHECK_EQ(k, b.dim(0));
  CountGemm(GemmForm::kTN, static_cast<int64_t>(m) * k * n);
  Tensor out = MakeNode({m, n}, {a.impl(), b.impl()});
  opcompute::MatMulTNForward(a.data(), b.data(), out.data(), m, k, n);
  const int64_t work = static_cast<int64_t>(m) * k * n;
  TensorImpl* self = out.impl().get();
  auto ai = a.impl(), bi = b.impl();
  SetBackward(&out, [self, ai, bi, m, k, n, work]() {
    const float* dc = self->grad.data();
    if (ai->requires_grad) {
      ai->EnsureGrad();
      float* da = ai->grad.data();
      const float* pb = bi->data_ptr();
      // dA = B * dC^T ([k,n] x [n,m]), partitioned over dA rows.
      ForRows(k, work, kGemmParallelWork,
              [&](int /*worker*/, int64_t r0, int64_t r1) {
                kernels::GemmNT(pb, n, dc, n, da, m, m, n, r0, r1);
              });
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      float* db = bi->grad.data();
      const float* pa = ai->data_ptr();
      // dB = A * dC ([k,m] x [m,n]), partitioned over dB rows.
      ForRows(k, work, kGemmParallelWork,
              [&](int /*worker*/, int64_t r0, int64_t r1) {
                kernels::GemmNN(pa, m, dc, n, db, n, m, n, r0, r1);
              });
    }
  });
  return out;
}

Tensor Transpose(const Tensor& a) {
  RF_CHECK_EQ(a.rank(), 2);
  const int m = a.dim(0), n = a.dim(1);
  Tensor out = MakeNode({n, m}, {a.impl()});
  opcompute::TransposeForward(a.data(), out.data(), m, n);
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  SetBackward(&out, [self, ai, m, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        ai->grad[i * n + j] += self->grad[j * m + i];
      }
    }
  });
  return out;
}

namespace {
Tensor AddSubImpl(const Tensor& a, const Tensor& b, float sign) {
  const bool broadcast = b.rank() == 1 && a.rank() == 2 &&
                         b.size() == a.cols() && !SameShape(a, b);
  if (!broadcast) {
    RF_CHECK(SameShape(a, b)) << a.ShapeString() << " vs " << b.ShapeString();
  }
  Tensor out = MakeNode(a.shape(), {a.impl(), b.impl()});
  const int64_t n = a.size();
  const int cols = a.cols();
  opcompute::AddSubForward(a.data(), b.data(), out.data(), n, cols, broadcast,
                           sign);
  TensorImpl* self = out.impl().get();
  auto ai = a.impl(), bi = b.impl();
  SetBackward(&out, [self, ai, bi, n, cols, broadcast, sign]() {
    if (ai->requires_grad) {
      ai->EnsureGrad();
      ForElems(n, [self, ai](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) ai->grad[i] += self->grad[i];
      });
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      if (broadcast) {
        // Broadcast rows fold into one shared vector: stays serial (cheap,
        // and parallel accumulation would need per-worker buffers).
        for (int64_t i = 0; i < n; ++i) {
          bi->grad[i % cols] += sign * self->grad[i];
        }
      } else {
        ForElems(n, [self, bi, sign](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            bi->grad[i] += sign * self->grad[i];
          }
        });
      }
    }
  });
  return out;
}
}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) { return AddSubImpl(a, b, 1.0f); }
Tensor Sub(const Tensor& a, const Tensor& b) { return AddSubImpl(a, b, -1.0f); }

Tensor Mul(const Tensor& a, const Tensor& b) {
  RF_CHECK(SameShape(a, b));
  Tensor out = MakeNode(a.shape(), {a.impl(), b.impl()});
  const int64_t n = a.size();
  opcompute::MulForward(a.data(), b.data(), out.data(), n);
  TensorImpl* self = out.impl().get();
  auto ai = a.impl(), bi = b.impl();
  SetBackward(&out, [self, ai, bi, n]() {
    if (ai->requires_grad) {
      ai->EnsureGrad();
      ForElems(n, [self, ai, bi](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          ai->grad[i] += self->grad[i] * bi->data_ptr()[i];
        }
      });
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      ForElems(n, [self, ai, bi](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          bi->grad[i] += self->grad[i] * ai->data_ptr()[i];
        }
      });
    }
  });
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = MakeNode(a.shape(), {a.impl()});
  const int64_t n = a.size();
  opcompute::ScaleForward(a.data(), out.data(), n, s);
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  SetBackward(&out, [self, ai, n, s]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    ForElems(n, [self, ai, s](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) ai->grad[i] += self->grad[i] * s;
    });
  });
  return out;
}

Tensor AddScalar(const Tensor& a, float s) {
  Tensor out = MakeNode(a.shape(), {a.impl()});
  const int64_t n = a.size();
  opcompute::AddScalarForward(a.data(), out.data(), n, s);
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  SetBackward(&out, [self, ai, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int64_t i = 0; i < n; ++i) ai->grad[i] += self->grad[i];
  });
  return out;
}

namespace {
/// Generic elementwise op: forward(x) and dydx computed from (x, y).
template <typename FwdFn, typename BwdFn>
Tensor Elementwise(const Tensor& a, FwdFn fwd, BwdFn dydx) {
  Tensor out = MakeNode(a.shape(), {a.impl()});
  const int64_t n = a.size();
  opcompute::ElementwiseForward(a.data(), out.data(), n, fwd);
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  SetBackward(&out, [self, ai, n, dydx]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    ForElems(n, [self, ai, dydx](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        ai->grad[i] += self->grad[i] * dydx(ai->data_ptr()[i], self->data_ptr()[i]);
      }
    });
  });
  return out;
}
}  // namespace

Tensor Relu(const Tensor& a) {
  return Elementwise(a, opcompute::ReluScalar,
                     [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Tanh(const Tensor& a) {
  return Elementwise(a, opcompute::TanhScalar,
                     [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& a) {
  return Elementwise(a, opcompute::SigmoidScalar,
                     [](float, float y) { return y * (1.0f - y); });
}

Tensor Gelu(const Tensor& a) {
  return Elementwise(a, opcompute::GeluScalar, [](float x, float) {
    constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
    const float u = kC * (x + 0.044715f * x * x * x);
    const float t = std::tanh(u);
    const float du = kC * (1.0f + 3.0f * 0.044715f * x * x);
    return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
  });
}

Tensor Softmax(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = MakeNode(a.shape(), {a.impl()});
  const int64_t work = static_cast<int64_t>(m) * n;
  opcompute::SoftmaxForward(a.data(), out.data(), m, n);
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  SetBackward(&out, [self, ai, m, n, work]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    ForRows(m, work, kRowParallelWork,
            [self, ai, n](int /*worker*/, int64_t r0, int64_t r1) {
              for (int64_t i = r0; i < r1; ++i) {
                const float* y = self->data_ptr() + i * n;
                const float* dy = self->grad.data() + i * n;
                float* dx = ai->grad.data() + i * n;
                float dot = 0.0f;
                for (int j = 0; j < n; ++j) dot += dy[j] * y[j];
                for (int j = 0; j < n; ++j) dx[j] += (dy[j] - dot) * y[j];
              }
            });
  });
  return out;
}

Tensor LogSoftmax(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = MakeNode(a.shape(), {a.impl()});
  const int64_t work = static_cast<int64_t>(m) * n;
  opcompute::LogSoftmaxForward(a.data(), out.data(), m, n);
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  SetBackward(&out, [self, ai, m, n, work]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    ForRows(m, work, kRowParallelWork,
            [self, ai, n](int /*worker*/, int64_t r0, int64_t r1) {
              for (int64_t i = r0; i < r1; ++i) {
                const float* y = self->data_ptr() + i * n;
                const float* dy = self->grad.data() + i * n;
                float* dx = ai->grad.data() + i * n;
                float total = 0.0f;
                for (int j = 0; j < n; ++j) total += dy[j];
                for (int j = 0; j < n; ++j) {
                  dx[j] += dy[j] - std::exp(y[j]) * total;
                }
              }
            });
  });
  return out;
}

Tensor FusedMultiHeadAttention(const Tensor& q, const Tensor& k,
                               const Tensor& v,
                               const std::vector<int>& segment_offsets,
                               int num_heads) {
  TRACE_SPAN("attention.fused");
  RF_CHECK_EQ(q.rank(), 2);
  RF_CHECK(SameShape(q, k));
  RF_CHECK(SameShape(q, v));
  const int t_len = q.dim(0), dim = q.dim(1);
  RF_CHECK_GT(num_heads, 0);
  RF_CHECK_EQ(dim % num_heads, 0);
  const int head_dim = dim / num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  // Sequence s spans rows [bounds[s], bounds[s + 1]); its [H, T_s, T_s]
  // attention probabilities start at attn_offsets[s].
  std::vector<int> bounds =
      segment_offsets.empty() ? std::vector<int>{0} : segment_offsets;
  bounds.push_back(t_len);
  RF_CHECK_EQ(bounds.front(), 0);
  const int num_segments = static_cast<int>(bounds.size()) - 1;
  std::vector<int64_t> attn_offsets = {0};
  int64_t work = 0;
  for (int s = 0; s < num_segments; ++s) {
    const int len = bounds[s + 1] - bounds[s];
    RF_CHECK(len > 0 || num_segments == 1)
        << "segment offsets must ascend strictly from 0 below " << t_len;
    attn_offsets.push_back(attn_offsets.back() +
                           static_cast<int64_t>(num_heads) * len * len);
    const int64_t mul_adds =
        opcompute::FusedAttentionMulAdds(len, dim, num_heads);
    CountGemm(GemmForm::kFusedAttention, mul_adds);
    work += mul_adds;
  }
  Tensor out = MakeNode({t_len, dim}, {q.impl(), k.impl(), v.impl()});
  RF_CHECK(num_segments == 1 || !out.impl()->requires_grad)
      << "packed attention runs in inference only: differentiate one "
         "sequence per call";

  // The probabilities of every sequence; for a single sequence the
  // [H, T, T] block the backward reads. Kept alive by the backward closure
  // when gradients are tracked, recycled immediately otherwise. shared_ptr
  // because std::function requires copyability.
  const int64_t rows = static_cast<int64_t>(num_heads) * t_len;
  auto attn = std::make_shared<ArenaBuffer>(attn_offsets.back());
  opcompute::FusedAttentionForward(q.data(), k.data(), v.data(), bounds.data(),
                                   attn_offsets.data(), num_segments,
                                   attn->data(), out.data(), dim, num_heads,
                                   work);

  TensorImpl* self = out.impl().get();
  auto qi = q.impl(), ki = k.impl(), vi = v.impl();
  SetBackward(&out, [self, qi, ki, vi, attn, t_len, dim, head_dim, num_heads,
                     scale, rows, work]() {
    const bool need_dq = qi->requires_grad;
    const bool need_dk = ki->requires_grad;
    const bool need_dv = vi->requires_grad;
    const bool need_dscores = need_dq || need_dk;
    if (!need_dscores && !need_dv) return;
    if (need_dq) qi->EnsureGrad();
    if (need_dk) ki->EnsureGrad();
    if (need_dv) vi->EnsureGrad();
    const float* pattn = attn->data();
    const float* pdy = self->grad.data();
    const float* pq = qi->data_ptr();
    const float* pk = ki->data_ptr();
    const float* pv = vi->data_ptr();
    const int64_t hsz = static_cast<int64_t>(t_len) * t_len;

    // Phase 1: dScores[h,i,:] = softmax_backward(dAttn[h,i,:]) where
    // dAttn[h,i,j] = dot(dY[i, head h], V[j, head h]), before the 1/sqrt(d)
    // factor (folded in below).
    ArenaBuffer dscores_buf(need_dscores ? rows * t_len : 0);
    float* pds = dscores_buf.data();
    if (need_dscores) {
      ForRows(rows, work, kGemmParallelWork,
              [&](int /*worker*/, int64_t r0, int64_t r1) {
                for (int64_t idx = r0; idx < r1; ++idx) {
                  const int h = static_cast<int>(idx / t_len);
                  const int64_t i = idx % t_len;
                  const int off = h * head_dim;
                  float* dshead = pds + h * hsz;
                  kernels::GemmNTVec(pdy + off, dim, pv + off, dim, dshead,
                                     t_len, t_len, head_dim, i, i + 1);
                  float* dsrow = dshead + i * t_len;
                  kernels::SoftmaxBackwardRow(pattn + h * hsz + i * t_len,
                                              dsrow, dsrow, t_len,
                                              /*out_overwrite=*/true);
                }
              });
      // Fold the score scale into dScores once; dQ/dK read the scaled copy.
      ForElems(rows * t_len, [pds, scale](int64_t begin, int64_t end) {
        for (int64_t e = begin; e < end; ++e) pds[e] *= scale;
      });
    }

    // Phase 2: dQ[i, head h] += dS[h,i,:] * K[:, head h] — row-partitioned.
    if (need_dq) {
      float* dq = qi->grad.data();
      ForRows(rows, work, kGemmParallelWork,
              [&](int /*worker*/, int64_t r0, int64_t r1) {
                for (int64_t idx = r0; idx < r1; ++idx) {
                  const int h = static_cast<int>(idx / t_len);
                  const int64_t i = idx % t_len;
                  const int off = h * head_dim;
                  kernels::GemmNN(pds + h * hsz, t_len, pk + off, dim,
                                  dq + off, dim, t_len, head_dim, i, i + 1);
                }
              });
    }

    // Phase 3: dK[j, h] += dS[h,:,j]^T Q[:, h]; dV[j, h] += A[h,:,j]^T dY.
    // Both reduce over query rows i for a fixed key/value row j, so the
    // (h, j) partition keeps writers disjoint.
    if (need_dk || need_dv) {
      float* dk = need_dk ? ki->grad.data() : nullptr;
      float* dv = need_dv ? vi->grad.data() : nullptr;
      ForRows(rows, work, kGemmParallelWork,
              [&](int /*worker*/, int64_t r0, int64_t r1) {
                for (int64_t idx = r0; idx < r1; ++idx) {
                  const int h = static_cast<int>(idx / t_len);
                  const int64_t j = idx % t_len;
                  const int off = h * head_dim;
                  if (dk != nullptr) {
                    kernels::GemmTN(pds + h * hsz, t_len, pq + off, dim,
                                    dk + off, dim, t_len, head_dim, j, j + 1);
                  }
                  if (dv != nullptr) {
                    kernels::GemmTN(pattn + h * hsz, t_len, pdy + off, dim,
                                    dv + off, dim, t_len, head_dim, j, j + 1);
                  }
                }
              });
    }
  });
  return out;
}

Tensor LstmSequence(const Tensor& proj, const Tensor& w_hh, bool reverse) {
  TRACE_SPAN("lstm.sequence");
  RF_CHECK_EQ(proj.rank(), 2);
  RF_CHECK_EQ(w_hh.rank(), 2);
  const int t_len = proj.dim(0), h = w_hh.dim(0), g4 = 4 * h;
  RF_CHECK_GT(t_len, 0);
  RF_CHECK_EQ(w_hh.dim(1), g4);
  RF_CHECK_EQ(proj.dim(1), g4);
  Tensor out = MakeNode({t_len, h}, {proj.impl(), w_hh.impl()});
  const bool save = out.impl()->requires_grad;
  const int64_t step_width =
      static_cast<int64_t>(opcompute::kLstmStepBlocks) * h;
  ArenaBuffer scratch(5 * static_cast<int64_t>(h));
  ArenaBuffer steps(save ? t_len * step_width : step_width);
  opcompute::LstmSequenceForward(proj.data(), w_hh.data(), out.data(),
                                 scratch.data(), steps.data(),
                                 save ? step_width : 0, t_len, h, reverse);
  if (!save) return out;

  // BPTT replays the chain's backward closures step by step, last processed
  // step first, as the tape ran them. Every chain node but dW_hh received
  // at most two gradient contributions (and two commute), so each node's
  // expression is copied as its op writes it, with a first contribution
  // into a zeroed buffer written as 0 + x. dW_hh is the one ordered sum:
  // one h_prevᵀ·dgates per step, step 0's zero state last.
  auto saved = std::make_shared<ArenaBuffer>(std::move(steps));
  TensorImpl* self = out.impl().get();
  auto pi = proj.impl(), wi = w_hh.impl();
  SetBackward(&out, [self, pi, wi, saved, t_len, h, g4, step_width,
                     reverse]() {
    const bool need_dproj = pi->requires_grad;
    const bool need_dw = wi->requires_grad;
    if (need_dproj) pi->EnsureGrad();
    if (need_dw) wi->EnsureGrad();
    const float* w = wi->data_ptr();
    const float* hs = self->data_ptr();
    const float* dout = self->grad.data();
    // dgates [4H] | dh [H] | c_prev's gradient from the later step [H] |
    // zero state [H].
    ArenaBuffer scratch(7 * static_cast<int64_t>(h));
    float* dgates = scratch.data();
    float* dh = dgates + g4;
    float* dc_carry = dh + h;
    const float* zeros = dc_carry + h;
    for (int s = t_len - 1; s >= 0; --s) {
      const int t = reverse ? t_len - 1 - s : s;
      const bool has_next = s + 1 < t_len;
      const float* step = saved->data() + s * step_width;
      const float* c_prev = s == 0 ? zeros : step - step_width + 4 * h;
      const float* h_prev =
          s == 0 ? zeros
                 : hs + static_cast<int64_t>(reverse ? t + 1 : t - 1) * h;
      // dh: the output row, plus the later step's dgates·W_hhᵀ as MatMul's
      // dA adds it (dgates still holds that step's row).
      const float* dout_row = dout + static_cast<int64_t>(t) * h;
      for (int k = 0; k < h; ++k) dh[k] = 0.0f + dout_row[k];
      if (has_next) GemmAccRowsNT(dgates, w, dh, h, g4, 0, 1);
      for (int k = 0; k < h; ++k) {
        const float i = step[k], f = step[h + k], g = step[2 * h + k];
        const float o = step[3 * h + k], tc = step[5 * h + k];
        // h = o·tanh(c): Mul's dy·b for each side.
        const float d_o = 0.0f + dh[k] * tc;
        const float d_tc = 0.0f + dh[k] * o;
        // c: Tanh's dy·(1 − y²), plus the later step's f·c_prev product.
        float dc = 0.0f + d_tc * (1.0f - tc * tc);
        if (has_next) dc += dc_carry[k];
        // c = fc + 1·ig: Add's dy and 1·dy.
        const float d_fc = 0.0f + dc;
        const float d_ig = 0.0f + 1.0f * dc;
        const float d_f = 0.0f + d_fc * c_prev[k];
        dc_carry[k] = d_fc * f;
        const float d_i = 0.0f + d_ig * g;
        const float d_g = 0.0f + d_ig * i;
        // Sigmoid's dy·y(1 − y) and Tanh's dy·(1 − y²) on the gate blocks.
        dgates[k] = 0.0f + d_i * (i * (1.0f - i));
        dgates[h + k] = 0.0f + d_f * (f * (1.0f - f));
        dgates[2 * h + k] = 0.0f + d_g * (1.0f - g * g);
        dgates[3 * h + k] = 0.0f + d_o * (o * (1.0f - o));
      }
      if (need_dproj) {
        float* dp = pi->grad.data() + static_cast<int64_t>(t) * g4;
        for (int j = 0; j < g4; ++j) dp[j] += dgates[j];
      }
      if (need_dw) GemmAccRowsTN(h_prev, dgates, wi->grad.data(), 1, h, g4, 0, h);
    }
  });
  return out;
}

Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                    int ignore_index) {
  const int m = logits.rows(), n = logits.cols();
  RF_CHECK_EQ(static_cast<int>(targets.size()), m);
  // Fused: compute softmax rows once, reuse them in backward. Per-row loss
  // terms are stored and reduced serially in row order, so the total is
  // bit-identical to the legacy serial kernel at any thread count.
  std::vector<float> probs(static_cast<size_t>(m) * n);
  std::vector<float> row_loss(m, 0.0f);
  std::vector<unsigned char> row_active(m, 0);
  const int64_t work = static_cast<int64_t>(m) * n;
  const float* plogits = logits.data();
  ForRows(m, work, kRowParallelWork,
          [&](int /*worker*/, int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
              const float* row = plogits + i * n;
              float* prow = probs.data() + i * n;
              float mx = row[0];
              for (int j = 1; j < n; ++j) mx = std::max(mx, row[j]);
              float total = 0.0f;
              for (int j = 0; j < n; ++j) {
                prow[j] = std::exp(row[j] - mx);
                total += prow[j];
              }
              for (int j = 0; j < n; ++j) prow[j] /= total;
              if (targets[i] == ignore_index) continue;
              RF_CHECK_GE(targets[i], 0);
              RF_CHECK_LT(targets[i], n);
              row_loss[i] = -std::log(std::max(prow[targets[i]], 1e-12f));
              row_active[i] = 1;
            }
          });
  double loss = 0.0;
  int active = 0;
  for (int i = 0; i < m; ++i) {
    if (!row_active[i]) continue;
    loss += row_loss[i];
    ++active;
  }
  Tensor out = MakeNode({1}, {logits.impl()});
  out.data()[0] = active > 0 ? static_cast<float>(loss / active) : 0.0f;
  TensorImpl* self = out.impl().get();
  auto li = logits.impl();
  SetBackward(&out, [self, li, m, n, work, targets, ignore_index, active,
                     probs = std::move(probs)]() {
    if (!li->requires_grad || active == 0) return;
    li->EnsureGrad();
    const float g = self->grad[0] / active;
    ForRows(m, work, kRowParallelWork,
            [&](int /*worker*/, int64_t r0, int64_t r1) {
              for (int64_t i = r0; i < r1; ++i) {
                if (targets[i] == ignore_index) continue;
                const float* prow = probs.data() + i * n;
                float* drow = li->grad.data() + i * n;
                for (int j = 0; j < n; ++j) {
                  drow[j] += g * (prow[j] - (j == targets[i] ? 1.0f : 0.0f));
                }
              }
            });
  });
  return out;
}

Tensor SoftCrossEntropy(const Tensor& logits, const Tensor& soft_targets,
                        const std::vector<float>& row_weights) {
  const int m = logits.rows(), n = logits.cols();
  RF_CHECK(logits.shape() == soft_targets.shape());
  std::vector<float> weights = row_weights;
  if (weights.empty()) weights.assign(m, 1.0f);
  RF_CHECK_EQ(static_cast<int>(weights.size()), m);

  std::vector<float> probs(static_cast<size_t>(m) * n);
  double loss = 0.0;
  double weight_total = 0.0;
  for (int i = 0; i < m; ++i) {
    const float* row = logits.data() + static_cast<int64_t>(i) * n;
    float* prow = probs.data() + static_cast<int64_t>(i) * n;
    float mx = row[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    float total = 0.0f;
    for (int j = 0; j < n; ++j) {
      prow[j] = std::exp(row[j] - mx);
      total += prow[j];
    }
    const float lse = mx + std::log(total);
    for (int j = 0; j < n; ++j) prow[j] /= total;
    if (weights[i] == 0.0f) continue;
    weight_total += weights[i];
    const float* trow = soft_targets.data() + static_cast<int64_t>(i) * n;
    double row_loss = 0.0;
    for (int j = 0; j < n; ++j) row_loss += trow[j] * (lse - row[j]);
    loss += weights[i] * row_loss;
  }
  Tensor out = MakeNode({1}, {logits.impl(), soft_targets.impl()});
  out.data()[0] =
      weight_total > 0.0 ? static_cast<float>(loss / weight_total) : 0.0f;
  TensorImpl* self = out.impl().get();
  auto li = logits.impl();
  auto ti = soft_targets.impl();
  SetBackward(&out, [self, li, ti, m, n, weights = std::move(weights),
                     weight_total, probs = std::move(probs)]() {
    if (!li->requires_grad || weight_total <= 0.0) return;
    li->EnsureGrad();
    const float g = self->grad[0] / static_cast<float>(weight_total);
    for (int i = 0; i < m; ++i) {
      if (weights[i] == 0.0f) continue;
      const float* prow = probs.data() + static_cast<int64_t>(i) * n;
      const float* trow = ti->data_ptr() + static_cast<int64_t>(i) * n;
      float* drow = li->grad.data() + static_cast<int64_t>(i) * n;
      float tsum = 0.0f;
      for (int j = 0; j < n; ++j) tsum += trow[j];
      for (int j = 0; j < n; ++j) {
        drow[j] += g * weights[i] * (prow[j] * tsum - trow[j]);
      }
    }
  });
  return out;
}

Tensor Mean(const Tensor& a) {
  const int64_t n = a.size();
  Tensor out = MakeNode({1}, {a.impl()});
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) total += a.data()[i];
  out.data()[0] = static_cast<float>(total / n);
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  SetBackward(&out, [self, ai, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float g = self->grad[0] / n;
    for (int64_t i = 0; i < n; ++i) ai->grad[i] += g;
  });
  return out;
}

Tensor Sum(const Tensor& a) {
  const int64_t n = a.size();
  Tensor out = MakeNode({1}, {a.impl()});
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) total += a.data()[i];
  out.data()[0] = static_cast<float>(total);
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  SetBackward(&out, [self, ai, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float g = self->grad[0];
    for (int64_t i = 0; i < n; ++i) ai->grad[i] += g;
  });
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  RF_CHECK(!parts.empty());
  const int n = parts[0].cols();
  int total_rows = 0;
  std::vector<ImplPtr> parents;
  for (const auto& p : parts) {
    RF_CHECK_EQ(p.cols(), n);
    total_rows += p.rows();
    parents.push_back(p.impl());
  }
  Tensor out = MakeNode({total_rows, n}, parents);
  int row = 0;
  for (const auto& p : parts) {
    std::copy(p.data(), p.data() + p.size(),
              out.data() + static_cast<int64_t>(row) * n);
    row += p.rows();
  }
  TensorImpl* self = out.impl().get();
  std::vector<ImplPtr> srcs;
  srcs.reserve(parts.size());
  for (const auto& p : parts) srcs.push_back(p.impl());
  SetBackward(&out, [self, srcs = std::move(srcs), n]() {
    int row = 0;
    for (const auto& src : srcs) {
      const int r = static_cast<int>(src->size()) / n;
      if (src->requires_grad) {
        src->EnsureGrad();
        const float* g = self->grad.data() + static_cast<int64_t>(row) * n;
        for (int64_t i = 0; i < static_cast<int64_t>(r) * n; ++i) {
          src->grad[i] += g[i];
        }
      }
      row += r;
    }
  });
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  RF_CHECK(!parts.empty());
  const int m = parts[0].rows();
  int total_cols = 0;
  std::vector<ImplPtr> parents;
  for (const auto& p : parts) {
    RF_CHECK_EQ(p.rows(), m);
    total_cols += p.cols();
    parents.push_back(p.impl());
  }
  Tensor out = MakeNode({m, total_cols}, parents);
  int col = 0;
  for (const auto& p : parts) {
    const int pc = p.cols();
    for (int i = 0; i < m; ++i) {
      std::copy(p.data() + static_cast<int64_t>(i) * pc,
                p.data() + static_cast<int64_t>(i + 1) * pc,
                out.data() + static_cast<int64_t>(i) * total_cols + col);
    }
    col += pc;
  }
  TensorImpl* self = out.impl().get();
  std::vector<ImplPtr> srcs;
  std::vector<int> widths;
  for (const auto& p : parts) {
    srcs.push_back(p.impl());
    widths.push_back(p.cols());
  }
  SetBackward(&out, [self, srcs = std::move(srcs), widths = std::move(widths),
                     m, total_cols]() {
    int col = 0;
    for (size_t s = 0; s < srcs.size(); ++s) {
      const auto& src = srcs[s];
      const int pc = widths[s];
      if (src->requires_grad) {
        src->EnsureGrad();
        for (int i = 0; i < m; ++i) {
          const float* g =
              self->grad.data() + static_cast<int64_t>(i) * total_cols + col;
          float* dst = src->grad.data() + static_cast<int64_t>(i) * pc;
          for (int j = 0; j < pc; ++j) dst[j] += g[j];
        }
      }
      col += pc;
    }
  });
  return out;
}

Tensor SliceRows(const Tensor& a, int start, int len) {
  RF_CHECK_EQ(a.rank(), 2);
  const int n = a.cols();
  RF_CHECK_GE(start, 0);
  RF_CHECK_LE(start + len, a.rows());
  Tensor out = MakeNode({len, n}, {a.impl()});
  std::copy(a.data() + static_cast<int64_t>(start) * n,
            a.data() + static_cast<int64_t>(start + len) * n, out.data());
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  SetBackward(&out, [self, ai, start, len, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int64_t i = 0; i < static_cast<int64_t>(len) * n; ++i) {
      ai->grad[static_cast<int64_t>(start) * n + i] += self->grad[i];
    }
  });
  return out;
}

Tensor SliceCols(const Tensor& a, int start, int len) {
  RF_CHECK_EQ(a.rank(), 2);
  const int m = a.rows(), n = a.cols();
  RF_CHECK_GE(start, 0);
  RF_CHECK_LE(start + len, n);
  Tensor out = MakeNode({m, len}, {a.impl()});
  for (int i = 0; i < m; ++i) {
    std::copy(a.data() + static_cast<int64_t>(i) * n + start,
              a.data() + static_cast<int64_t>(i) * n + start + len,
              out.data() + static_cast<int64_t>(i) * len);
  }
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  SetBackward(&out, [self, ai, start, len, m, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < len; ++j) {
        ai->grad[static_cast<int64_t>(i) * n + start + j] +=
            self->grad[static_cast<int64_t>(i) * len + j];
      }
    }
  });
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int>& indices) {
  RF_CHECK_EQ(a.rank(), 2);
  const int n = a.cols();
  const int m = static_cast<int>(indices.size());
  Tensor out = MakeNode({m, n}, {a.impl()});
  for (int i = 0; i < m; ++i) {
    RF_CHECK_GE(indices[i], 0);
    RF_CHECK_LT(indices[i], a.rows());
    std::copy(a.data() + static_cast<int64_t>(indices[i]) * n,
              a.data() + static_cast<int64_t>(indices[i] + 1) * n,
              out.data() + static_cast<int64_t>(i) * n);
  }
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  SetBackward(&out, [self, ai, indices, m, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < m; ++i) {
      const float* g = self->grad.data() + static_cast<int64_t>(i) * n;
      float* dst = ai->grad.data() + static_cast<int64_t>(indices[i]) * n;
      for (int j = 0; j < n; ++j) dst[j] += g[j];
    }
  });
  return out;
}

Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int>& ids) {
  return GatherRows(weight, ids);
}

Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps) {
  const int m = x.rows(), n = x.cols();
  RF_CHECK_EQ(gamma.size(), n);
  RF_CHECK_EQ(beta.size(), n);
  Tensor out = MakeNode(x.shape(), {x.impl(), gamma.impl(), beta.impl()});
  std::vector<float> inv_std(m);
  std::vector<float> means(m);
  const int64_t work = static_cast<int64_t>(m) * n;
  opcompute::LayerNormForward(x.data(), gamma.data(), beta.data(), out.data(),
                              m, n, eps, means.data(), inv_std.data());
  TensorImpl* self = out.impl().get();
  auto xi = x.impl(), gi = gamma.impl(), bi = beta.impl();
  SetBackward(&out, [self, xi, gi, bi, m, n, work, means = std::move(means),
                     inv_std = std::move(inv_std)]() {
    // dgamma/dbeta are summed over rows — a shared output. Each worker
    // accumulates into its own buffer; buffers reduce in worker order so
    // the result is deterministic for a fixed thread count.
    const bool need_dgamma = gi->requires_grad;
    const bool need_dbeta = bi->requires_grad;
    const bool need_dx = xi->requires_grad;
    if (need_dgamma) gi->EnsureGrad();
    if (need_dbeta) bi->EnsureGrad();
    if (need_dx) xi->EnsureGrad();
    if (!ShouldParallelize(work, kRowParallelWork)) {
      // Serial path accumulates straight into the shared grad buffers in the
      // legacy row order (bit-identical to the pre-pool kernel).
      for (int64_t i = 0; i < m; ++i) {
        const float* xrow = xi->data_ptr() + i * n;
        const float* dy = self->grad.data() + i * n;
        const float is = inv_std[i];
        const float mean = means[i];
        if (need_dgamma) {
          for (int j = 0; j < n; ++j) {
            gi->grad[j] += dy[j] * (xrow[j] - mean) * is;
          }
        }
        if (need_dbeta) {
          for (int j = 0; j < n; ++j) bi->grad[j] += dy[j];
        }
        if (need_dx) {
          float s1 = 0.0f, s2 = 0.0f;
          for (int j = 0; j < n; ++j) {
            const float gdy = dy[j] * gi->data_ptr()[j];
            const float xhat = (xrow[j] - mean) * is;
            s1 += gdy;
            s2 += gdy * xhat;
          }
          s1 /= n;
          s2 /= n;
          float* dx = xi->grad.data() + i * n;
          for (int j = 0; j < n; ++j) {
            const float gdy = dy[j] * gi->data_ptr()[j];
            const float xhat = (xrow[j] - mean) * is;
            dx[j] += (gdy - s1 - xhat * s2) * is;
          }
        }
      }
      return;
    }
    const int pool_width = ThreadPool::Global().NumThreads();
    std::vector<float> dgamma_parts, dbeta_parts;
    if (need_dgamma) {
      dgamma_parts.assign(static_cast<size_t>(pool_width) * n, 0.0f);
    }
    if (need_dbeta) {
      dbeta_parts.assign(static_cast<size_t>(pool_width) * n, 0.0f);
    }
    ForRows(m, work, kRowParallelWork,
            [&](int worker, int64_t r0, int64_t r1) {
              float* dgamma = need_dgamma
                                  ? dgamma_parts.data() +
                                        static_cast<int64_t>(worker) * n
                                  : nullptr;
              float* dbeta = need_dbeta
                                 ? dbeta_parts.data() +
                                       static_cast<int64_t>(worker) * n
                                 : nullptr;
              for (int64_t i = r0; i < r1; ++i) {
                const float* xrow = xi->data_ptr() + i * n;
                const float* dy = self->grad.data() + i * n;
                const float is = inv_std[i];
                const float mean = means[i];
                if (dgamma != nullptr) {
                  for (int j = 0; j < n; ++j) {
                    dgamma[j] += dy[j] * (xrow[j] - mean) * is;
                  }
                }
                if (dbeta != nullptr) {
                  for (int j = 0; j < n; ++j) dbeta[j] += dy[j];
                }
                if (need_dx) {
                  // dx = (g*dy - mean(g*dy) - xhat*mean(g*dy*xhat)) * inv_std
                  float s1 = 0.0f, s2 = 0.0f;
                  for (int j = 0; j < n; ++j) {
                    const float gdy = dy[j] * gi->data_ptr()[j];
                    const float xhat = (xrow[j] - mean) * is;
                    s1 += gdy;
                    s2 += gdy * xhat;
                  }
                  s1 /= n;
                  s2 /= n;
                  float* dx = xi->grad.data() + i * n;
                  for (int j = 0; j < n; ++j) {
                    const float gdy = dy[j] * gi->data_ptr()[j];
                    const float xhat = (xrow[j] - mean) * is;
                    dx[j] += (gdy - s1 - xhat * s2) * is;
                  }
                }
              }
            });
    for (int w = 0; w < pool_width; ++w) {
      if (need_dgamma) {
        const float* part = dgamma_parts.data() + static_cast<int64_t>(w) * n;
        for (int j = 0; j < n; ++j) gi->grad[j] += part[j];
      }
      if (need_dbeta) {
        const float* part = dbeta_parts.data() + static_cast<int64_t>(w) * n;
        for (int j = 0; j < n; ++j) bi->grad[j] += part[j];
      }
    }
  });
  return out;
}

Tensor Dropout(const Tensor& x, float p, Rng* rng, bool training) {
  if (!training || p <= 0.0f) return x;
  RF_CHECK_LT(p, 1.0f);
  const int64_t n = x.size();
  std::vector<float> mask(n);
  const float keep = 1.0f - p;
  for (int64_t i = 0; i < n; ++i) {
    mask[i] = rng->Bernoulli(keep) ? 1.0f / keep : 0.0f;
  }
  Tensor out = MakeNode(x.shape(), {x.impl()});
  for (int64_t i = 0; i < n; ++i) out.data()[i] = x.data()[i] * mask[i];
  TensorImpl* self = out.impl().get();
  auto xi = x.impl();
  SetBackward(&out, [self, xi, n, mask = std::move(mask)]() {
    if (!xi->requires_grad) return;
    xi->EnsureGrad();
    for (int64_t i = 0; i < n; ++i) xi->grad[i] += self->grad[i] * mask[i];
  });
  return out;
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  const int m = a.rows(), n = a.cols();
  Tensor out = MakeNode(a.shape(), {a.impl()});
  std::vector<float> inv_norm(m);
  opcompute::L2NormalizeForward(a.data(), out.data(), m, n, eps,
                                inv_norm.data());
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  SetBackward(&out, [self, ai, m, n, inv_norm = std::move(inv_norm)]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int i = 0; i < m; ++i) {
      const float* y = self->data_ptr() + static_cast<int64_t>(i) * n;
      const float* dy = self->grad.data() + static_cast<int64_t>(i) * n;
      float* dx = ai->grad.data() + static_cast<int64_t>(i) * n;
      float dot = 0.0f;
      for (int j = 0; j < n; ++j) dot += dy[j] * y[j];
      for (int j = 0; j < n; ++j) {
        dx[j] += (dy[j] - y[j] * dot) * inv_norm[i];
      }
    }
  });
  return out;
}

Tensor Reshape(const Tensor& a, std::vector<int> shape) {
  int64_t prod = 1;
  for (int d : shape) prod *= d;
  RF_CHECK_EQ(prod, a.size());
  Tensor out = MakeNode(shape, {a.impl()});
  std::copy(a.data(), a.data() + a.size(), out.data());
  TensorImpl* self = out.impl().get();
  auto ai = a.impl();
  const int64_t n = a.size();
  SetBackward(&out, [self, ai, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int64_t i = 0; i < n; ++i) ai->grad[i] += self->grad[i];
  });
  return out;
}

}  // namespace ops
}  // namespace resuformer
