#include "tensor/plan.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "tensor/arena.h"
#include "tensor/op_compute.h"
#include "tensor/quant.h"

namespace resuformer {
namespace plan {

namespace {

thread_local Recorder* g_active_recorder = nullptr;

// ---------------------------------------------------------------------------
// Exec functions. Each reads its operand pointers out of the pre-resolved
// ExecContext table and calls the same opcompute:: loop the dynamic op
// calls. Outputs that the kernels ACCUMULATE into (the GEMM family and the
// fused-attention slabs) are zero-filled first — exactly what Tensor::Zeros
// provides on the dynamic path — so results are bit-identical. GEMM-bearing
// instructions count their work like the dynamic op does.
// ---------------------------------------------------------------------------

const Value& Val(const ExecContext& ctx, int id) { return ctx.plan->values[id]; }
const float* Src(const ExecContext& ctx, int id) { return (*ctx.ptrs)[id]; }
float* Dst(ExecContext& ctx, int id) { return (*ctx.ptrs)[id]; }

int64_t MulAdds(const Instr& gemm) {
  return static_cast<int64_t>(gemm.p0) * gemm.p1 * gemm.p2;
}

void ExecMatMulNN(const Instr& ins, ExecContext& ctx) {
  opcompute::CountGemm(opcompute::GemmForm::kNN, MulAdds(ins));
  float* c = Dst(ctx, ins.out);
  std::fill(c, c + static_cast<int64_t>(ins.p0) * ins.p2, 0.0f);
  opcompute::MatMulNNForward(Src(ctx, ins.in0), Src(ctx, ins.in1), c, ins.p0,
                             ins.p1, ins.p2);
}

void ExecMatMulNT(const Instr& ins, ExecContext& ctx) {
  opcompute::CountGemm(opcompute::GemmForm::kNT, MulAdds(ins));
  float* c = Dst(ctx, ins.out);
  std::fill(c, c + static_cast<int64_t>(ins.p0) * ins.p2, 0.0f);
  opcompute::MatMulNTForward(Src(ctx, ins.in0), Src(ctx, ins.in1), c, ins.p0,
                             ins.p1, ins.p2);
}

void ExecMatMulTN(const Instr& ins, ExecContext& ctx) {
  opcompute::CountGemm(opcompute::GemmForm::kTN, MulAdds(ins));
  float* c = Dst(ctx, ins.out);
  std::fill(c, c + static_cast<int64_t>(ins.p0) * ins.p2, 0.0f);
  opcompute::MatMulTNForward(Src(ctx, ins.in0), Src(ctx, ins.in1), c, ins.p0,
                             ins.p1, ins.p2);
}

void ExecLinearI8(const Instr& ins, ExecContext& ctx) {
  // Counted as the fp32 GEMM it replaced.
  opcompute::CountGemm(
      ins.flag ? opcompute::GemmForm::kNN : opcompute::GemmForm::kNT,
      MulAdds(ins));
  // No zero-fill of the output: LinearI8Forward overwrites C (the int32
  // accumulators in scratch are what get zeroed, inside quant.cc).
  quant::LinearI8Forward(Src(ctx, ins.in0), *ins.qweight, Dst(ctx, ins.out),
                         ins.p0, ins.p1, ins.p2,
                         ctx.workspace + ins.scratch_offset);
}

void ExecTranspose(const Instr& ins, ExecContext& ctx) {
  const Value& a = Val(ctx, ins.in0);
  opcompute::TransposeForward(Src(ctx, ins.in0), Dst(ctx, ins.out), a.rows,
                              a.cols);
}

void ExecAddSub(const Instr& ins, ExecContext& ctx) {
  const Value& o = Val(ctx, ins.out);
  opcompute::AddSubForward(Src(ctx, ins.in0), Src(ctx, ins.in1),
                           Dst(ctx, ins.out), o.size, o.cols, ins.flag,
                           ins.alpha);
}

void ExecMul(const Instr& ins, ExecContext& ctx) {
  opcompute::MulForward(Src(ctx, ins.in0), Src(ctx, ins.in1),
                        Dst(ctx, ins.out), Val(ctx, ins.out).size);
}

void ExecScale(const Instr& ins, ExecContext& ctx) {
  opcompute::ScaleForward(Src(ctx, ins.in0), Dst(ctx, ins.out),
                          Val(ctx, ins.out).size, ins.alpha);
}

void ExecAddScalar(const Instr& ins, ExecContext& ctx) {
  opcompute::AddScalarForward(Src(ctx, ins.in0), Dst(ctx, ins.out),
                              Val(ctx, ins.out).size, ins.alpha);
}

void ExecRelu(const Instr& ins, ExecContext& ctx) {
  opcompute::ElementwiseForward(Src(ctx, ins.in0), Dst(ctx, ins.out),
                                Val(ctx, ins.out).size, opcompute::ReluScalar);
}

void ExecGelu(const Instr& ins, ExecContext& ctx) {
  opcompute::ElementwiseForward(Src(ctx, ins.in0), Dst(ctx, ins.out),
                                Val(ctx, ins.out).size, opcompute::GeluScalar);
}

void ExecTanh(const Instr& ins, ExecContext& ctx) {
  opcompute::ElementwiseForward(Src(ctx, ins.in0), Dst(ctx, ins.out),
                                Val(ctx, ins.out).size, opcompute::TanhScalar);
}

void ExecSigmoid(const Instr& ins, ExecContext& ctx) {
  opcompute::ElementwiseForward(Src(ctx, ins.in0), Dst(ctx, ins.out),
                                Val(ctx, ins.out).size,
                                opcompute::SigmoidScalar);
}

void ExecSoftmax(const Instr& ins, ExecContext& ctx) {
  const Value& o = Val(ctx, ins.out);
  opcompute::SoftmaxForward(Src(ctx, ins.in0), Dst(ctx, ins.out), o.rows,
                            o.cols);
}

void ExecLogSoftmax(const Instr& ins, ExecContext& ctx) {
  const Value& o = Val(ctx, ins.out);
  opcompute::LogSoftmaxForward(Src(ctx, ins.in0), Dst(ctx, ins.out), o.rows,
                               o.cols);
}

void ExecScaleAddSoftmax(const Instr& ins, ExecContext& ctx) {
  const Value& o = Val(ctx, ins.out);
  const float* bias = ins.in1 >= 0 ? Src(ctx, ins.in1) : nullptr;
  opcompute::ScaleAddSoftmaxForward(Src(ctx, ins.in0), bias, ins.flag,
                                    Dst(ctx, ins.out), o.rows, o.cols,
                                    ins.alpha);
}

void ExecFusedAttention(const Instr& ins, ExecContext& ctx) {
  const int t_len = ins.p0, dim = ins.p1, num_heads = ins.p2;
  opcompute::CountGemm(opcompute::GemmForm::kFusedAttention,
                       opcompute::FusedAttentionMulAdds(t_len, dim, num_heads));
  float* o = Dst(ctx, ins.out);
  float* attn = ctx.workspace + ins.scratch_offset;
  std::fill(o, o + static_cast<int64_t>(t_len) * dim, 0.0f);
  std::fill(attn, attn + ins.scratch_size, 0.0f);
  const float* bias =
      ins.extra_in.empty() ? nullptr : Src(ctx, ins.extra_in[0]);
  opcompute::FusedAttentionForward(Src(ctx, ins.in0), Src(ctx, ins.in1),
                                   Src(ctx, ins.in2), bias, attn, o, t_len,
                                   dim, num_heads);
}

void ExecConcatRows(const Instr& ins, ExecContext& ctx) {
  float* o = Dst(ctx, ins.out);
  int64_t off = 0;
  for (int id : ins.extra_in) {
    const Value& p = Val(ctx, id);
    std::copy(Src(ctx, id), Src(ctx, id) + p.size, o + off);
    off += p.size;
  }
}

void ExecConcatCols(const Instr& ins, ExecContext& ctx) {
  const Value& o = Val(ctx, ins.out);
  float* po = Dst(ctx, ins.out);
  const int m = o.rows, total_cols = o.cols;
  int col = 0;
  for (int id : ins.extra_in) {
    const Value& p = Val(ctx, id);
    const float* pp = Src(ctx, id);
    const int pc = p.cols;
    for (int i = 0; i < m; ++i) {
      std::copy(pp + static_cast<int64_t>(i) * pc,
                pp + static_cast<int64_t>(i + 1) * pc,
                po + static_cast<int64_t>(i) * total_cols + col);
    }
    col += pc;
  }
}

void ExecSliceRows(const Instr& ins, ExecContext& ctx) {
  const int n = Val(ctx, ins.in0).cols;
  const float* a = Src(ctx, ins.in0);
  std::copy(a + static_cast<int64_t>(ins.p0) * n,
            a + static_cast<int64_t>(ins.p0 + ins.p1) * n, Dst(ctx, ins.out));
}

void ExecSliceCols(const Instr& ins, ExecContext& ctx) {
  const Value& src = Val(ctx, ins.in0);
  const int m = src.rows, n = src.cols, start = ins.p0, len = ins.p1;
  const float* a = Src(ctx, ins.in0);
  float* o = Dst(ctx, ins.out);
  for (int i = 0; i < m; ++i) {
    std::copy(a + static_cast<int64_t>(i) * n + start,
              a + static_cast<int64_t>(i) * n + start + len,
              o + static_cast<int64_t>(i) * len);
  }
}

void ExecGather(const Instr& ins, ExecContext& ctx) {
  const Value& src = Val(ctx, ins.in0);
  const int n = src.cols;
  const float* a = Src(ctx, ins.in0);
  float* o = Dst(ctx, ins.out);
  const std::vector<int>& idx = ins.index_role >= 0
                                    ? *ctx.bindings->indices[ins.index_role]
                                    : ins.indices;
  const int m = static_cast<int>(idx.size());
  for (int i = 0; i < m; ++i) {
    const int r = idx[i];
    if (r < 0 || r >= src.rows) {  // bad bound index: dynamic-path fallback
      ctx.failed = true;
      return;
    }
    std::copy(a + static_cast<int64_t>(r) * n,
              a + static_cast<int64_t>(r + 1) * n,
              o + static_cast<int64_t>(i) * n);
  }
}

void ExecLayerNorm(const Instr& ins, ExecContext& ctx) {
  const Value& o = Val(ctx, ins.out);
  opcompute::LayerNormForward(Src(ctx, ins.in0), Src(ctx, ins.in1),
                              Src(ctx, ins.in2), Dst(ctx, ins.out), o.rows,
                              o.cols, ins.alpha, nullptr, nullptr);
}

void ExecL2Normalize(const Instr& ins, ExecContext& ctx) {
  const Value& o = Val(ctx, ins.out);
  opcompute::L2NormalizeForward(Src(ctx, ins.in0), Dst(ctx, ins.out), o.rows,
                                o.cols, ins.alpha, nullptr);
}

void ExecReshape(const Instr& ins, ExecContext& ctx) {
  const float* a = Src(ctx, ins.in0);
  std::copy(a, a + Val(ctx, ins.out).size, Dst(ctx, ins.out));
}

}  // namespace

const ExecFns& GetExecFns() {
  static const ExecFns fns = {
      ExecMatMulNN,   ExecMatMulNT, ExecMatMulTN, ExecTranspose,
      ExecAddSub,     ExecMul,      ExecScale,    ExecAddScalar,
      ExecRelu,       ExecGelu,     ExecTanh,     ExecSigmoid,
      ExecSoftmax,    ExecLogSoftmax,
      ExecConcatRows, ExecConcatCols, ExecSliceRows, ExecSliceCols,
      ExecReshape,    ExecL2Normalize};
  return fns;
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

Recorder::Recorder() {
  RF_CHECK(g_active_recorder == nullptr)
      << "nested plan recorders on one thread";
  g_active_recorder = this;
}

Recorder::~Recorder() { g_active_recorder = nullptr; }

Recorder* Recorder::Active() { return g_active_recorder; }

int Recorder::ValueIdFor(const Tensor& t) {
  auto it = ids_.find(t.impl().get());
  if (it != ids_.end()) return it->second;
  // First sighting of storage no recorded op produced: a constant leaf
  // (model weight, literal position/segment table). The plan keeps the
  // impl alive, so every replay reads its current storage and the
  // raw-pointer key can never be recycled.
  Value v;
  v.kind = Value::kConstant;
  v.rows = t.rows();
  v.cols = t.cols();
  v.size = t.size();
  v.constant = t.impl();
  const int id = static_cast<int>(values_.size());
  values_.push_back(std::move(v));
  ids_.emplace(t.impl().get(), id);
  return id;
}

int Recorder::RegisterOutput(const Tensor& out) {
  Value v;
  v.kind = Value::kTemp;
  v.rows = out.rows();
  v.cols = out.cols();
  v.size = out.size();
  const int id = static_cast<int>(values_.size());
  values_.push_back(std::move(v));
  ids_.emplace(out.impl().get(), id);
  keepalive_.push_back(out.impl());
  return id;
}

Instr& Recorder::Append(ExecFn fn, const char* name) {
  ++instr_count_;
  instrs_.emplace_back();
  Instr& ins = instrs_.back();
  ins.exec = fn;
  ins.name = name;
  return ins;
}

void Recorder::AnnotateNextGather(int role) {
  if (pending_gather_role_ != -1) poisoned_ = true;  // unconsumed annotation
  pending_gather_role_ = role;
}

void Recorder::RecordUnary(ExecFn fn, const char* name, const Tensor& a,
                           const Tensor& out, float alpha) {
  if (poisoned_) return;
  const int ia = ValueIdFor(a);
  Instr& ins = Append(fn, name);
  ins.in0 = ia;
  ins.alpha = alpha;
  ins.out = RegisterOutput(out);
}

void Recorder::RecordBinary(ExecFn fn, const char* name, const Tensor& a,
                            const Tensor& b, const Tensor& out, float alpha,
                            bool flag) {
  if (poisoned_) return;
  const int ia = ValueIdFor(a);
  const int ib = ValueIdFor(b);
  Instr& ins = Append(fn, name);
  ins.in0 = ia;
  ins.in1 = ib;
  ins.alpha = alpha;
  ins.flag = flag;
  ins.out = RegisterOutput(out);
}

void Recorder::RecordGemm(ExecFn fn, const char* name, const Tensor& a,
                          const Tensor& b, const Tensor& out, int m, int k,
                          int n) {
  if (poisoned_) return;
  const int ia = ValueIdFor(a);
  const int ib = ValueIdFor(b);
  Instr& ins = Append(fn, name);
  ins.in0 = ia;
  ins.in1 = ib;
  ins.p0 = m;
  ins.p1 = k;
  ins.p2 = n;
  ins.out = RegisterOutput(out);
}

void Recorder::RecordScaleAddSoftmax(const Tensor& a, const Tensor& bias,
                                     const Tensor& out, float scale,
                                     bool bias_broadcast) {
  if (poisoned_) return;
  const int ia = ValueIdFor(a);
  const int ib = bias.defined() ? ValueIdFor(bias) : -1;
  Instr& ins = Append(ExecScaleAddSoftmax, "scale_add_softmax");
  ins.in0 = ia;
  ins.in1 = ib;
  ins.alpha = scale;
  ins.flag = bias_broadcast;
  ins.out = RegisterOutput(out);
}

void Recorder::RecordFusedAttention(const Tensor& q, const Tensor& k,
                                    const Tensor& v, const Tensor& bias,
                                    const Tensor& out, int t_len, int dim,
                                    int num_heads) {
  if (poisoned_) return;
  const int iq = ValueIdFor(q);
  const int ik = ValueIdFor(k);
  const int iv = ValueIdFor(v);
  const int ib = bias.defined() ? ValueIdFor(bias) : -1;
  Instr& ins = Append(ExecFusedAttention, "fused_attention");
  ins.in0 = iq;
  ins.in1 = ik;
  ins.in2 = iv;
  if (ib >= 0) ins.extra_in.push_back(ib);
  ins.p0 = t_len;
  ins.p1 = dim;
  ins.p2 = num_heads;
  ins.scratch_size = static_cast<int64_t>(num_heads) * t_len * t_len;
  ins.out = RegisterOutput(out);
}

void Recorder::RecordConcat(ExecFn fn, const char* name,
                            const std::vector<Tensor>& parts,
                            const Tensor& out) {
  if (poisoned_) return;
  std::vector<int> ids;
  ids.reserve(parts.size());
  for (const Tensor& p : parts) ids.push_back(ValueIdFor(p));
  Instr& ins = Append(fn, name);
  ins.extra_in = std::move(ids);
  ins.out = RegisterOutput(out);
}

void Recorder::RecordSlice(ExecFn fn, const char* name, const Tensor& a,
                           const Tensor& out, int start, int len) {
  if (poisoned_) return;
  const int ia = ValueIdFor(a);
  Instr& ins = Append(fn, name);
  ins.in0 = ia;
  ins.p0 = start;
  ins.p1 = len;
  ins.out = RegisterOutput(out);
}

void Recorder::RecordGather(const Tensor& a, const std::vector<int>& indices,
                            const Tensor& out) {
  if (poisoned_) return;
  const int ia = ValueIdFor(a);
  Instr& ins = Append(ExecGather, "gather_rows");
  ins.in0 = ia;
  if (pending_gather_role_ >= 0) {
    ins.index_role = pending_gather_role_;
    ins.p0 = static_cast<int>(indices.size());  // expected index count
    pending_gather_role_ = -1;
  } else {
    ins.indices = indices;
  }
  ins.out = RegisterOutput(out);
}

void Recorder::RecordLayerNorm(const Tensor& x, const Tensor& gamma,
                               const Tensor& beta, const Tensor& out,
                               float eps) {
  if (poisoned_) return;
  const int ix = ValueIdFor(x);
  const int ig = ValueIdFor(gamma);
  const int ib = ValueIdFor(beta);
  Instr& ins = Append(ExecLayerNorm, "layer_norm");
  ins.in0 = ix;
  ins.in1 = ig;
  ins.in2 = ib;
  ins.alpha = eps;
  ins.out = RegisterOutput(out);
}

void Recorder::RewriteGemmsToInt8() {
  metrics::Counter* rewrites =
      metrics::MetricsRegistry::Global().GetCounter("quant.instrs_rewritten");
  // One quantized copy per (weight value, layout): a weight feeding several
  // GEMMs in the same orientation (e.g. a shared embedding matrix) is
  // quantized once and shared by shared_ptr.
  std::unordered_map<int64_t, std::shared_ptr<const quant::QuantizedTensor>>
      cache;
  for (Instr& ins : instrs_) {
    const bool nn = ins.exec == ExecMatMulNN;
    const bool nt = ins.exec == ExecMatMulNT;
    if ((!nn && !nt) || ins.in1 < 0) continue;
    const Value& w = values_[ins.in1];
    // Only plan constants qualify: their bytes are frozen for the plan's
    // lifetime, so quantizing once at build time is sound. Dynamic operands
    // (attention QK^T / AV) stay fp32.
    if (w.kind != Value::kConstant) continue;
    if (ins.p1 > quant::kMaxI8ReduceDim) continue;  // int32 would overflow
    const int64_t key = static_cast<int64_t>(ins.in1) * 2 + (nn ? 1 : 0);
    auto it = cache.find(key);
    if (it == cache.end()) {
      // NN: B is [k, n], pre-transpose to NT layout [n, k]. NT: B is
      // already [n, k].
      auto q = std::make_shared<quant::QuantizedTensor>(
          nn ? quant::QuantizeTransposed(w.constant->data_ptr(), ins.p1,
                                         ins.p2)
             : quant::QuantizeRows(w.constant->data_ptr(), ins.p2, ins.p1));
      it = cache.emplace(key, std::move(q)).first;
    }
    ins.qweight = it->second;
    ins.flag = nn;
    ins.exec = ExecLinearI8;
    ins.name = nn ? "matmul_nn_i8" : "matmul_nt_i8";
    ins.scratch_size = quant::LinearI8ScratchFloats(ins.p0, ins.p1, ins.p2);
    rewrites->Increment();
  }
}

std::shared_ptr<const Plan> Recorder::Finish(const Tensor& output) {
  if (poisoned_ || pending_gather_role_ != -1) return nullptr;
  // An op with no recording hook (a training-only op, or one added later
  // without plan support) created a node the instruction list never saw:
  // the trace is incomplete, refuse to build a plan from it.
  if (node_count_ != instr_count_) return nullptr;
  if (!output.defined()) return nullptr;
  auto it = ids_.find(output.impl().get());
  if (it == ids_.end()) return nullptr;
  const int out_id = it->second;
  if (values_[out_id].kind != Value::kTemp) return nullptr;

  // Kernel substitution happens before liveness so the quant scratch gets a
  // workspace slot like any other per-instruction scratch.
  if (int8_enabled_) RewriteGemmsToInt8();

  // Last-use liveness over value ids; the plan output lives to the end.
  const int64_t num_instrs = static_cast<int64_t>(instrs_.size());
  std::vector<int64_t> last_use(values_.size(), -1);
  for (int64_t i = 0; i < num_instrs; ++i) {
    const Instr& ins = instrs_[i];
    for (int id : {ins.in0, ins.in1, ins.in2}) {
      if (id >= 0) last_use[id] = i;
    }
    for (int id : ins.extra_in) last_use[id] = i;
  }
  last_use[out_id] = num_instrs;

  // Linear-scan slot assignment with exact-size free lists: a temp's slot
  // is recycled the instruction after its last read, so the workspace peaks
  // at the true live set instead of the sum of all temporaries.
  std::unordered_map<int64_t, std::vector<int64_t>> free_slots;
  int64_t workspace = 0;
  auto alloc = [&](int64_t size) {
    auto& list = free_slots[size];
    if (!list.empty()) {
      const int64_t off = list.back();
      list.pop_back();
      return off;
    }
    const int64_t off = workspace;
    workspace += size;
    return off;
  };
  std::vector<char> released(values_.size(), 0);
  for (int64_t i = 0; i < num_instrs; ++i) {
    Instr& ins = instrs_[i];
    Value& ov = values_[ins.out];
    ov.offset = alloc(ov.size);
    if (ins.scratch_size > 0) {
      ins.scratch_offset = alloc(ins.scratch_size);
      free_slots[ins.scratch_size].push_back(ins.scratch_offset);
    }
    auto release_if_dead = [&](int id) {
      if (id < 0) return;
      const Value& v = values_[id];
      // The released guard keeps a value feeding two operands of one
      // instruction from parking its slot twice (which would later hand
      // one offset to two live temporaries).
      if (v.kind == Value::kTemp && last_use[id] == i && !released[id]) {
        released[id] = 1;
        free_slots[v.size].push_back(v.offset);
      }
    };
    release_if_dead(ins.in0);
    release_if_dead(ins.in1);
    release_if_dead(ins.in2);
    for (int id : ins.extra_in) release_if_dead(id);
    if (last_use[ins.out] < 0) {  // produced but never read: free at once
      free_slots[ov.size].push_back(ov.offset);
    }
  }

  auto built = std::make_shared<Plan>();
  // Role requirements: every index role may appear on at most one gather
  // (replays supply exactly one id vector per role).
  for (const Instr& ins : instrs_) {
    if (ins.index_role < 0) continue;
    for (const Plan::RoleReq& req : built->index_roles) {
      if (req.role == ins.index_role) return nullptr;  // duplicate role
    }
    built->index_roles.push_back({ins.index_role, ins.p0});
  }
  built->output = out_id;
  built->output_size = values_[out_id].size;
  built->output_rows = values_[out_id].rows;
  built->output_cols = values_[out_id].cols;
  built->workspace_floats = workspace;
  built->values = std::move(values_);
  built->instrs = std::move(instrs_);
  // Traced temporaries can die now; the plan only pins constants.
  keepalive_.clear();
  ids_.clear();
  return built;
}

// ---------------------------------------------------------------------------
// PlanExecutor
// ---------------------------------------------------------------------------

bool PlanExecutor::Run(const Plan& plan, const BindingSet& bindings,
                       float* out) {
  for (const Plan::RoleReq& req : plan.index_roles) {
    const std::vector<int>* idx = bindings.indices[req.role];
    if (idx == nullptr || static_cast<int64_t>(idx->size()) != req.size) {
      return false;
    }
  }
  // One arena buffer per replay: after the first replay of a bucket the
  // acquire is a free-list hit, so steady state performs no allocation.
  ArenaBuffer workspace(plan.workspace_floats);
  // Pointer table reused across replays on this thread: `assign` rewrites
  // the contents in place, so after the first replay of the largest bucket
  // the table never reallocates.
  thread_local std::vector<float*> value_ptrs;
  value_ptrs.assign(plan.values.size(), nullptr);
  ExecContext ctx;
  ctx.plan = &plan;
  ctx.bindings = &bindings;
  ctx.workspace = workspace.data();
  ctx.ptrs = &value_ptrs;
  for (size_t i = 0; i < plan.values.size(); ++i) {
    const Value& v = plan.values[i];
    // const_cast is safe: exec functions only ever write kTemp slots.
    value_ptrs[i] = v.kind == Value::kConstant
                        ? const_cast<float*>(v.constant->data_ptr())
                        : workspace.data() + v.offset;
  }
  for (const Instr& ins : plan.instrs) {
    ins.exec(ins, ctx);
    if (ctx.failed) return false;
  }
  const float* result = value_ptrs[plan.output];
  std::copy(result, result + plan.output_size, out);
  return true;
}

}  // namespace plan
}  // namespace resuformer
