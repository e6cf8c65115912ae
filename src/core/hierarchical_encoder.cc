#include "core/hierarchical_encoder.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "doc/geometry.h"
#include "tensor/ops.h"
#include "tensor/plan.h"

namespace resuformer {
namespace core {

namespace {

struct PlanMetrics {
  metrics::Counter* cache_hits;
  metrics::Counter* cache_misses;
  metrics::Counter* builds;
  metrics::Counter* fallbacks;
  metrics::Histogram* replay_us;
};

PlanMetrics& Metrics() {
  static PlanMetrics m = [] {
    auto& reg = metrics::MetricsRegistry::Global();
    return PlanMetrics{reg.GetCounter("plan.cache_hits"),
                       reg.GetCounter("plan.cache_misses"),
                       reg.GetCounter("plan.builds"),
                       reg.GetCounter("plan.fallbacks"),
                       reg.GetHistogram("plan.replay_us")};
  }();
  return m;
}

/// Bucket ids of layout feature `feature` across `tuples`: [0, 1000]
/// coordinates into [0, buckets). The layout embedding gathers these, and
/// a sentence-plan replay binds them.
void FillLayoutIds(const std::vector<LayoutTuple>& tuples, int feature,
                   int buckets, std::vector<int>* ids) {
  ids->resize(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    (*ids)[i] = std::clamp(tuples[i][feature] * buckets / 1001, 0, buckets - 1);
  }
}

LayoutTuple MakeLayoutTuple(const doc::BBox& box, float page_width,
                            float page_height, int page, int num_pages) {
  LayoutTuple t;
  t[0] = doc::NormalizeCoord(box.x0, page_width);
  t[1] = doc::NormalizeCoord(box.y0, page_height);
  t[2] = doc::NormalizeCoord(box.x1, page_width);
  t[3] = doc::NormalizeCoord(box.y1, page_height);
  t[4] = doc::NormalizeCoord(box.width(), page_width);
  t[5] = doc::NormalizeCoord(box.height(), page_height);
  t[6] = num_pages > 0 ? std::min(page * 1000 / std::max(num_pages, 1), 1000)
                       : 0;
  return t;
}

}  // namespace

EncodedDocument EncodeForModel(const doc::Document& document,
                               const text::WordPieceTokenizer& tokenizer,
                               const ResuFormerConfig& config) {
  EncodedDocument out;
  out.num_pages = document.num_pages;
  const int max_sentences = config.max_sentences;
  const int max_tokens = config.max_tokens_per_sentence;

  for (const doc::Sentence& sentence : document.sentences) {
    if (static_cast<int>(out.sentences.size()) >= max_sentences) break;
    EncodedSentence enc;
    enc.sentence_layout =
        MakeLayoutTuple(sentence.box, document.page_width,
                        document.page_height, sentence.page,
                        document.num_pages);
    enc.visual = doc::ComputeVisualFeatures(
        sentence, document.page_width, document.page_height,
        document.num_pages);
    // [CLS] carries the sentence-level layout.
    enc.token_ids.push_back(text::kClsId);
    enc.token_layout.push_back(enc.sentence_layout);
    for (const doc::Token& token : sentence.tokens) {
      const LayoutTuple tuple =
          MakeLayoutTuple(token.box, document.page_width,
                          document.page_height, token.page,
                          document.num_pages);
      for (int id : tokenizer.Encode(token.word)) {
        if (static_cast<int>(enc.token_ids.size()) >= max_tokens) break;
        enc.token_ids.push_back(id);
        enc.token_layout.push_back(tuple);
      }
      if (static_cast<int>(enc.token_ids.size()) >= max_tokens) break;
    }
    out.sentences.push_back(std::move(enc));
  }
  return out;
}

HierarchicalEncoder::HierarchicalEncoder(const ResuFormerConfig& config,
                                         Rng* rng)
    : config_(config) {
  ApplyRuntimeOptions(config.runtime);
  const int d = config.hidden;
  token_embedding_ =
      std::make_unique<nn::Embedding>(config.vocab_size, d, rng);
  token_position_embedding_ = std::make_unique<nn::Embedding>(
      config.max_tokens_per_sentence, d, rng);
  segment_embedding_ = std::make_unique<nn::Embedding>(2, d, rng);
  for (int i = 0; i < 7; ++i) {
    layout_embeddings_.push_back(
        std::make_unique<nn::Embedding>(config.layout_buckets, d, rng));
    RegisterModule(layout_embeddings_.back().get());
  }
  nn::TransformerConfig sent_cfg{d, config.sentence_layers, config.num_heads,
                                 config.ffn, config.dropout};
  sentence_encoder_ = std::make_unique<nn::TransformerEncoder>(sent_cfg, rng);
  sentence_dense_ = std::make_unique<nn::Linear>(d, d, rng);
  mlm_bias_ = RegisterParameter(Tensor::Zeros({config.vocab_size}));

  fusion_ =
      std::make_unique<nn::Linear>(d + doc::kVisualFeatureDim, d, rng);
  sentence_position_embedding_ =
      std::make_unique<nn::Embedding>(config.max_sentences, d, rng);
  nn::TransformerConfig doc_cfg{d, config.document_layers, config.num_heads,
                                config.ffn, config.dropout};
  document_encoder_ = std::make_unique<nn::TransformerEncoder>(doc_cfg, rng);
  mask_vector_ = RegisterParameter(Tensor::Randn({1, d}, rng, 0.02f));

  RegisterModule(token_embedding_.get());
  RegisterModule(token_position_embedding_.get());
  RegisterModule(segment_embedding_.get());
  RegisterModule(sentence_encoder_.get());
  RegisterModule(sentence_dense_.get());
  RegisterModule(fusion_.get());
  RegisterModule(sentence_position_embedding_.get());
  RegisterModule(document_encoder_.get());
}

Tensor HierarchicalEncoder::LayoutEmbedding(
    const std::vector<LayoutTuple>& tuples) const {
  // Sum of the seven per-feature embeddings (Eq. 2's concatenation followed
  // by projection, fused into additive tables of full width).
  std::vector<int> ids;
  Tensor total;
  for (int f = 0; f < 7; ++f) {
    FillLayoutIds(tuples, f, config_.layout_buckets, &ids);
    // Capture point: layout bucket ids vary per document, so a plan trace
    // rebinds this gather under the per-feature role.
    plan::AnnotateNextGather(plan::kRoleLayout0 + f);
    Tensor emb = layout_embeddings_[f]->Forward(ids);
    total = total.defined() ? ops::Add(total, emb) : emb;
  }
  return total;
}

Tensor HierarchicalEncoder::SentenceTokenStates(
    const EncodedSentence& sentence, const std::vector<int>& ids,
    Rng* dropout_rng) const {
  RF_CHECK_EQ(ids.size(), sentence.token_layout.size());
  const int t_len = static_cast<int>(ids.size());
  std::vector<int> positions(t_len);
  for (int i = 0; i < t_len; ++i) positions[i] = i;
  std::vector<int> segments(t_len, 0);  // single-segment sentences: [A]

  // Capture point: token ids are the replay-variable input of a sentence
  // plan. Positions and segments are T-determined, so their gathers stay
  // literal in the trace.
  plan::AnnotateNextGather(plan::kRoleTokenIds);
  Tensor x = token_embedding_->Forward(ids);                    // Eq. 1
  x = ops::Add(x, token_position_embedding_->Forward(positions));
  x = ops::Add(x, segment_embedding_->Forward(segments));
  x = ops::Add(x, LayoutEmbedding(sentence.token_layout));      // Eq. 2
  return sentence_encoder_->Forward(x, Tensor(), dropout_rng);
}

Tensor HierarchicalEncoder::SentenceRepresentation(
    const EncodedSentence& sentence, const std::vector<int>& ids,
    Rng* dropout_rng) const {
  Tensor states = SentenceTokenStates(sentence, ids, dropout_rng);
  // [CLS] state -> dense -> L2 normalize (Figure 2).
  Tensor cls = ops::SliceRows(states, 0, 1);
  return ops::L2NormalizeRows(sentence_dense_->Forward(cls));
}

Tensor HierarchicalEncoder::FuseVisual(const Tensor& h,
                                       const Tensor& visual) const {
  return fusion_->Forward(ops::ConcatCols({h, visual}));
}

Tensor HierarchicalEncoder::BuildVisualTensor(
    const EncodedDocument& document) const {
  const int m = static_cast<int>(document.sentences.size());
  Tensor visual = Tensor::Zeros({m, doc::kVisualFeatureDim});
  for (int i = 0; i < m; ++i) {
    const auto& v = document.sentences[i].visual;
    for (int j = 0; j < doc::kVisualFeatureDim; ++j) {
      visual.at(i, j) = v[j];
    }
  }
  return visual;
}

std::shared_ptr<const plan::Plan> HierarchicalEncoder::SentencePlanFor(
    const EncodedSentence& sentence, float* row, bool* row_done) const {
  *row_done = false;
  const int t_len = static_cast<int>(sentence.token_ids.size());
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    auto it = sentence_plans_.find(t_len);
    if (it != sentence_plans_.end()) {
      Metrics().cache_hits->Increment();
      return it->second;
    }
  }
  Metrics().cache_misses->Increment();
  TRACE_SPAN("plan.build");
  std::shared_ptr<const plan::Plan> built;
  {
    plan::Recorder recorder;
    if (config_.runtime.use_int8) recorder.EnableInt8();
    const Tensor traced =
        SentenceRepresentation(sentence, sentence.token_ids, nullptr);
    built = recorder.Finish(traced);
    if (built != nullptr && !config_.runtime.use_int8) {
      std::copy(traced.data(), traced.data() + traced.size(), row);
      *row_done = true;
    }
  }
  if (built != nullptr) Metrics().builds->Increment();
  // A failed build is cached as null, so a bucket the recorder cannot
  // cover pays the trace once, not per document.
  std::lock_guard<std::mutex> lock(plan_mu_);
  auto [it, inserted] = sentence_plans_.emplace(t_len, built);
  return inserted ? built : it->second;  // first build wins
}

Tensor HierarchicalEncoder::ReplaySentences(
    const EncodedDocument& document) const {
  TRACE_SPAN("plan.replay");
  const int m = static_cast<int>(document.sentences.size());
  const int d = config_.hidden;
  Tensor h = Tensor::Zeros({m, d});
  std::vector<int> layout_ids[plan::kNumLayoutFeatures];
  plan::BindingSet bindings;
  for (int f = 0; f < plan::kNumLayoutFeatures; ++f) {
    bindings.indices[plan::kRoleLayout0 + f] = &layout_ids[f];
  }
  for (int i = 0; i < m; ++i) {
    const EncodedSentence& sentence = document.sentences[i];
    float* row = h.data() + static_cast<int64_t>(i) * d;
    bool row_done = false;
    std::shared_ptr<const plan::Plan> sentence_plan =
        SentencePlanFor(sentence, row, &row_done);
    if (sentence_plan == nullptr) return Tensor();
    if (row_done) continue;
    bindings.indices[plan::kRoleTokenIds] = &sentence.token_ids;
    for (int f = 0; f < plan::kNumLayoutFeatures; ++f) {
      FillLayoutIds(sentence.token_layout, f, config_.layout_buckets,
                    &layout_ids[f]);
    }
    metrics::ScopedTimerUs timer(Metrics().replay_us);
    if (!plan::PlanExecutor::Run(*sentence_plan, bindings, row)) {
      return Tensor();
    }
  }
  return h;
}

Tensor HierarchicalEncoder::EncodeSentences(const EncodedDocument& document,
                                            Rng* dropout_rng) const {
  TRACE_SPAN("encoder.sentences");
  RF_CHECK(!document.sentences.empty());
  // Inference replays; training, gradient-enabled forwards and documents
  // the plans cannot cover run the dynamic ops.
  Tensor h;  // [m, hidden]
  if (!training() && !NoGradGuard::GradEnabled()) {
    h = ReplaySentences(document);
    if (!h.defined()) Metrics().fallbacks->Increment();
  }
  if (!h.defined()) {
    std::vector<Tensor> reps;
    reps.reserve(document.sentences.size());
    for (const EncodedSentence& sentence : document.sentences) {
      reps.push_back(
          SentenceRepresentation(sentence, sentence.token_ids, dropout_rng));
    }
    h = ops::ConcatRows(reps);
  }
  // Two-modal fusion h* = proj([h; v]).
  return FuseVisual(h, BuildVisualTensor(document));
}

Tensor HierarchicalEncoder::EncodeDocument(const Tensor& h_star,
                                           const EncodedDocument& document,
                                           Rng* dropout_rng) const {
  TRACE_SPAN("encoder.document");
  const int m = h_star.rows();
  RF_CHECK_EQ(m, static_cast<int>(document.sentences.size()));
  std::vector<int> positions(m);
  std::vector<LayoutTuple> tuples(m);
  for (int i = 0; i < m; ++i) {
    positions[i] = std::min(i, config_.max_sentences - 1);
    tuples[i] = document.sentences[i].sentence_layout;
  }
  Tensor x = ops::Add(h_star, sentence_position_embedding_->Forward(positions));
  x = ops::Add(x, LayoutEmbedding(tuples));
  return document_encoder_->Forward(x, Tensor(), dropout_rng);
}

Tensor HierarchicalEncoder::Encode(const EncodedDocument& document,
                                   Rng* dropout_rng) const {
  return EncodeDocument(EncodeSentences(document, dropout_rng), document,
                        dropout_rng);
}

void HierarchicalEncoder::SetTraining(bool training) {
  nn::Module::SetTraining(training);
  std::lock_guard<std::mutex> lock(plan_mu_);
  sentence_plans_.clear();
}

Tensor HierarchicalEncoder::VocabLogits(const Tensor& token_states) const {
  // Weight tying: logits = states * E^T + b (transpose-free kernel — the
  // vocab-sized transpose would be the largest temporary in pre-training).
  Tensor logits =
      ops::MatMulTransposedB(token_states, token_embedding_->weight());
  return ops::Add(logits, mlm_bias_);
}

}  // namespace core
}  // namespace resuformer
