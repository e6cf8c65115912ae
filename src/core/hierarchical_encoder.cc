#include "core/hierarchical_encoder.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/trace.h"
#include "doc/geometry.h"
#include "tensor/ops.h"

namespace resuformer {
namespace core {

namespace {

/// Bucket ids of layout feature `feature` across `tuples`: [0, 1000]
/// coordinates into [0, buckets), the rows the layout embedding gathers.
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
  // use_int8 covers the sentence tower's Linear layers; the document tower
  // and the fusion stay fp32.
  sentence_encoder_->SetInt8(config.runtime.use_int8);
  sentence_dense_->SetInt8(config.runtime.use_int8);

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
    Tensor emb = layout_embeddings_[f]->Forward(ids);
    total = total.defined() ? ops::Add(total, emb) : emb;
  }
  return total;
}

Tensor HierarchicalEncoder::TokenInput(
    const std::vector<int>& ids, const std::vector<int>& positions,
    const std::vector<LayoutTuple>& layout) const {
  const std::vector<int> segments(ids.size(), 0);  // single-segment: [A]
  Tensor x = token_embedding_->Forward(ids);                    // Eq. 1
  x = ops::Add(x, token_position_embedding_->Forward(positions));
  x = ops::Add(x, segment_embedding_->Forward(segments));
  return ops::Add(x, LayoutEmbedding(layout));                  // Eq. 2
}

Tensor HierarchicalEncoder::SentenceTokenStates(
    const EncodedSentence& sentence, const std::vector<int>& ids,
    Rng* dropout_rng) const {
  RF_CHECK_EQ(ids.size(), sentence.token_layout.size());
  std::vector<int> positions(ids.size());
  std::iota(positions.begin(), positions.end(), 0);
  return sentence_encoder_->Forward(
      TokenInput(ids, positions, sentence.token_layout), {}, dropout_rng);
}

Tensor HierarchicalEncoder::SentenceRepresentation(
    const EncodedSentence& sentence, const std::vector<int>& ids,
    Rng* dropout_rng) const {
  Tensor states = SentenceTokenStates(sentence, ids, dropout_rng);
  // [CLS] state -> dense -> L2 normalize (Figure 2).
  Tensor cls = ops::SliceRows(states, 0, 1);
  return ops::L2NormalizeRows(sentence_dense_->Forward(cls));
}

Tensor HierarchicalEncoder::PackedSentences(const EncodedDocument& document,
                                            size_t begin, size_t end) const {
  std::vector<int> ids, positions, offsets;
  std::vector<LayoutTuple> layout;
  for (size_t s = begin; s < end; ++s) {
    const EncodedSentence& sentence = document.sentences[s];
    offsets.push_back(static_cast<int>(ids.size()));
    ids.insert(ids.end(), sentence.token_ids.begin(), sentence.token_ids.end());
    for (size_t i = 0; i < sentence.token_ids.size(); ++i) {
      positions.push_back(static_cast<int>(i));
    }
    layout.insert(layout.end(), sentence.token_layout.begin(),
                  sentence.token_layout.end());
  }
  Tensor states = sentence_encoder_->Forward(
      TokenInput(ids, positions, layout), offsets, nullptr);
  // The [CLS] rows -> dense -> L2 normalize, as SentenceRepresentation.
  Tensor cls = ops::GatherRows(states, offsets);
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

Tensor HierarchicalEncoder::EncodeSentences(const EncodedDocument& document,
                                            Rng* dropout_rng) const {
  TRACE_SPAN("encoder.sentences");
  RF_CHECK(!document.sentences.empty());
  Tensor h;  // [m, hidden]
  if (!training() && !NoGradGuard::GradEnabled()) {
    // Inference packs whole sentences, at most kMaxPackedRows token rows
    // per forward (a longer sentence runs alone).
    const size_t m = document.sentences.size();
    std::vector<Tensor> groups;
    size_t begin = 0, rows = 0;
    for (size_t s = 0; s < m; ++s) {
      const size_t t_len = document.sentences[s].token_ids.size();
      if (s > begin && rows + t_len > kMaxPackedRows) {
        groups.push_back(PackedSentences(document, begin, s));
        begin = s;
        rows = 0;
      }
      rows += t_len;
    }
    groups.push_back(PackedSentences(document, begin, m));
    h = groups.size() == 1 ? groups[0] : ops::ConcatRows(groups);
  } else {
    // Training keeps one forward per sentence, so dropout draws and
    // gradient sums follow the sentence order.
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
  return document_encoder_->Forward(x, {}, dropout_rng);
}

Tensor HierarchicalEncoder::Encode(const EncodedDocument& document,
                                   Rng* dropout_rng) const {
  return EncodeDocument(EncodeSentences(document, dropout_rng), document,
                        dropout_rng);
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
