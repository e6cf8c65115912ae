#include "baselines/hibert_crf.h"

#include <algorithm>

#include "common/logging.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "tensor/ops.h"
#include "text/vocab.h"

namespace resuformer {
namespace baselines {

HiBertCrf::HiBertCrf(const Config& config,
                     const text::WordPieceTokenizer* tokenizer, Rng* rng)
    : config_(config), tokenizer_(tokenizer) {
  token_embedding_ =
      std::make_unique<nn::Embedding>(config.vocab_size, config.hidden, rng);
  token_position_ = std::make_unique<nn::Embedding>(
      config.max_tokens_per_sentence, config.hidden, rng);
  nn::TransformerConfig sent_cfg{config.hidden, config.sentence_layers,
                                 config.num_heads, config.ffn,
                                 config.dropout};
  sentence_encoder_ =
      std::make_unique<nn::TransformerEncoder>(sent_cfg, rng);
  sentence_position_ = std::make_unique<nn::Embedding>(config.max_sentences,
                                                       config.hidden, rng);
  nn::TransformerConfig doc_cfg{config.hidden, config.document_layers,
                                config.num_heads, config.ffn, config.dropout};
  document_encoder_ = std::make_unique<nn::TransformerEncoder>(doc_cfg, rng);
  head_ =
      std::make_unique<nn::Linear>(config.hidden, doc::kNumIobLabels, rng);
  crf_ = std::make_unique<crf::LinearCrf>(doc::kNumIobLabels, rng);
  RegisterModule(token_embedding_.get());
  RegisterModule(token_position_.get());
  RegisterModule(sentence_encoder_.get());
  RegisterModule(sentence_position_.get());
  RegisterModule(document_encoder_.get());
  RegisterModule(head_.get());
  RegisterModule(crf_.get());
}

HiBertCrf::Encoded HiBertCrf::EncodeDoc(const doc::Document& document) const {
  Encoded out;
  const bool has_labels =
      document.sentence_labels.size() == document.sentences.size();
  for (int s = 0; s < document.NumSentences() &&
                  s < config_.max_sentences;
       ++s) {
    std::vector<int> ids = {text::kClsId};
    for (const doc::Token& t : document.sentences[s].tokens) {
      for (int id : tokenizer_->Encode(t.word)) {
        if (static_cast<int>(ids.size()) >=
            config_.max_tokens_per_sentence) {
          break;
        }
        ids.push_back(id);
      }
      if (static_cast<int>(ids.size()) >= config_.max_tokens_per_sentence) {
        break;
      }
    }
    out.sentences.push_back(std::move(ids));
    out.labels.push_back(has_labels ? document.sentence_labels[s]
                                    : doc::kOutsideLabel);
  }
  return out;
}

Tensor HiBertCrf::Emissions(const Encoded& doc, Rng* dropout_rng) const {
  std::vector<Tensor> reps;
  reps.reserve(doc.sentences.size());
  for (const std::vector<int>& ids : doc.sentences) {
    std::vector<int> positions(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      positions[i] = static_cast<int>(i);
    }
    Tensor x = ops::Add(token_embedding_->Forward(ids),
                        token_position_->Forward(positions));
    Tensor states = sentence_encoder_->Forward(x, {}, dropout_rng);
    reps.push_back(ops::SliceRows(states, 0, 1));  // [CLS]
  }
  Tensor h = ops::ConcatRows(reps);
  std::vector<int> sentence_positions(doc.sentences.size());
  for (size_t i = 0; i < doc.sentences.size(); ++i) {
    sentence_positions[i] =
        std::min(static_cast<int>(i), config_.max_sentences - 1);
  }
  h = ops::Add(h, sentence_position_->Forward(sentence_positions));
  Tensor contextual = document_encoder_->Forward(h, {}, dropout_rng);
  return head_->Forward(contextual);
}

void HiBertCrf::Fit(const std::vector<const doc::Document*>& train,
                    const std::vector<const doc::Document*>& val, Rng* rng) {
  std::vector<Encoded> train_docs, val_docs;
  for (const doc::Document* d : train) train_docs.push_back(EncodeDoc(*d));
  for (const doc::Document* d : val) val_docs.push_back(EncodeDoc(*d));

  nn::Adam adam(Parameters(), config_.lr, 0.9f, 0.999f, 1e-8f,
                config_.weight_decay);
  auto val_accuracy = [&]() {
    NoGradGuard guard;
    int correct = 0, total = 0;
    for (const Encoded& d : val_docs) {
      if (d.sentences.empty()) continue;
      const std::vector<int> pred = crf_->Decode(Emissions(d, nullptr));
      for (size_t i = 0; i < pred.size(); ++i) {
        correct += pred[i] == d.labels[i];
        ++total;
      }
    }
    return total ? static_cast<double>(correct) / total : 0.0;
  };

  nn::ParameterSnapshot best_params;
  double best = -1.0;
  int bad = 0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    SetTraining(true);
    const std::vector<int> order =
        rng->Permutation(static_cast<int>(train_docs.size()));
    for (int idx : order) {
      const Encoded& d = train_docs[idx];
      if (d.sentences.empty()) continue;
      adam.ZeroGrad();
      Tensor loss = crf_->NegLogLikelihood(Emissions(d, rng), d.labels);
      loss.Backward();
      adam.ClipGradNorm(config_.grad_clip);
      adam.Step();
    }
    SetTraining(false);
    const double acc = val_accuracy();
    if (acc > best) {
      best = acc;
      bad = 0;
      best_params.Capture(Parameters());
    } else if (++bad >= config_.patience) {
      break;
    }
  }
  if (best >= 0.0) {
    RF_CHECK(best_params.Restore(Parameters()).ok());
  }
  SetTraining(false);
}

std::vector<int> HiBertCrf::LabelSentences(
    const doc::Document& document) const {
  NoGradGuard guard;
  const Encoded d = EncodeDoc(document);
  if (d.sentences.empty()) {
    return std::vector<int>(document.NumSentences(), doc::kOutsideLabel);
  }
  std::vector<int> labels = crf_->Decode(Emissions(d, nullptr));
  labels.resize(document.NumSentences(), doc::kOutsideLabel);
  return labels;
}

}  // namespace baselines
}  // namespace resuformer
