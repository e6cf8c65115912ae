#include "selftrain/ner_model.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"
#include "tensor/ops.h"
#include "text/vocab.h"

namespace resuformer {
namespace selftrain {

std::vector<int> EncodeWordsForNer(const std::vector<std::string>& words,
                                   const text::WordPieceTokenizer& tokenizer,
                                   const NerModelConfig& config) {
  std::vector<int> ids;
  ids.reserve(std::min(words.size(), static_cast<size_t>(config.max_tokens)));
  for (const std::string& w : words) {
    if (static_cast<int>(ids.size()) >= config.max_tokens) break;
    const std::vector<int> pieces = tokenizer.Encode(w);
    ids.push_back(pieces.empty() ? text::kUnkId : pieces[0]);
  }
  if (ids.empty()) ids.push_back(text::kUnkId);
  return ids;
}

NerModel::NerModel(const NerModelConfig& config, Rng* rng) : config_(config) {
  token_embedding_ =
      std::make_unique<nn::Embedding>(config.vocab_size, config.hidden, rng);
  position_embedding_ =
      std::make_unique<nn::Embedding>(config.max_tokens, config.hidden, rng);
  nn::TransformerConfig enc_cfg{config.hidden, config.layers,
                                config.num_heads, config.ffn, config.dropout};
  encoder_ = std::make_unique<nn::TransformerEncoder>(enc_cfg, rng);
  bilstm_ =
      std::make_unique<nn::BiLstm>(config.hidden, config.lstm_hidden, rng);
  head_ = std::make_unique<nn::Mlp>(
      std::vector<int>{2 * config.lstm_hidden, config.num_labels}, rng);
  RegisterModule(token_embedding_.get());
  RegisterModule(position_embedding_.get());
  RegisterModule(encoder_.get());
  RegisterModule(bilstm_.get());
  RegisterModule(head_.get());
}

Tensor NerModel::ContextualStates(const std::vector<int>& token_ids,
                                  Rng* dropout_rng) const {
  RF_CHECK(!token_ids.empty());
  RF_CHECK_LE(static_cast<int>(token_ids.size()), config_.max_tokens);
  std::vector<int> positions(token_ids.size());
  for (size_t i = 0; i < token_ids.size(); ++i) {
    positions[i] = static_cast<int>(i);
  }
  Tensor x = ops::Add(token_embedding_->Forward(token_ids),
                      position_embedding_->Forward(positions));
  Tensor contextual = encoder_->Forward(x, {}, dropout_rng);
  return bilstm_->Forward(contextual);
}

Tensor NerModel::Logits(const std::vector<int>& token_ids,
                        Rng* dropout_rng) const {
  return head_->Forward(ContextualStates(token_ids, dropout_rng));
}

Tensor NerModel::Probabilities(const std::vector<int>& token_ids) const {
  NoGradGuard guard;
  return ops::Softmax(Logits(token_ids, nullptr));
}

std::vector<int> NerModel::Predict(const std::vector<int>& token_ids) const {
  TRACE_SPAN("ner.predict");
  NoGradGuard guard;
  Tensor logits = Logits(token_ids, nullptr);
  std::vector<int> labels(logits.rows());
  for (int t = 0; t < logits.rows(); ++t) {
    int best = 0;
    for (int c = 1; c < logits.cols(); ++c) {
      if (logits.at(t, c) > logits.at(t, best)) best = c;
    }
    labels[t] = best;
  }
  return labels;
}

std::vector<int> NerModel::PredictWords(
    const std::vector<std::string>& words,
    const text::WordPieceTokenizer& tokenizer) const {
  std::vector<int> labels;
  labels.reserve(words.size());
  const size_t window = static_cast<size_t>(config_.max_tokens);
  for (size_t begin = 0; begin < words.size(); begin += window) {
    const size_t end = std::min(begin + window, words.size());
    std::vector<int> ids;
    ids.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const std::vector<int> pieces = tokenizer.Encode(words[i]);
      ids.push_back(pieces.empty() ? text::kUnkId : pieces[0]);
    }
    const std::vector<int> chunk = Predict(ids);
    labels.insert(labels.end(), chunk.begin(), chunk.end());
  }
  return labels;
}

std::vector<Tensor> NerModel::HeadParameters() const {
  std::vector<Tensor> head = bilstm_->Parameters();
  for (const Tensor& p : head_->Parameters()) head.push_back(p);
  return head;
}

}  // namespace selftrain
}  // namespace resuformer
