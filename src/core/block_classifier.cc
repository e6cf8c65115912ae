#include "core/block_classifier.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"
#include "doc/block_tags.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace resuformer {
namespace core {

BlockClassifier::BlockClassifier(const ResuFormerConfig& config, Rng* rng)
    : config_(config) {
  ApplyRuntimeOptions(config.runtime);
  encoder_ = std::make_unique<HierarchicalEncoder>(config, rng);
  bilstm_ =
      std::make_unique<nn::BiLstm>(config.hidden, config.lstm_hidden, rng);
  projection_ = std::make_unique<nn::Mlp>(
      std::vector<int>{2 * config.lstm_hidden, doc::kNumIobLabels}, rng);
  crf_ = std::make_unique<crf::LinearCrf>(doc::kNumIobLabels, rng);
  RegisterModule(encoder_.get());
  RegisterModule(bilstm_.get());
  RegisterModule(projection_.get());
  RegisterModule(crf_.get());
}

Tensor BlockClassifier::Emissions(const EncodedDocument& document,
                                  Rng* dropout_rng) const {
  Tensor contextual = encoder_->Encode(document, dropout_rng);
  Tensor lstm_out = bilstm_->Forward(contextual);  // Eq. 8
  return projection_->Forward(lstm_out);
}

Tensor BlockClassifier::Loss(const LabeledDocument& example,
                             Rng* dropout_rng) const {
  RF_CHECK_EQ(example.document.sentences.size(), example.labels.size());
  Tensor emissions = Emissions(example.document, dropout_rng);
  return crf_->NegLogLikelihood(emissions, example.labels);
}

std::vector<int> BlockClassifier::Predict(
    const EncodedDocument& document) const {
  TRACE_SPAN("block_classifier.predict");
  NoGradGuard guard;
  if (document.sentences.empty()) return {};
  Tensor emissions = Emissions(document, nullptr);
  return crf_->Decode(emissions);
}

std::vector<Tensor> BlockClassifier::HeadParameters() const {
  std::vector<Tensor> head = bilstm_->Parameters();
  for (const Tensor& p : projection_->Parameters()) head.push_back(p);
  for (const Tensor& p : crf_->Parameters()) head.push_back(p);
  return head;
}

LabeledDocument MakeLabeledDocument(const doc::Document& document,
                                    const text::WordPieceTokenizer& tokenizer,
                                    const ResuFormerConfig& config) {
  LabeledDocument out;
  out.document = EncodeForModel(document, tokenizer, config);
  out.labels = document.sentence_labels;
  out.labels.resize(out.document.sentences.size(), doc::kOutsideLabel);
  return out;
}

double SentenceLabelAccuracy(const BlockClassifier& model,
                             const std::vector<LabeledDocument>& docs) {
  int correct = 0, total = 0;
  for (const LabeledDocument& ex : docs) {
    if (ex.document.sentences.empty()) continue;
    const std::vector<int> pred = model.Predict(ex.document);
    for (size_t i = 0; i < pred.size() && i < ex.labels.size(); ++i) {
      correct += pred[i] == ex.labels[i];
      ++total;
    }
  }
  return total > 0 ? static_cast<double>(correct) / total : 0.0;
}

double FinetuneBlockClassifier(BlockClassifier* model,
                               const std::vector<LabeledDocument>& train,
                               const std::vector<LabeledDocument>& val,
                               const FinetuneOptions& options, Rng* rng) {
  const ResuFormerConfig& cfg = model->encoder()->config();
  nn::Adam adam(model->Parameters(), cfg.finetune_encoder_lr, 0.9f, 0.999f,
                1e-8f, cfg.weight_decay);
  adam.SetLearningRateFor(model->HeadParameters(), cfg.finetune_head_lr);

  double best_val = -1.0;
  int bad_epochs = 0;
  nn::ParameterSnapshot best;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    model->SetTraining(true);
    const std::vector<int> order =
        rng->Permutation(static_cast<int>(train.size()));
    double epoch_loss = 0.0;
    int steps = 0;
    for (int idx : order) {
      const LabeledDocument& ex = train[idx];
      if (ex.document.sentences.empty()) continue;
      adam.ZeroGrad();
      Tensor loss = model->Loss(ex, rng);
      loss.Backward();
      adam.ClipGradNorm(cfg.grad_clip);
      adam.Step();
      epoch_loss += loss.item();
      ++steps;
    }
    model->SetTraining(false);
    const double val_acc = SentenceLabelAccuracy(*model, val);
    if (options.verbose) {
      RF_LOG(Info) << "finetune epoch " << epoch << " loss="
                   << (steps ? epoch_loss / steps : 0.0)
                   << " val_acc=" << val_acc;
    }
    if (val_acc > best_val) {
      best_val = val_acc;
      bad_epochs = 0;
      best.Capture(model->Parameters());
    } else if (++bad_epochs >= options.patience) {
      break;  // early stopping
    }
  }
  if (best_val >= 0.0) {
    RF_CHECK(best.Restore(model->Parameters()).ok());
  }
  model->SetTraining(false);
  return best_val;
}

}  // namespace core
}  // namespace resuformer
