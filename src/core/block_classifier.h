#ifndef RESUFORMER_CORE_BLOCK_CLASSIFIER_H_
#define RESUFORMER_CORE_BLOCK_CLASSIFIER_H_

#include <memory>
#include <vector>

#include "core/hierarchical_encoder.h"
#include "crf/linear_crf.h"
#include "nn/lstm.h"
#include "nn/mlp.h"

namespace resuformer {
namespace core {

/// A labeled example: encoded document plus one gold IOB block label per
/// (kept) sentence.
struct LabeledDocument {
  EncodedDocument document;
  std::vector<int> labels;
};

/// Fine-tuning options (Section IV-A3; learning rates from the paper's
/// implementation details, scaled per DESIGN.md).
struct FinetuneOptions {
  int epochs = 8;
  int patience = 3;        // early stopping on validation F1
  bool verbose = false;
};

/// \brief ResuFormer's resume block classifier: hierarchical encoder ->
/// BiLSTM -> MLP -> linear-chain CRF (Eq. 8), Viterbi at inference.
class BlockClassifier : public nn::Module {
 public:
  BlockClassifier(const ResuFormerConfig& config, Rng* rng);

  /// Emission scores [m, kNumIobLabels] for the document's sentences.
  Tensor Emissions(const EncodedDocument& document, Rng* dropout_rng) const;

  /// Sentence-CRF loss of the gold labels.
  Tensor Loss(const LabeledDocument& example, Rng* dropout_rng) const;

  /// Viterbi-decoded IOB labels (inference; no autograd).
  std::vector<int> Predict(const EncodedDocument& document) const;

  HierarchicalEncoder* encoder() { return encoder_.get(); }
  const HierarchicalEncoder* encoder() const { return encoder_.get(); }

  // Task-head access for callers that run the Emissions chain stage by
  // stage (encoder -> BiLSTM -> projection -> CRF Viterbi), such as the
  // benchmark's per-stage timing.
  const nn::BiLstm* bilstm() const { return bilstm_.get(); }
  const nn::Mlp* projection() const { return projection_.get(); }
  const crf::LinearCrf* crf() const { return crf_.get(); }
  const ResuFormerConfig& config() const { return config_; }

  /// Parameters of the task head only (BiLSTM + MLP + CRF), which fine-tune
  /// at a higher learning rate than the encoder.
  std::vector<Tensor> HeadParameters() const;

 private:
  ResuFormerConfig config_;
  std::unique_ptr<HierarchicalEncoder> encoder_;
  std::unique_ptr<nn::BiLstm> bilstm_;
  std::unique_ptr<nn::Mlp> projection_;
  std::unique_ptr<crf::LinearCrf> crf_;
};

/// Encodes a parsed document and pairs it with (truncated) gold labels.
LabeledDocument MakeLabeledDocument(const doc::Document& document,
                                    const text::WordPieceTokenizer& tokenizer,
                                    const ResuFormerConfig& config);

/// Sentence-level micro-F1 against gold labels (used for early stopping).
double SentenceLabelAccuracy(const BlockClassifier& model,
                             const std::vector<LabeledDocument>& docs);

/// Fine-tunes `model` on `train`, early-stopping on `val` accuracy; returns
/// the best validation accuracy reached. Uses the paper's two learning-rate
/// groups (encoder vs head).
double FinetuneBlockClassifier(BlockClassifier* model,
                               const std::vector<LabeledDocument>& train,
                               const std::vector<LabeledDocument>& val,
                               const FinetuneOptions& options, Rng* rng);

}  // namespace core
}  // namespace resuformer

#endif  // RESUFORMER_CORE_BLOCK_CLASSIFIER_H_
