#ifndef RESUFORMER_CORE_HIERARCHICAL_ENCODER_H_
#define RESUFORMER_CORE_HIERARCHICAL_ENCODER_H_

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/config.h"
#include "doc/document.h"
#include "doc/visual_features.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/transformer.h"
#include "text/wordpiece.h"

namespace resuformer {
namespace plan {
struct Plan;
}  // namespace plan
namespace core {

/// Seven-tuple spatial layout of Eq. 2: (xmin, ymin, xmax, ymax, width,
/// height, page), each normalized to [0, 1000].
using LayoutTuple = std::array<int, 7>;

/// One sentence prepared for the model: token ids (with [CLS] prepended),
/// per-token layout tuples, the sentence-level layout tuple, and the
/// engineered visual features.
struct EncodedSentence {
  std::vector<int> token_ids;
  std::vector<LayoutTuple> token_layout;  // aligned with token_ids
  LayoutTuple sentence_layout{};
  std::vector<float> visual;  // doc::kVisualFeatureDim
};

/// A document prepared for the model (truncated to config limits).
struct EncodedDocument {
  std::vector<EncodedSentence> sentences;
  int num_pages = 1;
};

/// Converts a parsed document into model inputs: WordPiece-tokenizes each
/// sentence, normalizes coordinates (LayoutLMv2 convention) and computes the
/// visual features. Sentences/tokens beyond the config limits are truncated.
EncodedDocument EncodeForModel(const doc::Document& document,
                               const text::WordPieceTokenizer& tokenizer,
                               const ResuFormerConfig& config);

/// \brief The hierarchical multi-modal Transformer encoder (Figure 2).
///
/// Sentence level: token embedding + 1-D position + segment + 2-D layout
/// embeddings -> N-layer Transformer -> [CLS] state -> dense + L2 norm (the
/// sentence representation h_j). Document level: h_j fused with the visual
/// features v_j ("h* = [h; v]" projected back to hidden), plus sentence
/// layout / position embeddings -> M-layer Transformer -> contextual states
/// H_d. The MLLM head ties into the vocabulary projection.
///
/// Inference replays the sentence tower. In eval mode under NoGradGuard,
/// EncodeSentences runs each sentence through a static plan (tensor/plan.h)
/// traced once per token count and cached here: first build wins, a failed
/// build is cached as null, and any sentence without a usable plan sends
/// the whole document down the dynamic ops (`plan.fallbacks`). Replay is
/// bit-identical to the dynamic forward at a fixed pool width; with
/// `runtime.use_int8` the plans' constant-weight GEMMs run in int8. The
/// document tower always runs the dynamic ops. The cache is safe to read
/// from any number of threads; SetTraining drops it.
class HierarchicalEncoder : public nn::Module {
 public:
  HierarchicalEncoder(const ResuFormerConfig& config, Rng* rng);

  /// Sentence-level pass over every sentence: returns the fused two-modal
  /// sentence representations h* [m, hidden]. Replays cached sentence
  /// plans in eval mode under NoGradGuard (see the class comment).
  Tensor EncodeSentences(const EncodedDocument& document,
                         Rng* dropout_rng) const;

  /// Document-level pass. `h_star` is typically EncodeSentences output,
  /// possibly with rows replaced by mask_vector() (SCL masking). Returns
  /// contextual sentence states [m, hidden].
  Tensor EncodeDocument(const Tensor& h_star, const EncodedDocument& document,
                        Rng* dropout_rng) const;

  /// Convenience: both passes.
  Tensor Encode(const EncodedDocument& document, Rng* dropout_rng) const;

  /// Token states of one sentence [T, hidden], with `ids` overriding the
  /// stored token ids (the MLLM pass feeds masked ids here).
  Tensor SentenceTokenStates(const EncodedSentence& sentence,
                             const std::vector<int>& ids,
                             Rng* dropout_rng) const;

  /// The full sentence-level tower for one sentence: token states -> [CLS]
  /// state -> dense -> L2 norm, shaped [1, hidden]. This is the unit
  /// EncodeSentences traces into a plan once per token count.
  Tensor SentenceRepresentation(const EncodedSentence& sentence,
                                const std::vector<int>& ids,
                                Rng* dropout_rng) const;

  /// Two-modal fusion h* = proj([h; v]) for h [m, hidden] and visual
  /// features v [m, doc::kVisualFeatureDim].
  Tensor FuseVisual(const Tensor& h, const Tensor& visual) const;

  /// Stacks the per-sentence engineered visual features into a tensor
  /// [m, doc::kVisualFeatureDim].
  Tensor BuildVisualTensor(const EncodedDocument& document) const;

  /// Vocabulary logits for token states (weight-tied with the input
  /// embedding plus a learned bias).
  Tensor VocabLogits(const Tensor& token_states) const;

  /// The learned mask vector that replaces masked sentence representations
  /// in the SCL objective, shaped [1, hidden].
  Tensor mask_vector() const { return mask_vector_; }

  const ResuFormerConfig& config() const { return config_; }

  /// Also drops every cached plan. fp32 plans read the parameters' current
  /// storage, but int8 plans hold weights quantized when they were built,
  /// and weights change around mode switches (optimizer steps, snapshot
  /// restores, checkpoint loads).
  void SetTraining(bool training) override;

 private:
  Tensor LayoutEmbedding(const std::vector<LayoutTuple>& tuples) const;

  /// Sentence representations [m, hidden] replayed from the plan cache, or
  /// an undefined tensor when some sentence has no usable plan.
  Tensor ReplaySentences(const EncodedDocument& document) const;
  /// Get-or-build the plan for sentences of `sentence`'s token count. A
  /// build traces `sentence` itself; for fp32 plans that traced forward
  /// equals the replay, so its output is written to `row` and `*row_done`
  /// is set (int8 plans quantize, so `sentence` must still replay).
  std::shared_ptr<const plan::Plan> SentencePlanFor(
      const EncodedSentence& sentence, float* row, bool* row_done) const;

  ResuFormerConfig config_;
  // Sentence level.
  std::unique_ptr<nn::Embedding> token_embedding_;
  std::unique_ptr<nn::Embedding> token_position_embedding_;
  std::unique_ptr<nn::Embedding> segment_embedding_;
  std::vector<std::unique_ptr<nn::Embedding>> layout_embeddings_;  // 7 tables
  std::unique_ptr<nn::TransformerEncoder> sentence_encoder_;
  std::unique_ptr<nn::Linear> sentence_dense_;
  Tensor mlm_bias_;
  // Document level.
  std::unique_ptr<nn::Linear> fusion_;  // [h; v] -> hidden
  std::unique_ptr<nn::Embedding> sentence_position_embedding_;
  std::unique_ptr<nn::TransformerEncoder> document_encoder_;
  Tensor mask_vector_;
  // Sentence plans by token count; the mutex covers lookup and insert only,
  // plans are immutable once built.
  mutable std::mutex plan_mu_;
  mutable std::map<int, std::shared_ptr<const plan::Plan>> sentence_plans_;
};

}  // namespace core
}  // namespace resuformer

#endif  // RESUFORMER_CORE_HIERARCHICAL_ENCODER_H_
