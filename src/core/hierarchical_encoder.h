#ifndef RESUFORMER_CORE_HIERARCHICAL_ENCODER_H_
#define RESUFORMER_CORE_HIERARCHICAL_ENCODER_H_

#include <array>
#include <memory>
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
/// Inference packs the sentence tower. In eval mode under NoGradGuard,
/// EncodeSentences concatenates a document's sentences into one
/// [sum of tokens, hidden] input and runs the sentence Transformer once,
/// with the sentences' first rows as attention segments (groups of whole
/// sentences of at most kMaxPackedRows rows). Every op but attention is
/// row-wise and attention runs per segment, so the result is bit-identical
/// to one forward per sentence, which training and gradient-enabled calls
/// keep. With `runtime.use_int8` the sentence tower's Linear layers run
/// int8 in those eval-mode forwards; the document tower stays fp32. The
/// encoder holds no inference cache, so any number of threads may read it.
class HierarchicalEncoder : public nn::Module {
 public:
  HierarchicalEncoder(const ResuFormerConfig& config, Rng* rng);

  /// Sentence-level pass over every sentence: returns the fused two-modal
  /// sentence representations h* [m, hidden]. Packs the sentences in eval
  /// mode under NoGradGuard (see the class comment).
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
  /// state -> dense -> L2 norm, shaped [1, hidden]. EncodeSentences runs it
  /// per sentence outside inference.
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

 private:
  /// Token rows at most per packed forward: bounds the activations of one
  /// EncodeSentences call at kMaxPackedRows x max(hidden, ffn) floats.
  static constexpr size_t kMaxPackedRows = 2048;

  Tensor LayoutEmbedding(const std::vector<LayoutTuple>& tuples) const;
  /// Eq. 1 + Eq. 2 input of the sentence Transformer: token, position,
  /// segment and layout embeddings summed per row.
  Tensor TokenInput(const std::vector<int>& ids,
                    const std::vector<int>& positions,
                    const std::vector<LayoutTuple>& layout) const;
  /// Sentence representations [end - begin, hidden] of sentences
  /// [begin, end) from one packed forward of the sentence tower.
  Tensor PackedSentences(const EncodedDocument& document, size_t begin,
                         size_t end) const;

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
};

}  // namespace core
}  // namespace resuformer

#endif  // RESUFORMER_CORE_HIERARCHICAL_ENCODER_H_
