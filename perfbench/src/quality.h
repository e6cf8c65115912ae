#ifndef PERFBENCH_SRC_QUALITY_H_
#define PERFBENCH_SRC_QUALITY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "doc/block_tags.h"
#include "doc/document.h"
#include "eval/entity_metrics.h"
#include "pipeline/pipeline.h"

namespace perfbench {

using Entity = std::pair<resuformer::doc::EntityTag, std::string>;

/// Per-sentence IOB block labels implied by a parse: each output block is
/// matched, in order, to the next run of sentences whose text equals its
/// lines; its first sentence gets B-, the rest I-, and every sentence no
/// block covers gets O.
std::vector<int> SentenceLabelsFromParse(
    const resuformer::doc::Document& document,
    const resuformer::pipeline::StructuredResume& parsed);

/// Gold (tag, text) entities: the IOB runs of the per-token gold labels read
/// across the whole document in reading order, each entity's words joined by
/// single spaces.
std::vector<Entity> GoldEntities(
    const resuformer::doc::Document& document,
    const std::vector<std::vector<int>>& entity_labels);

/// \brief Scores parses against resumegen gold.
///
///  * block accuracy: share of gold sentences whose implied IOB label equals
///    the gold label. Sentences past `max_sentences` are cut by the encoder
///    and count as wrong.
///  * entity micro-F1 over (tag, text) pairs, matched as multisets per
///    document and combined with eval::MakePrf.
class QualityScorer {
 public:
  explicit QualityScorer(int max_sentences) : max_sentences_(max_sentences) {}

  void Add(const resuformer::doc::Document& gold_document,
           const std::vector<std::vector<int>>& gold_entity_labels,
           const resuformer::pipeline::StructuredResume& parsed);

  double block_accuracy() const;
  resuformer::eval::Prf entity_prf() const;
  double entities_per_doc() const;
  int64_t documents() const { return documents_; }
  int64_t documents_without_entities() const { return empty_documents_; }

 private:
  int max_sentences_;
  int64_t documents_ = 0;
  int64_t empty_documents_ = 0;
  int64_t sentences_ = 0;
  int64_t sentences_correct_ = 0;
  int64_t entities_correct_ = 0;
  int64_t entities_predicted_ = 0;
  int64_t entities_gold_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_QUALITY_H_
