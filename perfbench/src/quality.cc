#include "src/quality.h"

#include <algorithm>
#include <map>

namespace perfbench {

namespace doc = resuformer::doc;
namespace pipeline = resuformer::pipeline;

std::vector<int> SentenceLabelsFromParse(const doc::Document& document,
                                         const pipeline::StructuredResume& parsed) {
  const int n = document.NumSentences();
  std::vector<int> labels(static_cast<size_t>(n), doc::kOutsideLabel);
  int next = 0;
  for (const pipeline::StructuredBlock& block : parsed.blocks) {
    const int len = static_cast<int>(block.lines.size());
    for (int start = next; start + len <= n; ++start) {
      bool match = true;
      for (int i = 0; i < len && match; ++i) {
        match = document.sentences[start + i].Text() == block.lines[i];
      }
      if (!match) continue;
      for (int i = 0; i < len; ++i) {
        labels[start + i] = doc::IobLabel(block.tag, i == 0);
      }
      next = start + len;
      break;
    }
  }
  return labels;
}

std::vector<Entity> GoldEntities(
    const doc::Document& document,
    const std::vector<std::vector<int>>& entity_labels) {
  std::vector<std::string> words;
  std::vector<int> labels;
  for (int s = 0; s < document.NumSentences(); ++s) {
    const auto& tokens = document.sentences[s].tokens;
    for (size_t t = 0; t < tokens.size(); ++t) {
      words.push_back(tokens[t].word);
      labels.push_back(s < static_cast<int>(entity_labels.size()) &&
                               t < entity_labels[s].size()
                           ? entity_labels[s][t]
                           : 0);
    }
  }
  std::vector<Entity> out;
  for (const resuformer::eval::EntitySpan& span :
       resuformer::eval::ExtractEntitySpans(labels)) {
    std::string text = words[span.start];
    for (int i = span.start + 1; i < span.end; ++i) text += " " + words[i];
    out.emplace_back(span.tag, std::move(text));
  }
  return out;
}

void QualityScorer::Add(const doc::Document& gold_document,
                        const std::vector<std::vector<int>>& gold_entity_labels,
                        const pipeline::StructuredResume& parsed) {
  ++documents_;
  const std::vector<int> predicted =
      SentenceLabelsFromParse(gold_document, parsed);
  const int n = gold_document.NumSentences();
  for (int s = 0; s < n; ++s) {
    ++sentences_;
    if (s < max_sentences_ && predicted[s] == gold_document.sentence_labels[s]) {
      ++sentences_correct_;
    }
  }

  std::map<Entity, int64_t> gold_counts;
  for (Entity& e : GoldEntities(gold_document, gold_entity_labels)) {
    ++gold_counts[std::move(e)];
    ++entities_gold_;
  }
  int64_t predicted_here = 0;
  for (const pipeline::StructuredBlock& block : parsed.blocks) {
    for (const pipeline::StructuredEntity& e : block.entities) {
      ++predicted_here;
      auto it = gold_counts.find(Entity(e.tag, e.text));
      if (it != gold_counts.end() && it->second > 0) {
        --it->second;
        ++entities_correct_;
      }
    }
  }
  entities_predicted_ += predicted_here;
  if (predicted_here == 0) ++empty_documents_;
}

double QualityScorer::block_accuracy() const {
  return sentences_ == 0 ? 0.0
                         : static_cast<double>(sentences_correct_) /
                               static_cast<double>(sentences_);
}

resuformer::eval::Prf QualityScorer::entity_prf() const {
  return resuformer::eval::MakePrf(entities_correct_, entities_predicted_,
                                   entities_gold_);
}

double QualityScorer::entities_per_doc() const {
  return documents_ == 0 ? 0.0
                         : static_cast<double>(entities_predicted_) /
                               static_cast<double>(documents_);
}

}  // namespace perfbench
