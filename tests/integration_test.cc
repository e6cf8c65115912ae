#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/block_classifier.h"
#include "pipeline/pipeline.h"

namespace resuformer {
namespace pipeline {
namespace {

/// Strict recursive-descent JSON parser (RFC 8259 grammar, no extensions):
/// rejects trailing commas, unquoted keys, unescaped control characters and
/// trailing garbage. Decoded strings are collected in encounter order so
/// tests can assert round-tripping of escaped text.
class StrictJsonParser {
 public:
  explicit StrictJsonParser(const std::string& text) : text_(text) {}

  /// Parses the whole input as one JSON value; false on any violation.
  bool Parse() {
    pos_ = 0;
    strings_.clear();
    if (!ParseValue()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

  const std::vector<std::string>& strings() const { return strings_; }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString(nullptr);
      default:
        return ParseLiteralOrNumber();
    }
  }

  bool ParseObject() {
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') return false;
      if (!ParseString(nullptr)) return false;
      if (!Consume(':')) return false;
      if (!ParseValue()) return false;
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray() {
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      if (!ParseValue()) return false;
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    std::string decoded;
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        strings_.push_back(decoded);
        if (out != nullptr) *out = decoded;
        return true;
      }
      if (c < 0x20) return false;  // raw control characters are invalid
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': decoded.push_back('"'); break;
          case '\\': decoded.push_back('\\'); break;
          case '/': decoded.push_back('/'); break;
          case 'b': decoded.push_back('\b'); break;
          case 'f': decoded.push_back('\f'); break;
          case 'n': decoded.push_back('\n'); break;
          case 'r': decoded.push_back('\r'); break;
          case 't': decoded.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            int code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + i];
              if (!std::isxdigit(static_cast<unsigned char>(h))) return false;
              code = code * 16 + (std::isdigit(static_cast<unsigned char>(h))
                                      ? h - '0'
                                      : (std::tolower(h) - 'a' + 10));
            }
            pos_ += 4;
            if (code > 0x7f) return false;  // tests only emit ASCII escapes
            decoded.push_back(static_cast<char>(code));
            break;
          }
          default:
            return false;
        }
        continue;
      }
      decoded.push_back(static_cast<char>(c));
      ++pos_;
    }
    return false;  // unterminated
  }

  bool ParseLiteralOrNumber() {
    static const char* kLiterals[] = {"true", "false", "null"};
    for (const char* lit : kLiterals) {
      const size_t n = std::string(lit).size();
      if (text_.compare(pos_, n, lit) == 0) {
        pos_ += n;
        return true;
      }
    }
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::vector<std::string> strings_;
};

bool Contains(const std::vector<std::string>& haystack,
              const std::string& needle) {
  for (const std::string& s : haystack) {
    if (s == needle) return true;
  }
  return false;
}

PipelineOptions TinyOptions() {
  PipelineOptions options;
  options.model.hidden = 16;
  options.model.sentence_layers = 1;
  options.model.document_layers = 1;
  options.model.num_heads = 2;
  options.model.ffn = 32;
  options.model.max_tokens_per_sentence = 12;
  options.model.max_sentences = 32;
  options.model.lstm_hidden = 12;
  options.ner.hidden = 16;
  options.ner.layers = 1;
  options.ner.num_heads = 2;
  options.ner.ffn = 32;
  options.ner.max_tokens = 60;
  options.ner.lstm_hidden = 8;
  options.vocab_size = 600;
  options.pretrain_epochs = 1;
  options.finetune.epochs = 10;
  options.finetune.patience = 10;
  options.selftrain.teacher_epochs = 5;
  options.selftrain.teacher_patience = 5;
  options.selftrain.iterations = 1;
  options.ner_data.train_sequences = 80;
  options.ner_data.val_sequences = 20;
  options.ner_data.test_sequences = 20;
  return options;
}

/// One document through the single-request Parse.
StructuredResume ParseOne(const ResuFormerPipeline& pipeline,
                          const doc::Document& document) {
  ParseRequest request;
  request.document = document;
  ParseResponse response = pipeline.Parse(request);
  EXPECT_TRUE(response.ok()) << response.status.ToString();
  return std::move(response.resume);
}

TEST(PipelineJsonTest, PrettyStringIsStrictJsonAndRoundTripsEscapes) {
  // Every class of character the escaper must handle: quotes, backslashes,
  // newlines, tabs, and a raw control byte. The old renderer spliced these
  // into the output verbatim, producing unparseable JSON.
  const std::string nasty_line =
      "C++ \"wizard\" \\ backslash\nnewline\ttab \x01 ctl";
  const std::string nasty_entity = "Acme \"Corp\" \\ Inc.";
  StructuredResume resume;
  StructuredBlock work;
  work.tag = doc::BlockTag::kWorkExp;
  work.lines = {nasty_line, "plain line"};
  work.entities.push_back(
      StructuredEntity{doc::EntityTag::kCompany, nasty_entity});
  resume.blocks.push_back(work);
  // A second block with the same tag: tags repeat in real resumes, which is
  // why blocks must be an array, not object keys.
  StructuredBlock work2;
  work2.tag = doc::BlockTag::kWorkExp;
  work2.lines = {"second stint"};
  resume.blocks.push_back(work2);

  const std::string pretty = ResuFormerPipeline::ToPrettyString(resume);
  StrictJsonParser parser(pretty);
  ASSERT_TRUE(parser.Parse()) << pretty;

  // The escaped strings must decode back to the original bytes.
  EXPECT_TRUE(Contains(parser.strings(), nasty_line)) << pretty;
  EXPECT_TRUE(Contains(parser.strings(), nasty_entity)) << pretty;
  EXPECT_TRUE(Contains(parser.strings(), "plain line"));
  EXPECT_TRUE(Contains(parser.strings(), "second stint"));
  EXPECT_TRUE(Contains(parser.strings(), "blocks"));
  EXPECT_TRUE(Contains(parser.strings(), doc::BlockTagName(work.tag)));
  EXPECT_TRUE(
      Contains(parser.strings(), doc::EntityTagName(doc::EntityTag::kCompany)));

  // Empty resume is valid JSON too.
  const std::string empty_pretty = ResuFormerPipeline::ToPrettyString({});
  StrictJsonParser empty_parser(empty_pretty);
  EXPECT_TRUE(empty_parser.Parse()) << empty_pretty;
}

TEST(PipelineIntegrationTest, EndToEndTrainAndParse) {
  resumegen::CorpusConfig ccfg;
  ccfg.pretrain_docs = 6;
  ccfg.train_docs = 10;
  ccfg.val_docs = 4;
  ccfg.test_docs = 3;
  ccfg.seed = 77;
  const resumegen::Corpus corpus = resumegen::GenerateCorpus(ccfg);

  TrainReport report;
  auto pipeline =
      ResuFormerPipeline::TrainFromCorpus(corpus, TinyOptions(), &report);
  ASSERT_NE(pipeline, nullptr);
  EXPECT_GT(report.block_val_accuracy, 0.3);  // far above the 1/17 chance
  EXPECT_GT(report.ner_val_f1, 0.1);

  const StructuredResume parsed = ParseOne(*pipeline, corpus.test[0].document);
  EXPECT_FALSE(parsed.blocks.empty());
  // At least one entity should be extracted somewhere in the resume.
  int entities = 0;
  for (const StructuredBlock& b : parsed.blocks) {
    entities += static_cast<int>(b.entities.size());
  }
  EXPECT_GT(entities, 0);

  const std::string pretty = ResuFormerPipeline::ToPrettyString(parsed);
  EXPECT_NE(pretty.find("lines"), std::string::npos);
  StrictJsonParser pretty_parser(pretty);
  EXPECT_TRUE(pretty_parser.Parse()) << pretty;

  // Save/Load round-trip: the reloaded pipeline must reproduce the same
  // parse on the same document. The checkpoint gets its own directory:
  // other test binaries write files such as vocab.txt into TempDir() too.
  const std::string dir = ::testing::TempDir() + "/pipeline_integration";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(pipeline->Save(dir).ok());
  auto loaded = ResuFormerPipeline::Load(dir, TinyOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const StructuredResume reparsed =
      ParseOne(**loaded, corpus.test[0].document);
  ASSERT_EQ(reparsed.blocks.size(), parsed.blocks.size());
  for (size_t i = 0; i < parsed.blocks.size(); ++i) {
    EXPECT_EQ(reparsed.blocks[i].tag, parsed.blocks[i].tag);
    EXPECT_EQ(reparsed.blocks[i].entities.size(),
              parsed.blocks[i].entities.size());
  }

  // Parse packs each document's sentences; at a serial pool its blocks
  // must be the per-sentence reference's: gradient-enabled emissions (one
  // forward per sentence), Viterbi through the same CRF, then block
  // segmentation.
  ThreadPool::Global().SetNumThreads(1);
  const core::BlockClassifier& classifier = (*loaded)->block_classifier();
  for (const auto& labeled : corpus.test) {
    const core::EncodedDocument encoded = core::EncodeForModel(
        labeled.document, (*loaded)->tokenizer(), classifier.config());
    ASSERT_FALSE(encoded.sentences.empty());
    const std::vector<doc::Block> want = doc::Document::BlocksFromLabels(
        classifier.crf()->Decode(classifier.Emissions(encoded, nullptr)));
    const StructuredResume packed_parse = ParseOne(**loaded, labeled.document);
    ASSERT_EQ(packed_parse.blocks.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(packed_parse.blocks[i].tag, want[i].tag);
      std::vector<std::string> lines;
      for (int s = want[i].first_sentence; s <= want[i].last_sentence; ++s) {
        lines.push_back(labeled.document.sentences[s].Text());
      }
      EXPECT_EQ(packed_parse.blocks[i].lines, lines);
    }
  }

  // ----- Int8 accuracy gate (PR 7) -----------------------------------------
  // Quantized inference must stay within a stated tolerance of fp32 on this
  // corpus: block sentence-label accuracy within kBlockAccuracyTolerance
  // (absolute), and the entity outputs — whose NER model itself never
  // quantizes, so any drift comes from block segmentation — within
  // kNerF1Tolerance of exact agreement with the fp32 parse.
  constexpr double kBlockAccuracyTolerance = 0.02;
  constexpr double kNerF1Tolerance = 0.02;

  PipelineOptions int8_options = TinyOptions();
  int8_options.model.runtime.use_int8 = true;
  auto int8_pipe = ResuFormerPipeline::Load(dir, int8_options);
  ASSERT_TRUE(int8_pipe.ok()) << int8_pipe.status().ToString();

  std::vector<core::LabeledDocument> gate_docs;
  for (const auto& labeled : corpus.val) {
    gate_docs.push_back(core::MakeLabeledDocument(
        labeled.document, (*loaded)->tokenizer(), TinyOptions().model));
  }
  for (const auto& labeled : corpus.test) {
    gate_docs.push_back(core::MakeLabeledDocument(
        labeled.document, (*loaded)->tokenizer(), TinyOptions().model));
  }
  const double fp32_acc =
      core::SentenceLabelAccuracy((*loaded)->block_classifier(), gate_docs);
  ASSERT_GT(fp32_acc, 0.0);  // sentences were scored
  const double int8_acc =
      core::SentenceLabelAccuracy((*int8_pipe)->block_classifier(), gate_docs);
  EXPECT_GE(int8_acc, fp32_acc - kBlockAccuracyTolerance)
      << "int8 block accuracy regressed beyond tolerance: fp32=" << fp32_acc
      << " int8=" << int8_acc << " delta=" << (fp32_acc - int8_acc);

  // Entity agreement: exact (block tag, entity tag, text) matches between
  // the int8 and fp32 parses, scored as F1 with fp32 as reference.
  int64_t matched = 0, int8_total = 0, fp32_total = 0;
  for (const auto& labeled : corpus.test) {
    const StructuredResume fp = ParseOne(**loaded, labeled.document);
    const StructuredResume qp = ParseOne(**int8_pipe, labeled.document);
    std::vector<std::string> fp_entities, qp_entities;
    for (const StructuredBlock& b : fp.blocks) {
      for (const StructuredEntity& e : b.entities) {
        fp_entities.push_back(doc::BlockTagName(b.tag) + "/" +
                              doc::EntityTagName(e.tag) + "/" + e.text);
      }
    }
    for (const StructuredBlock& b : qp.blocks) {
      for (const StructuredEntity& e : b.entities) {
        qp_entities.push_back(doc::BlockTagName(b.tag) + "/" +
                              doc::EntityTagName(e.tag) + "/" + e.text);
      }
    }
    std::sort(fp_entities.begin(), fp_entities.end());
    std::sort(qp_entities.begin(), qp_entities.end());
    std::vector<std::string> common;
    std::set_intersection(fp_entities.begin(), fp_entities.end(),
                          qp_entities.begin(), qp_entities.end(),
                          std::back_inserter(common));
    matched += static_cast<int64_t>(common.size());
    int8_total += static_cast<int64_t>(qp_entities.size());
    fp32_total += static_cast<int64_t>(fp_entities.size());
  }
  ASSERT_GT(fp32_total, 0);
  const double precision =
      int8_total > 0 ? static_cast<double>(matched) / int8_total : 0.0;
  const double recall = static_cast<double>(matched) / fp32_total;
  const double entity_f1 = (precision + recall) > 0
                               ? 2 * precision * recall / (precision + recall)
                               : 0.0;
  EXPECT_GE(entity_f1, 1.0 - kNerF1Tolerance)
      << "int8 entity agreement F1 drifted beyond tolerance: F1="
      << entity_f1 << " delta=" << (1.0 - entity_f1) << " (" << matched
      << " matched, " << int8_total << " int8, " << fp32_total << " fp32)";
  // Measured values recorded in EXPERIMENTS.md; printed so a gate run
  // always shows the deltas, not just on failure.
  std::cout << "[int8-gate] block accuracy fp32=" << fp32_acc
            << " int8=" << int8_acc << " entity_f1=" << entity_f1 << "\n";

  // Save wrote an architecture manifest alongside the parameters.
  std::ifstream manifest(dir + "/manifest.txt");
  ASSERT_TRUE(manifest.good());
  std::string magic;
  manifest >> magic;
  EXPECT_EQ(magic, "RFMANIFEST");

  // Loading with mismatched dimensions must fail up front with a message
  // naming the offending field, not deserialize garbage.
  PipelineOptions wrong = TinyOptions();
  wrong.model.hidden = 24;
  auto mismatched = ResuFormerPipeline::Load(dir, wrong);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mismatched.status().message().find("model_hidden"),
            std::string::npos)
      << mismatched.status().ToString();

  PipelineOptions wrong_ner = TinyOptions();
  wrong_ner.ner.lstm_hidden = 99;
  auto ner_mismatched = ResuFormerPipeline::Load(dir, wrong_ner);
  ASSERT_FALSE(ner_mismatched.ok());
  EXPECT_NE(ner_mismatched.status().message().find("ner_lstm_hidden"),
            std::string::npos)
      << ner_mismatched.status().ToString();

  // Without its manifest a checkpoint is refused, naming the missing file:
  // the options could not be checked against the saved architecture.
  ASSERT_EQ(std::remove((dir + "/manifest.txt").c_str()), 0);
  auto manifestless = ResuFormerPipeline::Load(dir, TinyOptions());
  ASSERT_FALSE(manifestless.ok());
  EXPECT_EQ(manifestless.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(manifestless.status().message().find("manifest.txt"),
            std::string::npos)
      << manifestless.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(PipelineIntegrationTest, LoadFromMissingDirectoryFails) {
  auto loaded = ResuFormerPipeline::Load("/nonexistent/path", TinyOptions());
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace pipeline
}  // namespace resuformer
