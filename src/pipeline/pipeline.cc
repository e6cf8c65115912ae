#include "pipeline/pipeline.h"

#include <fstream>
#include <map>
#include <utility>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "distant/dictionary.h"
#include "nn/serialize.h"
#include "tensor/arena.h"

namespace resuformer {
namespace pipeline {

namespace {

std::string ManifestPath(const std::string& directory) {
  return directory + "/manifest.txt";
}

/// Architecture fields persisted by Save and verified by Load. The value is
/// whatever the supplied options resolve to; vocab_size comes from the
/// trained tokenizer, not the (placeholder) config field.
std::vector<std::pair<std::string, int64_t>> ManifestFields(
    int vocab_size, const PipelineOptions& options) {
  const core::ResuFormerConfig& m = options.model;
  const selftrain::NerModelConfig& n = options.ner;
  return {
      {"vocab_size", vocab_size},
      {"model_hidden", m.hidden},
      {"model_sentence_layers", m.sentence_layers},
      {"model_document_layers", m.document_layers},
      {"model_num_heads", m.num_heads},
      {"model_ffn", m.ffn},
      {"model_max_tokens", m.max_tokens_per_sentence},
      {"model_max_sentences", m.max_sentences},
      {"model_layout_buckets", m.layout_buckets},
      {"model_lstm_hidden", m.lstm_hidden},
      {"ner_hidden", n.hidden},
      {"ner_layers", n.layers},
      {"ner_num_heads", n.num_heads},
      {"ner_ffn", n.ffn},
      {"ner_max_tokens", n.max_tokens},
      {"ner_lstm_hidden", n.lstm_hidden},
      {"ner_num_labels", n.num_labels},
  };
}

/// Stamps wall time and the arena hit rate over [start_ns, now] into stats.
/// The rate diffs the *calling thread's* arena counters: a parse runs
/// entirely on one thread, so the window sees only this document's
/// allocations even when a batched Parse runs documents concurrently (the
/// process-wide counters would mix every worker's traffic).
void FinalizeParseStats(int64_t start_ns,
                        const TensorArena::ThreadStats& before,
                        ParseStats* stats) {
  stats->wall_time_us =
      static_cast<double>(trace::NowNs() - start_ns) / 1000.0;
  const TensorArena::ThreadStats after = TensorArena::thread_stats();
  const int64_t hits = after.hits - before.hits;
  const int64_t misses = after.misses - before.misses;
  if (hits + misses > 0) {
    stats->arena_hit_rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
}

}  // namespace

std::unique_ptr<ResuFormerPipeline> ResuFormerPipeline::TrainFromCorpus(
    const resumegen::Corpus& corpus, const PipelineOptions& options,
    TrainReport* report) {
  auto pipeline =
      // Private ctor: make_unique cannot reach it; ownership is immediate.
      // rf-lint-allow(naked-new)
      std::unique_ptr<ResuFormerPipeline>(new ResuFormerPipeline());
  pipeline->options_ = options;
  Rng rng(options.seed);

  // Tokenizer from the pre-training corpus.
  pipeline->tokenizer_ = std::make_unique<text::WordPieceTokenizer>(
      resumegen::TrainTokenizer(corpus, options.vocab_size));
  core::ResuFormerConfig model_cfg = options.model;
  model_cfg.vocab_size = pipeline->tokenizer_->vocab().size();

  // Stage 1: pre-train the hierarchical encoder (Eq. 7).
  pipeline->block_classifier_ =
      std::make_unique<core::BlockClassifier>(model_cfg, &rng);
  std::vector<core::EncodedDocument> pretrain_docs;
  for (const resumegen::GeneratedResume& r : corpus.pretrain) {
    pretrain_docs.push_back(core::EncodeForModel(
        r.document, *pipeline->tokenizer_, model_cfg));
  }
  core::Pretrainer pretrainer(pipeline->block_classifier_->encoder(), &rng);
  core::PretrainStats pretrain_stats;
  if (!pretrain_docs.empty() && options.pretrain_epochs > 0) {
    pretrain_stats =
        pretrainer.Train(pretrain_docs, options.pretrain_epochs,
                         options.pretrain_batch, model_cfg.pretrain_lr);
  }

  // Stage 2: fine-tune the block classifier on labeled data.
  std::vector<core::LabeledDocument> train, val;
  for (const resumegen::GeneratedResume& r : corpus.train) {
    train.push_back(core::MakeLabeledDocument(
        r.document, *pipeline->tokenizer_, model_cfg));
  }
  for (const resumegen::GeneratedResume& r : corpus.val) {
    val.push_back(core::MakeLabeledDocument(r.document,
                                            *pipeline->tokenizer_,
                                            model_cfg));
  }
  const double block_acc = core::FinetuneBlockClassifier(
      pipeline->block_classifier_.get(), train, val, options.finetune, &rng);

  // Stage 3: distantly supervised NER with self-distillation.
  const distant::EntityDictionary dictionary =
      distant::BuildDictionaries(distant::DictionaryConfig{});
  const distant::NerDataset ner_data =
      distant::BuildNerDataset(options.ner_data, dictionary);
  selftrain::NerModelConfig ner_cfg = options.ner;
  ner_cfg.vocab_size = pipeline->tokenizer_->vocab().size();
  selftrain::SelfDistillTrainer trainer(ner_cfg, options.selftrain,
                                        pipeline->tokenizer_.get(), &rng);
  selftrain::SelfTrainResult result =
      trainer.Train(ner_data.train, ner_data.val);
  pipeline->ner_model_ = std::move(result.model);

  if (report != nullptr) {
    report->pretrain = pretrain_stats;
    report->block_val_accuracy = block_acc;
    report->ner_val_f1 = result.best_val_f1;
  }
  return pipeline;
}

ParseResponse ResuFormerPipeline::Parse(const ParseRequest& request) const {
  // Request-scoped span annotated with the serving id (0 outside the
  // server), so a slow-trace exemplar ties wire frames to pipeline spans.
  TRACE_SPAN_ID("pipeline.request", request.request_id);
  ParseResponse response;
  response.request_id = request.request_id;
  if (request.deadline_ns != 0 && trace::NowNs() > request.deadline_ns) {
    static metrics::Counter* deadline_counter =
        metrics::MetricsRegistry::Global().GetCounter(
            "pipeline.rejected.deadline");
    deadline_counter->Increment();
    response.status = Status::DeadlineExceeded(
        "parse deadline passed before the document was parsed");
    return response;
  }
  ParseStats stats;
  response.resume = ParseDocument(request.document, &stats);
  if (request.want_stats) {
    response.stats = stats;
    response.stats.request_id = request.request_id;
  }
  return response;
}

std::vector<ParseResponse> ResuFormerPipeline::Parse(
    const std::vector<ParseRequest>& requests) const {
  TRACE_SPAN("pipeline.parse_batch");
  std::vector<ParseResponse> out(requests.size());
  // Parallelism moves up a level for batches: each worker takes a chunk of
  // requests, and the per-request tensor kernels run inline (ParallelFor
  // from a pool worker does not nest). NoGradGuard state is thread-local,
  // so each worker needs its own guard.
  ThreadPool::Global().ParallelFor(
      static_cast<int64_t>(requests.size()),
      [&](int /*worker*/, int64_t begin, int64_t end) {
        NoGradGuard no_grad;
        for (int64_t i = begin; i < end; ++i) {
          out[i] = Parse(requests[i]);
        }
      });
  return out;
}

StructuredResume ResuFormerPipeline::ParseDocument(
    const doc::Document& document, ParseStats* stats) const {
  TRACE_SPAN("pipeline.parse");
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Counter* documents_counter =
      registry.GetCounter("pipeline.documents");
  static metrics::Counter* sentences_counter =
      registry.GetCounter("pipeline.sentences");
  static metrics::Counter* blocks_counter =
      registry.GetCounter("pipeline.blocks");
  static metrics::Counter* entities_counter =
      registry.GetCounter("pipeline.entities");
  static metrics::Histogram* parse_hist =
      registry.GetHistogram("pipeline.parse_us");
  metrics::ScopedTimerUs parse_timer(parse_hist);

  // Inference never needs the tape; without the guard every op in the
  // encoder would record parents and backward closures just to drop them.
  NoGradGuard no_grad;
  const int64_t start_ns = trace::NowNs();
  const TensorArena::ThreadStats arena_before = TensorArena::thread_stats();
  documents_counter->Increment();

  StructuredResume out;
  core::ResuFormerConfig model_cfg = options_.model;
  model_cfg.vocab_size = tokenizer_->vocab().size();
  core::EncodedDocument encoded;
  {
    TRACE_SPAN("pipeline.encode");
    encoded = core::EncodeForModel(document, *tokenizer_, model_cfg);
  }
  stats->num_sentences = static_cast<int>(encoded.sentences.size());
  sentences_counter->Increment(stats->num_sentences);
  if (encoded.sentences.empty()) {
    FinalizeParseStats(start_ns, arena_before, stats);
    return out;
  }
  std::vector<int> labels;
  {
    TRACE_SPAN("pipeline.block_classify");
    labels = block_classifier_->Predict(encoded);
  }
  std::vector<doc::Block> blocks;
  {
    TRACE_SPAN("pipeline.segment");
    blocks = doc::Document::BlocksFromLabels(labels);
  }

  selftrain::NerModelConfig ner_cfg = options_.ner;
  ner_cfg.vocab_size = tokenizer_->vocab().size();
  for (const doc::Block& block : blocks) {
    StructuredBlock sb;
    sb.tag = block.tag;
    std::vector<std::string> words;
    for (int s = block.first_sentence;
         s <= block.last_sentence && s < document.NumSentences(); ++s) {
      sb.lines.push_back(document.sentences[s].Text());
      for (const doc::Token& t : document.sentences[s].tokens) {
        words.push_back(t.word);
      }
    }
    const bool entity_bearing = block.tag == doc::BlockTag::kPInfo ||
                                block.tag == doc::BlockTag::kEduExp ||
                                block.tag == doc::BlockTag::kWorkExp ||
                                block.tag == doc::BlockTag::kProjExp;
    if (entity_bearing && !words.empty() && ner_model_ != nullptr) {
      TRACE_SPAN("pipeline.ner");
      static metrics::Counter* ner_windowed_blocks_counter =
          metrics::MetricsRegistry::Global().GetCounter(
              "pipeline.ner_windowed_blocks");
      // Blocks with more words than one NER window (max_tokens), which
      // PredictWords splits into windows and predicts window by window.
      if (static_cast<int>(words.size()) > ner_cfg.max_tokens) {
        ner_windowed_blocks_counter->Increment();
      }
      const std::vector<int> entity_labels =
          ner_model_->PredictWords(words, *tokenizer_);
      // Reconstruct entity strings from IOB runs.
      size_t i = 0;
      while (i < entity_labels.size()) {
        doc::EntityTag tag;
        bool begin;
        if (doc::ParseEntityIobLabel(entity_labels[i], &tag, &begin)) {
          std::string textval = words[i];
          size_t j = i + 1;
          doc::EntityTag tag2;
          bool begin2;
          while (j < entity_labels.size() && j < words.size() &&
                 doc::ParseEntityIobLabel(entity_labels[j], &tag2, &begin2) &&
                 !begin2 && tag2 == tag) {
            textval += " " + words[j];
            ++j;
          }
          sb.entities.push_back(StructuredEntity{tag, textval});
          i = j;
        } else {
          ++i;
        }
      }
    }
    stats->num_entities += static_cast<int>(sb.entities.size());
    out.blocks.push_back(std::move(sb));
  }
  stats->num_blocks = static_cast<int>(out.blocks.size());
  blocks_counter->Increment(stats->num_blocks);
  entities_counter->Increment(stats->num_entities);
  FinalizeParseStats(start_ns, arena_before, stats);
  return out;
}

Status ResuFormerPipeline::Save(const std::string& directory) const {
  RF_RETURN_NOT_OK(tokenizer_->vocab().Save(directory + "/vocab.txt"));
  RF_RETURN_NOT_OK(
      nn::SaveParameters(*block_classifier_, directory + "/block.bin"));
  if (ner_model_ != nullptr) {
    RF_RETURN_NOT_OK(nn::SaveParameters(*ner_model_, directory + "/ner.bin"));
  }
  std::ofstream manifest(ManifestPath(directory));
  if (!manifest) {
    return Status::IoError("cannot write " + ManifestPath(directory));
  }
  manifest << "RFMANIFEST 1\n";
  const int vocab_size = tokenizer_->vocab().size();
  for (const auto& [key, value] : ManifestFields(vocab_size, options_)) {
    manifest << key << ' ' << value << '\n';
  }
  manifest << "has_ner " << (ner_model_ != nullptr ? 1 : 0) << '\n';
  manifest.flush();
  if (!manifest) {
    return Status::IoError("failed writing " + ManifestPath(directory));
  }
  return Status::OK();
}

Result<std::unique_ptr<ResuFormerPipeline>> ResuFormerPipeline::Load(
    const std::string& directory, const PipelineOptions& options) {
  Result<text::Vocab> vocab = text::Vocab::Load(directory + "/vocab.txt");
  if (!vocab.ok()) return vocab.status();

  auto pipeline =
      // Private ctor: make_unique cannot reach it; ownership is immediate.
      // rf-lint-allow(naked-new)
      std::unique_ptr<ResuFormerPipeline>(new ResuFormerPipeline());
  pipeline->options_ = options;
  pipeline->tokenizer_ = std::make_unique<text::WordPieceTokenizer>(
      std::move(vocab).ValueOrDie());

  // Verify the checkpoint's manifest against the supplied options before
  // touching the parameter files: a dimension mismatch would otherwise
  // surface as a cryptic tensor-count/shape error (or load garbage).
  std::ifstream manifest(ManifestPath(directory));
  if (!manifest) {
    return Status::FailedPrecondition("cannot open " + ManifestPath(directory) +
                                      ": a checkpoint needs its manifest");
  }
  std::string magic;
  int version = 0;
  manifest >> magic >> version;
  if (magic != "RFMANIFEST") {
    return Status::FailedPrecondition(
        ManifestPath(directory) + " is not a checkpoint manifest");
  }
  if (version != 1) {
    return Status::FailedPrecondition(
        "unsupported manifest format version " + std::to_string(version) +
        " in " + ManifestPath(directory) + " (this build reads version 1)");
  }
  std::map<std::string, int64_t> stored;
  std::string key;
  int64_t value = 0;
  while (manifest >> key >> value) stored[key] = value;
  const int vocab_size = pipeline->tokenizer_->vocab().size();
  for (const auto& [field, expected] : ManifestFields(vocab_size, options)) {
    auto it = stored.find(field);
    if (it == stored.end()) {
      return Status::FailedPrecondition(
          "checkpoint manifest in " + directory + " is missing field '" +
          field + "'");
    }
    if (it->second != expected) {
      return Status::FailedPrecondition(
          "checkpoint in " + directory + " was saved with " + field + "=" +
          std::to_string(it->second) + " but the supplied options expect " +
          field + "=" + std::to_string(expected) +
          "; refusing to load a mismatched architecture");
    }
  }
  auto ner_it = stored.find("has_ner");
  const bool has_ner = ner_it == stored.end() || ner_it->second != 0;

  Rng rng(options.seed);  // architecture init; weights overwritten below
  core::ResuFormerConfig model_cfg = options.model;
  model_cfg.vocab_size = pipeline->tokenizer_->vocab().size();
  pipeline->block_classifier_ =
      std::make_unique<core::BlockClassifier>(model_cfg, &rng);
  Status s = nn::LoadParameters(pipeline->block_classifier_.get(),
                                directory + "/block.bin");
  if (!s.ok()) return s;
  pipeline->block_classifier_->SetTraining(false);

  if (has_ner) {
    selftrain::NerModelConfig ner_cfg = options.ner;
    ner_cfg.vocab_size = pipeline->tokenizer_->vocab().size();
    pipeline->ner_model_ =
        std::make_unique<selftrain::NerModel>(ner_cfg, &rng);
    s = nn::LoadParameters(pipeline->ner_model_.get(),
                           directory + "/ner.bin");
    if (!s.ok()) return s;
    pipeline->ner_model_->SetTraining(false);
  }
  return pipeline;
}

std::string ResuFormerPipeline::ToPrettyString(const StructuredResume& resume) {
  // Blocks are an array (tags repeat: two kWorkExp blocks are common), and
  // every string routes through AppendJsonQuoted, so the result is strictly
  // valid JSON — resume text with quotes, backslashes or newlines cannot
  // break the framing.
  std::string out = "{\n  \"blocks\": [";
  for (size_t b = 0; b < resume.blocks.size(); ++b) {
    const StructuredBlock& block = resume.blocks[b];
    out.append(b == 0 ? "\n" : ",\n");
    out.append("    {\n      \"tag\": ");
    AppendJsonQuoted(&out, doc::BlockTagName(block.tag));
    out.append(",\n      \"lines\": [");
    for (size_t i = 0; i < block.lines.size(); ++i) {
      if (i > 0) out.append(", ");
      AppendJsonQuoted(&out, block.lines[i]);
    }
    out.append("],\n      \"entities\": [");
    for (size_t i = 0; i < block.entities.size(); ++i) {
      if (i > 0) out.append(", ");
      out.append("{\"tag\": ");
      AppendJsonQuoted(&out, doc::EntityTagName(block.entities[i].tag));
      out.append(", \"text\": ");
      AppendJsonQuoted(&out, block.entities[i].text);
      out.push_back('}');
    }
    out.append("]\n    }");
  }
  out.append(resume.blocks.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return out;
}

}  // namespace pipeline
}  // namespace resuformer
