#include "src/workloads.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/block_classifier.h"
#include "doc/document.h"
#include "pipeline/pipeline.h"
#include "serve/endpoint.h"
#include "serve/framing.h"
#include "serve/server.h"
#include "serve/text_document.h"
#include "src/inputs.h"
#include "src/open_loop.h"
#include "src/quality.h"
#include "src/spans.h"
#include "src/stats.h"
#include "tensor/tensor.h"
#include "text/vocab.h"

namespace perfbench {

void RunReport::Line(const char* format, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  lines.emplace_back(buffer);
}

namespace {

namespace core = resuformer::core;
namespace doc = resuformer::doc;
namespace metrics = resuformer::metrics;
namespace pipeline = resuformer::pipeline;
namespace serve = resuformer::serve;
namespace text = resuformer::text;
using resuformer::Result;
using resuformer::RuntimeOptions;
using resuformer::Status;
using HistogramValue = metrics::MetricsSnapshot::HistogramValue;

// serve_open offers a third of the seed's ~36 docs/s socket capacity.
constexpr double kServeRatePerS = 12.0;
constexpr int kWarmupDocs = 8;
constexpr int kBatchChunk = 64;
// The traced pass decomposes this many documents of the run's inputs.
constexpr int kServeDecomposeDocs = 96;
constexpr int kBatchDecomposeDocs = 2 * kBatchChunk;
// Stage rows must sum to within this share of the measured parse time.
constexpr double kClosureTolerance = 0.05;
// A working model: below what the shipped demo model reaches on these inputs
// (about 0.58 and 0.52), far above what a broken one does.
constexpr double kMinBlockAccuracy = 0.45;
constexpr double kMinEntityF1 = 0.4;

// paper_dims: the paper's architecture, random weights from a fixed seed,
// on two-page resumes of a fixed size class so Time/Resume is measured at a
// stated input size.
constexpr uint64_t kPaperWeightSeed = 41;
constexpr int kPaperPages = 2;
constexpr int kPaperMinWordpieces = 380;
constexpr int kPaperMaxWordpieces = 420;
constexpr int kPaperWarmupSentences = 12;
constexpr int kPaperCycles = 2;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Mirrors DemoPipelineOptions in examples/resuformer_cli.cpp, the options
// `resuformer_cli train` saved the checkpoint with; Load verifies the
// architecture fields against the checkpoint manifest.
pipeline::PipelineOptions DemoPipelineOptions(const RuntimeOptions& runtime) {
  pipeline::PipelineOptions options;
  options.model.runtime = runtime;
  options.pretrain_epochs = 2;
  options.finetune.epochs = 10;
  options.finetune.patience = 4;
  options.selftrain.teacher_epochs = 6;
  options.selftrain.iterations = 3;
  options.ner_data.train_sequences = 300;
  options.ner_data.val_sequences = 50;
  options.ner_data.test_sequences = 50;
  return options;
}

std::unique_ptr<pipeline::ResuFormerPipeline> LoadPipeline(
    const RunOptions& options, RunReport* report) {
  auto loaded = pipeline::ResuFormerPipeline::Load(
      options.model_dir, DemoPipelineOptions(options.runtime));
  if (!loaded.ok()) {
    report->Fail("loading " + options.model_dir + ": " +
                 loaded.status().ToString());
    return nullptr;
  }
  return std::move(loaded).ValueOrDie();
}

std::vector<pipeline::ParseRequest> RequestsFromTexts(
    const std::vector<std::string>& texts, bool want_stats) {
  std::vector<pipeline::ParseRequest> requests(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    requests[i].document = serve::DocumentFromText(texts[i]);
    requests[i].want_stats = want_stats;
  }
  return requests;
}

std::vector<std::string> Texts(const std::vector<ResumeInput>& inputs) {
  std::vector<std::string> texts;
  texts.reserve(inputs.size());
  for (const ResumeInput& in : inputs) texts.push_back(in.text);
  return texts;
}

// --- registry reads ---------------------------------------------------------

/// Always-on structural counters, read straight from the registry.
struct Counters {
  int64_t dispatches = 0;
  int64_t contended_inline = 0;
  int64_t gemm_calls = 0;
  int64_t gemm_flops = 0;
  int64_t arena_hits = 0;
  int64_t arena_misses = 0;

  static Counters Read() {
    auto& registry = metrics::MetricsRegistry::Global();
    Counters c;
    c.dispatches =
        registry.GetCounter("threadpool.parallel_for.dispatches")->value();
    c.contended_inline =
        registry.GetCounter("threadpool.parallel_for.contended_inline")->value();
    c.gemm_calls = registry.GetCounter("ops.gemm_nn.calls")->value() +
                   registry.GetCounter("ops.gemm_nt.calls")->value() +
                   registry.GetCounter("ops.gemm_tn.calls")->value();
    c.gemm_flops = registry.GetCounter("ops.gemm.forward_flops")->value();
    c.arena_hits = registry.GetCounter("arena.hits")->value();
    c.arena_misses = registry.GetCounter("arena.misses")->value();
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    d.dispatches = dispatches - o.dispatches;
    d.contended_inline = contended_inline - o.contended_inline;
    d.gemm_calls = gemm_calls - o.gemm_calls;
    d.gemm_flops = gemm_flops - o.gemm_flops;
    d.arena_hits = arena_hits - o.arena_hits;
    d.arena_misses = arena_misses - o.arena_misses;
    return d;
  }

  Counters& operator+=(const Counters& o) {
    dispatches += o.dispatches;
    contended_inline += o.contended_inline;
    gemm_calls += o.gemm_calls;
    gemm_flops += o.gemm_flops;
    arena_hits += o.arena_hits;
    arena_misses += o.arena_misses;
    return *this;
  }
};

/// Samples a histogram gained between two registry snapshots.
HistogramValue HistogramDelta(const metrics::MetricsSnapshot& before,
                              const metrics::MetricsSnapshot& after,
                              const std::string& name) {
  auto find = [&name](const metrics::MetricsSnapshot& s) -> const HistogramValue* {
    for (const HistogramValue& h : s.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  };
  HistogramValue delta;
  delta.name = name;
  const HistogramValue* a = find(after);
  if (a == nullptr) return delta;
  const HistogramValue* b = find(before);
  std::map<int64_t, int64_t> prior;
  if (b != nullptr) {
    for (const auto& bucket : b->buckets) prior[bucket.upper_bound] = bucket.count;
    delta.sum = a->sum - b->sum;
  } else {
    delta.sum = a->sum;
  }
  for (const auto& bucket : a->buckets) {
    const int64_t n = bucket.count - prior[bucket.upper_bound];
    if (n > 0) {
      delta.buckets.push_back({bucket.upper_bound, n});
      delta.count += n;
    }
  }
  return delta;
}

// --- set-up -------------------------------------------------------------------

/// Runs `setup` once and times it from process start to ready. Reports the
/// median over this process and the earlier set-up-only processes.
template <typename T, typename SetupFn>
std::unique_ptr<T> TimedSetup(const RunOptions& options, RunReport* report,
                              SetupFn setup) {
  std::unique_ptr<T> ready = setup();
  if (ready == nullptr) return nullptr;
  report->setup_s =
      static_cast<double>(NowNs() - options.process_start_ns) / 1e9;
  std::vector<double> seconds = options.other_setups_s;
  seconds.push_back(report->setup_s);
  std::string each;
  for (double s : seconds) {
    each += (each.empty() ? "" : " / ") + std::to_string(s);
  }
  report->Line("set-up: median %.3f s over %zu processes (%s s)",
               Median(seconds), seconds.size(), each.c_str());
  if (!options.trace && !options.setup_only) {
    report->Add("setup_s", Median(seconds), "s");
  }
  return ready;
}

/// One serving stack: the loaded pipeline, a ParseServer with the default
/// ServerOptions, and a loopback SocketEndpoint in front of it. Members are
/// destroyed in reverse order: the endpoint stops, the server drains, and
/// only then does the pipeline go.
struct Daemon {
  std::unique_ptr<pipeline::ResuFormerPipeline> pipeline;
  std::unique_ptr<serve::ParseServer> server;
  std::unique_ptr<serve::SocketEndpoint> endpoint;
  int port = 0;
};

std::unique_ptr<Daemon> StartDaemon(const RunOptions& options,
                                    const std::vector<std::string>& warmup,
                                    RunReport* report) {
  auto daemon = std::make_unique<Daemon>();
  daemon->pipeline = LoadPipeline(options, report);
  if (daemon->pipeline == nullptr) return nullptr;
  daemon->server = std::make_unique<serve::ParseServer>(
      daemon->pipeline.get(), serve::ServerOptions::FromRuntime(options.runtime));
  daemon->endpoint = std::make_unique<serve::SocketEndpoint>(daemon->server.get());
  const Result<int> port = daemon->endpoint->Start(0);
  if (!port.ok()) {
    report->Fail("starting the endpoint: " + port.status().ToString());
    return nullptr;
  }
  daemon->port = *port;
  // Warm-up: one burst through the socket fills every worker's arena.
  auto outcomes = RunOpenLoop(daemon->port,
                              std::vector<int64_t>(warmup.size(), 0), warmup,
                              Nproc());
  if (!outcomes.ok()) {
    report->Fail("warm-up: " + outcomes.status().ToString());
    return nullptr;
  }
  for (const RequestOutcome& o : *outcomes) {
    if (!o.ok) {
      report->Fail("warm-up request failed: " + o.body);
      return nullptr;
    }
  }
  return daemon;
}

// --- output checks and quality -------------------------------------------------

/// Direct parses of `texts` through Parse(vector), in kBatchChunk chunks.
std::vector<pipeline::ParseResponse> DirectParse(
    const pipeline::ResuFormerPipeline& p, const std::vector<std::string>& texts) {
  std::vector<pipeline::ParseResponse> out;
  out.reserve(texts.size());
  for (size_t first = 0; first < texts.size(); first += kBatchChunk) {
    const size_t last = std::min(texts.size(), first + kBatchChunk);
    std::vector<std::string> chunk(texts.begin() + first, texts.begin() + last);
    for (pipeline::ParseResponse& r : p.Parse(RequestsFromTexts(chunk, false))) {
      out.push_back(std::move(r));
    }
  }
  return out;
}

void ScoreQuality(const std::vector<ResumeInput>& inputs,
                  const std::vector<pipeline::ParseResponse>& parses,
                  QualityScorer* scorer) {
  for (size_t i = 0; i < inputs.size() && i < parses.size(); ++i) {
    scorer->Add(inputs[i].gold.document, inputs[i].gold.entity_labels,
                parses[i].resume);
  }
}

void ReportQuality(const QualityScorer& q, const RunOptions& options,
                   RunReport* report) {
  const resuformer::eval::Prf prf = q.entity_prf();
  report->Line("quality over %lld resumes: block_acc %.4f, entity_f1 %.4f "
               "(P %.4f R %.4f), %.2f entities/resume, %lld resumes with none",
               static_cast<long long>(q.documents()), q.block_accuracy(),
               prf.f1, prf.precision, prf.recall, q.entities_per_doc(),
               static_cast<long long>(q.documents_without_entities()));
  if (!(q.entities_per_doc() > 0.0)) {
    report->Fail("the parser extracted no entities");
  }
  if (q.block_accuracy() < kMinBlockAccuracy) {
    report->Fail("block accuracy below the working-model floor");
  }
  if (prf.f1 < kMinEntityF1) {
    report->Fail("entity F1 below the working-model floor");
  }
  if (!options.trace) {
    report->Add("block_acc", q.block_accuracy(), "ratio");
    report->Add("entity_f1", prf.f1, "ratio");
  }
}

// --- traced decomposition -------------------------------------------------------

/// Per-document tallies of the traced decomposition pass.
struct Decomposition {
  int docs = 0;
  int64_t sentences = 0;
  int64_t wordpieces = 0;
  int64_t ner_blocks = 0;
  int64_t ner_words = 0;
  int64_t ner_windowed_blocks = 0;
  int64_t entities = 0;
  Counters chain;         // counter deltas over the decomposed chains
  int64_t classify_flops = 0;  // GEMM flops inside block classification
  std::vector<double> parse_ms;  // serial Parse per document
  std::vector<std::string> replies;  // ToPrettyString of each Parse
};

bool EntityBearing(doc::BlockTag tag) {
  return tag == doc::BlockTag::kPInfo || tag == doc::BlockTag::kEduExp ||
         tag == doc::BlockTag::kWorkExp || tag == doc::BlockTag::kProjExp;
}

/// Block classification from outside: EncodeSentences -> EncodeDocument ->
/// BiLSTM + projection -> CRF Viterbi, one span per call.
std::vector<int> TracedClassify(const core::BlockClassifier& classifier,
                                const core::EncodedDocument& encoded,
                                int64_t doc_id, SpanRecorder* rec,
                                Decomposition* d) {
  const int64_t flops_before = Counters::Read().gemm_flops;
  resuformer::Tensor h_star, contextual, emissions;
  {
    ScopedSpan span(rec, "core.sentence_tower", doc_id);
    h_star = classifier.encoder()->EncodeSentences(encoded, nullptr);
  }
  {
    ScopedSpan span(rec, "core.document_tower", doc_id);
    contextual = classifier.encoder()->EncodeDocument(h_star, encoded, nullptr);
  }
  {
    ScopedSpan span(rec, "core.head", doc_id);
    emissions =
        classifier.projection()->Forward(classifier.bilstm()->Forward(contextual));
  }
  d->classify_flops += Counters::Read().gemm_flops - flops_before;
  ScopedSpan span(rec, "crf.viterbi", doc_id);
  return classifier.crf()->Decode(emissions);
}

/// The pipeline's parse, re-composed from its modules' public functions
/// with a span around each call; returns the same StructuredResume Parse
/// does.
pipeline::StructuredResume TracedParse(const pipeline::ResuFormerPipeline& p,
                                       const doc::Document& document,
                                       int64_t doc_id, SpanRecorder* rec,
                                       Decomposition* d) {
  resuformer::NoGradGuard no_grad;
  const core::BlockClassifier& classifier = p.block_classifier();
  pipeline::StructuredResume out;
  core::EncodedDocument encoded;
  {
    ScopedSpan span(rec, "core.encode", doc_id);
    encoded = core::EncodeForModel(document, p.tokenizer(), classifier.config());
  }
  d->sentences += static_cast<int64_t>(encoded.sentences.size());
  for (const core::EncodedSentence& s : encoded.sentences) {
    d->wordpieces += static_cast<int64_t>(s.token_ids.size());
  }
  if (encoded.sentences.empty()) return out;
  const std::vector<int> labels =
      TracedClassify(classifier, encoded, doc_id, rec, d);
  std::vector<doc::Block> blocks;
  {
    ScopedSpan span(rec, "doc.segment", doc_id);
    blocks = doc::Document::BlocksFromLabels(labels);
  }
  const int ner_window = p.ner_model().config().max_tokens;
  for (const doc::Block& block : blocks) {
    pipeline::StructuredBlock sb;
    sb.tag = block.tag;
    std::vector<std::string> words;
    for (int s = block.first_sentence;
         s <= block.last_sentence && s < document.NumSentences(); ++s) {
      sb.lines.push_back(document.sentences[s].Text());
      for (const doc::Token& t : document.sentences[s].tokens) {
        words.push_back(t.word);
      }
    }
    if (EntityBearing(block.tag) && !words.empty()) {
      ++d->ner_blocks;
      d->ner_words += static_cast<int64_t>(words.size());
      if (static_cast<int>(words.size()) > ner_window) ++d->ner_windowed_blocks;
      std::vector<int> entity_labels;
      {
        ScopedSpan span(rec, "selftrain.ner", doc_id);
        entity_labels = p.ner_model().PredictWords(words, p.tokenizer());
      }
      size_t i = 0;
      while (i < entity_labels.size()) {
        doc::EntityTag tag;
        bool begin;
        if (!doc::ParseEntityIobLabel(entity_labels[i], &tag, &begin)) {
          ++i;
          continue;
        }
        std::string value = words[i];
        size_t j = i + 1;
        doc::EntityTag next_tag;
        bool next_begin;
        while (j < entity_labels.size() && j < words.size() &&
               doc::ParseEntityIobLabel(entity_labels[j], &next_tag,
                                        &next_begin) &&
               !next_begin && next_tag == tag) {
          value += " " + words[j];
          ++j;
        }
        sb.entities.push_back(pipeline::StructuredEntity{tag, value});
        i = j;
      }
    }
    d->entities += static_cast<int64_t>(sb.entities.size());
    out.blocks.push_back(std::move(sb));
  }
  return out;
}

/// For each text: DocumentFromText, a timed serial Parse, the traced chain
/// (alternating which of the two runs first), and ToPrettyString. Checks that
/// the chain reproduces Parse's output.
void Decompose(const pipeline::ResuFormerPipeline& p,
               const std::vector<std::string>& texts, SpanRecorder* rec,
               Decomposition* d, RunReport* report) {
  for (size_t i = 0; i < texts.size(); ++i) {
    const int64_t doc_id = static_cast<int64_t>(i);
    ScopedSpan root(rec, "document", doc_id);
    pipeline::ParseRequest request;
    {
      ScopedSpan span(rec, "serve.text_document", doc_id);
      request.document = serve::DocumentFromText(texts[i]);
    }
    pipeline::ParseResponse direct;
    pipeline::StructuredResume traced;
    auto run_parse = [&] {
      ScopedSpan span(rec, "pipeline.parse", doc_id);
      const int64_t start = NowNs();
      direct = p.Parse(request);
      d->parse_ms.push_back(Ms(NowNs() - start));
    };
    auto run_chain = [&] {
      ScopedSpan span(rec, "chain", doc_id);
      const Counters before = Counters::Read();
      traced = TracedParse(p, request.document, doc_id, rec, d);
      d->chain += Counters::Read() - before;
    };
    if (i % 2 == 0) {
      run_parse();
      run_chain();
    } else {
      run_chain();
      run_parse();
    }
    std::string reply;
    {
      ScopedSpan span(rec, "pipeline.render", doc_id);
      reply = pipeline::ResuFormerPipeline::ToPrettyString(direct.resume);
    }
    if (!direct.ok() ||
        pipeline::ResuFormerPipeline::ToPrettyString(traced) != reply) {
      report->Fail("traced decomposition of document " + std::to_string(i) +
                   " differs from Parse");
    }
    d->replies.push_back(std::move(reply));
    ++d->docs;
  }
}

/// Self times of a decomposition pass.
struct StageTimes {
  std::map<std::string, int64_t> self_ns;
  int64_t parse_ns = 0;         // the timed serial parses
  int64_t unattributed_ns = 0;  // parse_ns minus the stage rows

  int64_t Self(const char* name) const {
    auto it = self_ns.find(name);
    return it == self_ns.end() ? 0 : it->second;
  }
};

// The stage rows inside Parse; their sum is checked against the timed parses.
const char* const kStages[] = {"core.encode",         "core.sentence_tower",
                               "core.document_tower", "core.head",
                               "crf.viterbi",         "doc.segment",
                               "selftrain.ner"};

StageTimes ComputeStages(const Decomposition& d, const SpanRecorder& rec) {
  StageTimes t;
  t.self_ns = rec.SelfTimeNs();
  for (double ms : d.parse_ms) t.parse_ns += static_cast<int64_t>(ms * 1e6);
  t.unattributed_ns = t.parse_ns;
  for (const char* stage : kStages) t.unattributed_ns -= t.Self(stage);
  return t;
}

double ClosureGap(const StageTimes& t) {
  return std::abs(Ratio(static_cast<double>(t.unattributed_ns),
                        static_cast<double>(t.parse_ns)));
}

/// Prints the stage table and checks that the stage rows inside Parse close
/// on the timed serial parses.
StageTimes StageTable(const Decomposition& d, const SpanRecorder& rec,
                      RunReport* report) {
  const StageTimes t = ComputeStages(d, rec);
  const double n = static_cast<double>(d.docs);
  report->Line("stage table over %d decomposed parses (self time per parse; "
               "share of serial Parse):", d.docs);
  for (const char* stage : kStages) {
    report->Line("  %-22s %10.1f us  %5.1f%%", stage, Us(t.Self(stage)) / n,
                 100.0 * Ratio(static_cast<double>(t.Self(stage)),
                               static_cast<double>(t.parse_ns)));
  }
  report->Line("  %-22s %10.1f us  %5.1f%%", "(unattributed)",
               Us(t.unattributed_ns) / n,
               100.0 * Ratio(static_cast<double>(t.unattributed_ns),
                             static_cast<double>(t.parse_ns)));
  report->Line("  %-22s %10.1f us   (sum of stage rows %.1f us)",
               "serial Parse", Us(t.parse_ns) / n,
               Us(t.parse_ns - t.unattributed_ns) / n);
  report->Line("  outside Parse: %s %.1f us, %s %.1f us, benchmark glue %.1f us",
               "serve.text_document", Us(t.Self("serve.text_document")) / n,
               "pipeline.render", Us(t.Self("pipeline.render")) / n,
               Us(t.Self("chain")) / n);
  if (ClosureGap(t) > kClosureTolerance) {
    report->Fail("stage rows miss the traced Parse time by " +
                 std::to_string(100.0 * ClosureGap(t)) + "%");
  }
  return t;
}

/// The stage table and the per-layer metrics of the demo pipeline's chain.
void ReportDecomposition(const Decomposition& d, const SpanRecorder& rec,
                         RunReport* report) {
  const StageTimes t = StageTable(d, rec, report);
  auto self_ns = [&t](const char* name) { return t.Self(name); };
  const double n = static_cast<double>(d.docs);
  const int64_t parse_ns = t.parse_ns;
  const int64_t unattributed = t.unattributed_ns;
  report->Add("pipeline.parse_ms", Ms(parse_ns) / n, "ms");
  report->Add("pipeline.unattributed_us", Us(unattributed) / n, "us");
  report->Add("pipeline.render_us_per_doc", Us(self_ns("pipeline.render")) / n,
              "us");
  report->Add("serve.text_document.us_per_doc",
              Us(self_ns("serve.text_document")) / n, "us");
  report->Add("core.encode_us", Us(self_ns("core.encode")) / n, "us");
  report->Add("core.sentence_tower_ms", Ms(self_ns("core.sentence_tower")) / n,
              "ms");
  report->Add("core.document_tower_ms", Ms(self_ns("core.document_tower")) / n,
              "ms");
  report->Add("core.head_ms", Ms(self_ns("core.head")) / n, "ms");
  report->Add("core.sentences_per_doc", static_cast<double>(d.sentences) / n,
              "count");
  report->Add("core.wordpieces_per_doc", static_cast<double>(d.wordpieces) / n,
              "count");
  report->Add("crf.viterbi_us", Us(self_ns("crf.viterbi")) / n, "us");
  report->Add("doc.segment_us", Us(self_ns("doc.segment")) / n, "us");
  report->Add("selftrain.ner_ms_per_doc", Ms(self_ns("selftrain.ner")) / n,
              "ms");
  report->Add("selftrain.ner_blocks_per_doc",
              static_cast<double>(d.ner_blocks) / n, "count");
  report->Add("selftrain.ner_words_per_doc",
              static_cast<double>(d.ner_words) / n, "count");
  report->Add("selftrain.ner_windowed_blocks_per_doc",
              static_cast<double>(d.ner_windowed_blocks) / n, "count");
  report->Add("selftrain.entities_per_doc", static_cast<double>(d.entities) / n,
              "count");
  const int64_t classify_ns = self_ns("core.sentence_tower") +
                              self_ns("core.document_tower") +
                              self_ns("core.head");
  report->Add("tensor.gemm_calls_per_doc",
              static_cast<double>(d.chain.gemm_calls) / n, "count");
  report->Add("tensor.gflop_per_doc",
              static_cast<double>(d.chain.gemm_flops) / 1e9 / n, "GFLOP");
  report->Add("tensor.gflops",
              Ratio(static_cast<double>(d.classify_flops),
                    static_cast<double>(classify_ns)),
              "GFLOP/s");
  report->Add("tensor.arena_hit_rate",
              Ratio(static_cast<double>(d.chain.arena_hits),
                    static_cast<double>(d.chain.arena_hits + d.chain.arena_misses)),
              "ratio");
  report->Add("tensor.arena_misses_per_doc",
              static_cast<double>(d.chain.arena_misses) / n, "count");
}

/// serve.framing.us_per_roundtrip: a request frame and its reply frame
/// through WriteFrame/ReadFrame on a socketpair, with the run's payloads.
double FramingUsPerRoundtrip(const std::vector<std::string>& requests,
                             const std::vector<std::string>& replies,
                             RunReport* report) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    report->Fail("socketpair failed");
    return 0.0;
  }
  int64_t total_ns = 0;
  int rounds = 0;
  for (size_t i = 0; i < requests.size() && i < replies.size(); ++i) {
    serve::Frame request{serve::FrameKind::kParseV2, 0, requests[i]};
    serve::Frame reply{serve::FrameKind::kOkV2, 0,
                       serve::EncodeIdPayload(static_cast<int64_t>(i + 1),
                                              replies[i])};
    serve::Frame got;
    const int64_t start = NowNs();
    Status s = serve::WriteFrame(fds[0], request);
    if (s.ok()) s = serve::ReadFrame(fds[1], &got);
    if (s.ok()) s = serve::WriteFrame(fds[1], reply);
    if (s.ok()) s = serve::ReadFrame(fds[0], &got);
    total_ns += NowNs() - start;
    ++rounds;
    if (!s.ok() || got.payload != reply.payload) {
      report->Fail("framing round trip failed: " + s.ToString());
      break;
    }
  }
  ::close(fds[0]);
  ::close(fds[1]);
  return rounds == 0 ? 0.0 : Us(total_ns) / rounds;
}

void WriteSpans(const SpanRecorder& rec, const std::string& path,
                RunReport* report) {
  if (path.empty()) return;
  const Status s = rec.WriteChromeJson(path);
  if (!s.ok()) {
    report->Fail(s.ToString());
  } else {
    report->Line("spans: %zu written to %s", rec.spans().size(), path.c_str());
  }
}

void ReportOverhead(double untraced, double traced, const char* what,
                    RunReport* report) {
  const double pct = 100.0 * (Ratio(traced, untraced) - 1.0);
  report->Line("tracing overhead: %s %.4f untraced vs %.4f with timed "
               "metrics on (%+.2f%%)", what, untraced, traced, pct);
  report->Add("trace.overhead_pct", pct, "%");
}

// --- serve_open ----------------------------------------------------------------

/// One open-loop pass of the run's schedule.
struct ServePhase {
  std::vector<RequestOutcome> outcomes;
  std::vector<double> due_ms;  // due -> reply read; failed = +inf
  std::vector<double> lag_ms;  // due -> sent (generator lag)
  double peak_rss_mb = 0.0;
  int64_t ok = 0;
  metrics::MetricsSnapshot before, after;
  Counters counters;  // deltas over the pass
};

bool RunServePhase(const Daemon& daemon, const std::vector<int64_t>& due,
                   const std::vector<std::string>& texts, ServePhase* phase,
                   RunReport* report) {
  phase->before = metrics::MetricsRegistry::Global().Snapshot();
  const Counters before = Counters::Read();
  auto outcomes = RunOpenLoop(daemon.port, due, texts, Nproc());
  phase->peak_rss_mb = PeakRssMb();
  phase->counters = Counters::Read() - before;
  phase->after = metrics::MetricsRegistry::Global().Snapshot();
  if (!outcomes.ok()) {
    report->Fail("open loop: " + outcomes.status().ToString());
    return false;
  }
  phase->outcomes = std::move(outcomes).ValueOrDie();
  for (const RequestOutcome& o : phase->outcomes) {
    phase->due_ms.push_back(o.ok ? Ms(o.done_ns - o.due_ns)
                                 : std::numeric_limits<double>::infinity());
    phase->lag_ms.push_back(Ms(o.sent_ns - o.due_ns));
    phase->ok += o.ok ? 1 : 0;
  }
  return true;
}

void CheckServedReplies(const ServePhase& phase,
                        const std::vector<std::string>& expected,
                        RunReport* report) {
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const RequestOutcome& o = phase.outcomes[i];
    if (o.ok && o.body != expected[i]) {
      report->Fail("served reply " + std::to_string(i) +
                   " differs from ToPrettyString(Parse(...))");
      return;
    }
  }
}

void ReportServeLatency(const ServePhase& phase, RunReport* report) {
  const size_t n = phase.due_ms.size();
  const double p50 = Median(phase.due_ms);
  const std::optional<double> p95 = Percentile(phase.due_ms, 0.95);
  const std::optional<double> p99 = Percentile(phase.due_ms, 0.99);
  report->Line("serve_p50_ms %.3f ms (due time to reply read, n=%zu)", p50, n);
  if (p95) {
    report->Line("serve_p95_ms %.3f ms (%lld samples beyond)", *p95,
                 static_cast<long long>(SamplesBeyond(n, 0.95)));
  }
  if (p99) {
    report->Line("serve_p99_ms %.3f ms", *p99);
  } else {
    report->Line("serve_p99_ms n/a: %zu requests leave %lld beyond p99; it "
                 "needs %lld", n, static_cast<long long>(SamplesBeyond(n, 0.99)),
                 static_cast<long long>(kMinSamplesBeyond));
  }
  report->Line("generator lag: p50 %.3f ms, max %.3f ms", Median(phase.lag_ms),
               *std::max_element(phase.lag_ms.begin(), phase.lag_ms.end()));
  if (!std::isfinite(p50)) report->Fail("most requests failed");
}

}  // namespace

void RunServeOpen(const RunOptions& options, RunReport* report) {
  const std::vector<std::string> warmup = Texts(WarmupResumes(kWarmupDocs));
  std::unique_ptr<Daemon> daemon = TimedSetup<Daemon>(
      options, report, [&] { return StartDaemon(options, warmup, report); });
  if (daemon == nullptr || options.setup_only) return;

  const int count =
      std::max(1, static_cast<int>(std::lround(kServeRatePerS * options.seconds)));
  const std::vector<ResumeInput> inputs =
      MakeResumes(options.seed, Stream::kServe, 0, count);
  const std::vector<std::string> texts = Texts(inputs);
  const std::vector<int64_t> due =
      PoissonDueOffsetsNs(options.seed, kServeRatePerS, count);
  report->Line("serve_open: %d kParseV2 requests, open loop at %.1f docs/s "
               "over %d connections", count, kServeRatePerS, Nproc());

  // Traced runs first repeat the pass with timed metrics off, as the
  // reference for the tracing overhead.
  ServePhase reference;
  if (options.trace) {
    metrics::MetricsRegistry::Global().SetEnabled(false);
    if (!RunServePhase(*daemon, due, texts, &reference, report)) return;
    metrics::MetricsRegistry::Global().SetEnabled(true);
  }
  ServePhase phase;
  if (!RunServePhase(*daemon, due, texts, &phase, report)) return;
  report->attempted = count;
  report->failed = count - phase.ok;
  ReportServeLatency(phase, report);

  const std::vector<pipeline::ParseResponse> direct =
      DirectParse(*daemon->pipeline, texts);
  std::vector<std::string> expected;
  for (const pipeline::ParseResponse& r : direct) {
    expected.push_back(pipeline::ResuFormerPipeline::ToPrettyString(r.resume));
  }
  CheckServedReplies(phase, expected, report);
  if (options.trace) CheckServedReplies(reference, expected, report);
  QualityScorer quality(daemon->pipeline->block_classifier().config().max_sentences);
  ScoreQuality(inputs, direct, &quality);
  ReportQuality(quality, options, report);

  const int64_t last_done =
      std::max_element(phase.outcomes.begin(), phase.outcomes.end(),
                       [](const RequestOutcome& a, const RequestOutcome& b) {
                         return a.done_ns < b.done_ns;
                       })->done_ns;
  const double window_s =
      static_cast<double>(last_done - phase.outcomes.front().due_ns) / 1e9;
  const double docs_per_s = static_cast<double>(phase.ok) / window_s;
  report->Line("goodput %.3f docs/s over %.3f s; peak RSS %.1f MiB", docs_per_s,
               window_s, phase.peak_rss_mb);
  if (!options.trace) {
    report->Add("latency_p50_ms", Median(phase.due_ms), "ms");
    report->Add("docs_per_s", docs_per_s, "1/s");
    report->Add("peak_rss_mb", phase.peak_rss_mb, "MiB");
    return;
  }

  // --- traced: server-side and client-side layer metrics -----------------
  ReportOverhead(Median(reference.due_ms), Median(phase.due_ms),
                 "serve p50 ms", report);
  std::vector<double> rtt_ms;
  for (const RequestOutcome& o : phase.outcomes) {
    rtt_ms.push_back(Ms(o.done_ns - o.sent_ns));
  }
  const HistogramValue e2e =
      HistogramDelta(phase.before, phase.after, "serve.e2e_us");
  const HistogramValue wait =
      HistogramDelta(phase.before, phase.after, "serve.queue_wait_us");
  const HistogramValue batch =
      HistogramDelta(phase.before, phase.after, "serve.batch_size");
  auto hist_ms = [](const HistogramValue& h, double q) {
    return HistogramPercentile(h, q, q == 0.5 ? 0 : kMinSamplesBeyond)
               .value_or(0.0) / 1e3;
  };
  // Histogram sums are exact, so the means split a request's time exactly;
  // the percentiles are interpolated inside log2 buckets.
  auto mean_ms = [](const HistogramValue& h) {
    return Ratio(static_cast<double>(h.sum), static_cast<double>(h.count)) / 1e3;
  };
  const double rtt_p50 = Median(rtt_ms);
  const double e2e_p50 = hist_ms(e2e, 0.5);
  const double wait_p50 = hist_ms(wait, 0.5);
  report->Add("serve.gen.lag_p95_ms",
              Percentile(phase.lag_ms, 0.95).value_or(0.0),
              "ms");
  report->Add("serve.due_p95_ms", Percentile(phase.due_ms, 0.95).value_or(0.0),
              "ms");
  report->Add("serve.endpoint.rtt_p50_ms", rtt_p50, "ms");
  report->Add("serve.endpoint.overhead_ms", Mean(rtt_ms) - mean_ms(e2e), "ms");
  report->Add("serve.server.queue_wait_p50_ms", wait_p50, "ms");
  report->Add("serve.server.queue_wait_p95_ms", hist_ms(wait, 0.95), "ms");
  report->Add("serve.server.e2e_p50_ms", e2e_p50, "ms");
  report->Add("serve.server.e2e_p95_ms", hist_ms(e2e, 0.95), "ms");
  report->Add("serve.server.service_mean_ms", mean_ms(e2e) - mean_ms(wait),
              "ms");
  report->Add("serve.server.batch_size_mean",
              Ratio(static_cast<double>(batch.sum),
                    static_cast<double>(batch.count)),
              "count");
  report->Add("common.thread_pool.contended_inline_per_req",
              static_cast<double>(phase.counters.contended_inline) / count,
              "count");
  report->Add("common.thread_pool.dispatches_per_doc",
              static_cast<double>(phase.counters.dispatches) / count, "count");
  report->Line("server: e2e p50 %.3f ms (n=%lld), queue wait p50 %.3f ms, "
               "mean batch %.2f; endpoint RTT p50 %.3f ms",
               e2e_p50, static_cast<long long>(e2e.count), wait_p50,
               Ratio(static_cast<double>(batch.sum),
                     static_cast<double>(batch.count)),
               rtt_p50);
  report->Line("mean split of due time to reply: generator lag %.3f + endpoint "
               "%.3f + queue wait %.3f + service %.3f ms (served mean %.3f ms)",
               Mean(phase.lag_ms), Mean(rtt_ms) - mean_ms(e2e), mean_ms(wait),
               mean_ms(e2e) - mean_ms(wait), Mean(phase.due_ms));

  SpanRecorder rec;
  Decomposition d;
  const std::vector<std::string> sample(
      texts.begin(),
      texts.begin() + std::min<size_t>(texts.size(), kServeDecomposeDocs));
  Decompose(*daemon->pipeline, sample, &rec, &d, report);
  ReportDecomposition(d, rec, report);
  report->Add("serve.framing.us_per_roundtrip",
              FramingUsPerRoundtrip(sample, d.replies, report), "us");
  WriteSpans(rec, options.spans_out, report);
}

// --- paper dims (traced batch_archive runs) -------------------------------------

namespace {

core::ResuFormerConfig PaperConfig(const RuntimeOptions& runtime, int vocab_size) {
  core::ResuFormerConfig cfg;
  cfg.hidden = 768;
  cfg.num_heads = 12;
  cfg.ffn = 3072;
  cfg.sentence_layers = 6;
  cfg.document_layers = 4;
  cfg.max_tokens_per_sentence = 55;
  cfg.max_sentences = 350;
  cfg.lstm_hidden = 256;
  cfg.vocab_size = vocab_size;
  cfg.runtime = runtime;
  return cfg;
}

/// The paper-dims model: the demo checkpoint's WordPiece vocabulary and a
/// BlockClassifier at the paper's dimensions with seeded random weights.
struct PaperModel {
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<core::BlockClassifier> classifier;
  core::EncodedDocument warmup;
  std::vector<int> warmup_labels;
};

std::unique_ptr<PaperModel> BuildPaperModel(const RunOptions& options,
                                            RunReport* report) {
  Result<text::Vocab> vocab = text::Vocab::Load(options.model_dir + "/vocab.txt");
  if (!vocab.ok()) {
    report->Fail(vocab.status().ToString());
    return nullptr;
  }
  auto model = std::make_unique<PaperModel>();
  model->tokenizer =
      std::make_unique<text::WordPieceTokenizer>(std::move(vocab).ValueOrDie());
  const core::ResuFormerConfig cfg =
      PaperConfig(options.runtime, model->tokenizer->vocab().size());
  resuformer::Rng rng(kPaperWeightSeed);
  model->classifier = std::make_unique<core::BlockClassifier>(cfg, &rng);
  model->classifier->SetTraining(false);
  // Warm-up: the first lines of a fixed resume.
  doc::Document warmup = WarmupResumes(1)[0].gold.document;
  warmup.sentences.resize(
      std::min<size_t>(warmup.sentences.size(), kPaperWarmupSentences));
  model->warmup = core::EncodeForModel(warmup, *model->tokenizer, cfg);
  model->warmup_labels = model->classifier->Predict(model->warmup);
  return model;
}

bool ValidIob(const std::vector<int>& labels, size_t sentences) {
  if (labels.size() != sentences) return false;
  for (int label : labels) {
    if (label < 0 || label >= doc::kNumIobLabels) return false;
  }
  return true;
}

/// The next resume of the paper stream, from `*index` on, in the size class.
core::EncodedDocument NextPaperResume(const RunOptions& options,
                                      const PaperModel& model, int64_t* index,
                                      doc::Document* document) {
  for (;; ++*index) {
    ResumeInput in = MakeResume(options.seed, Stream::kPaper, *index);
    if (in.gold.document.num_pages != kPaperPages) continue;
    core::EncodedDocument encoded = core::EncodeForModel(
        in.gold.document, *model.tokenizer, model.classifier->config());
    int wordpieces = 0;
    for (const core::EncodedSentence& s : encoded.sentences) {
      wordpieces += static_cast<int>(s.token_ids.size());
    }
    if (wordpieces < kPaperMinWordpieces || wordpieces > kPaperMaxWordpieces) {
      continue;
    }
    ++*index;
    *document = std::move(in.gold.document);
    return encoded;
  }
}

std::string PaperSpansPath(const std::string& path) {
  const std::string ext = ".json";
  if (path.size() > ext.size() &&
      path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
    return path.substr(0, path.size() - ext.size()) + "-paper_dims.json";
  }
  return path + "-paper_dims";
}

/// The paper's Time/Resume: EncodeForModel + Predict at the paper's
/// architecture on one resume of the paper stream, and the same decomposed
/// through the classifier's modules. Passes run in cycles of Predict, chain,
/// chain, Predict, so linear drift in host speed cancels out of the closure;
/// a second cycle runs when the first does not close, since one 5 s pass
/// alone can be several percent off on a shared host.
void MeasurePaperDims(const RunOptions& options, RunReport* report) {
  std::unique_ptr<PaperModel> model = BuildPaperModel(options, report);
  if (model == nullptr) return;
  const core::ResuFormerConfig& cfg = model->classifier->config();
  SpanRecorder rec;
  Decomposition d;
  int64_t index = 0;
  doc::Document document;
  NextPaperResume(options, *model, &index, &document);
  resuformer::NoGradGuard no_grad;
  std::vector<int> predicted;
  auto run_predict = [&](int64_t pass) {
    ScopedSpan span(&rec, "pipeline.parse", pass);
    const int64_t start = NowNs();
    const core::EncodedDocument encoded =
        core::EncodeForModel(document, *model->tokenizer, cfg);
    predicted = model->classifier->Predict(encoded);
    d.parse_ms.push_back(Ms(NowNs() - start));
  };
  auto run_chain = [&](int64_t pass) {
    ScopedSpan span(&rec, "chain", pass);
    const Counters before = Counters::Read();
    core::EncodedDocument encoded;
    {
      ScopedSpan encode(&rec, "core.encode", pass);
      encoded = core::EncodeForModel(document, *model->tokenizer, cfg);
    }
    d.sentences += static_cast<int64_t>(encoded.sentences.size());
    for (const core::EncodedSentence& s : encoded.sentences) {
      d.wordpieces += static_cast<int64_t>(s.token_ids.size());
    }
    const std::vector<int> traced =
        TracedClassify(*model->classifier, encoded, pass, &rec, &d);
    d.chain += Counters::Read() - before;
    return traced;
  };
  for (int cycle = 0; cycle < kPaperCycles; ++cycle) {
    if (cycle > 0 && ClosureGap(ComputeStages(d, rec)) <= kClosureTolerance) {
      break;
    }
    for (int64_t pass = 2 * cycle; pass < 2 * cycle + 2; ++pass) {
      ScopedSpan root(&rec, "document", pass);
      if (pass % 2 == 0) run_predict(pass);
      if (run_chain(pass) != predicted) {
        report->Fail("paper-dims decomposition differs from Predict");
      }
      if (pass % 2 == 1) run_predict(pass);
      ++d.docs;
    }
  }
  if (!ValidIob(predicted, static_cast<size_t>(d.sentences / d.docs))) {
    report->Fail("paper-dims labels are not valid IOB");
  }
  // The warm-up resume again: same labels as at warm-up.
  if (model->classifier->Predict(model->warmup) != model->warmup_labels) {
    report->Fail("paper-dims labels differ between warm-up and timed pass");
  }

  report->Line("paper dims: hidden %d, %d heads, ffn %d, %d+%d layers, %d "
               "tokens/sentence, %d sentences, BiLSTM %d, random weights; a "
               "%d-page resume of %lld sentences, %lld wordpieces",
               cfg.hidden, cfg.num_heads, cfg.ffn, cfg.sentence_layers,
               cfg.document_layers, cfg.max_tokens_per_sentence,
               cfg.max_sentences, cfg.lstm_hidden, kPaperPages,
               static_cast<long long>(d.sentences / d.docs),
               static_cast<long long>(d.wordpieces / d.docs));
  const StageTimes t = StageTable(d, rec, report);
  const double n = static_cast<double>(d.docs);
  const double s_per_resume = Mean(d.parse_ms) / 1e3;
  report->Line("paper_s_per_resume %.4f s (EncodeForModel + Predict, mean of "
               "%d passes)", s_per_resume, d.docs);
  report->Add("paper.s_per_resume", s_per_resume, "s");
  report->Add("paper.sentence_tower_s",
              static_cast<double>(t.Self("core.sentence_tower")) / 1e9 / n, "s");
  report->Add("paper.document_tower_s",
              static_cast<double>(t.Self("core.document_tower")) / 1e9 / n, "s");
  report->Add("paper.head_ms", Ms(t.Self("core.head")) / n, "ms");
  report->Add("paper.gflops",
              Ratio(static_cast<double>(d.classify_flops),
                    static_cast<double>(t.Self("core.sentence_tower") +
                                        t.Self("core.document_tower") +
                                        t.Self("core.head"))),
              "GFLOP/s");
  WriteSpans(rec, PaperSpansPath(options.spans_out), report);
}

}  // namespace

// --- batch_archive --------------------------------------------------------------

namespace {

struct BatchPhase {
  int64_t docs = 0;
  int64_t ok = 0;
  int64_t wall_ns = 0;
  std::vector<double> chunk_ms;
  std::vector<double> imbalance;  // per chunk, from ParseStats wall times
  double peak_rss_mb = 0.0;
  Counters counters;
};

/// Parses chunk after chunk of the archive until `seconds` of parse time
/// have been measured. Each chunk is the timed unit: DocumentFromText for its
/// texts, then one Parse(vector). Generating the resumes is not timed.
void RunBatchPhase(const pipeline::ResuFormerPipeline& p, const RunOptions& options,
                   bool want_stats, QualityScorer* quality,
                   std::vector<std::pair<std::string, std::string>>* checked,
                   BatchPhase* phase) {
  const Counters before = Counters::Read();
  const int workers = resuformer::ThreadPool::Global().NumThreads();
  for (int64_t chunk = 0; static_cast<double>(phase->wall_ns) / 1e9 < options.seconds;
       ++chunk) {
    const std::vector<ResumeInput> inputs =
        MakeResumes(options.seed, Stream::kBatch, chunk * kBatchChunk, kBatchChunk);
    const std::vector<std::string> texts = Texts(inputs);
    const int64_t start = NowNs();
    const std::vector<pipeline::ParseResponse> responses =
        p.Parse(RequestsFromTexts(texts, want_stats));
    const int64_t wall = NowNs() - start;
    phase->wall_ns += wall;
    phase->chunk_ms.push_back(Ms(wall));
    phase->docs += kBatchChunk;
    for (const pipeline::ParseResponse& r : responses) phase->ok += r.ok() ? 1 : 0;
    if (quality != nullptr) ScoreQuality(inputs, responses, quality);
    // Every 16th document is re-parsed serially afterwards.
    for (size_t i = 0; checked != nullptr && i < texts.size(); i += 16) {
      checked->emplace_back(
          texts[i], pipeline::ResuFormerPipeline::ToPrettyString(responses[i].resume));
    }
    if (want_stats) {
      // ParallelFor's static partition: contiguous parts of the chunk, one
      // per worker, sizes differing by at most one.
      const int parts = std::min<int>(workers, kBatchChunk);
      std::vector<double> cost(static_cast<size_t>(parts), 0.0);
      for (int w = 0; w < parts; ++w) {
        const int base = kBatchChunk / parts, rem = kBatchChunk % parts;
        const int begin = w * base + std::min(w, rem);
        const int end = begin + base + (w < rem ? 1 : 0);
        for (int i = begin; i < end; ++i) cost[w] += responses[i].stats.wall_time_us;
      }
      phase->imbalance.push_back(Ratio(*std::max_element(cost.begin(), cost.end()),
                                       Mean(cost)));
    }
  }
  phase->peak_rss_mb = PeakRssMb();
  phase->counters = Counters::Read() - before;
}

}  // namespace

void RunBatchArchive(const RunOptions& options, RunReport* report) {
  const std::vector<std::string> warmup = Texts(WarmupResumes(kWarmupDocs));
  std::unique_ptr<pipeline::ResuFormerPipeline> p =
      TimedSetup<pipeline::ResuFormerPipeline>(options, report, [&] {
        auto loaded = LoadPipeline(options, report);
        if (loaded != nullptr) {
          for (const pipeline::ParseResponse& r :
               loaded->Parse(RequestsFromTexts(warmup, false))) {
            if (!r.ok()) {
              report->Fail("warm-up parse failed: " + r.status.ToString());
              return std::unique_ptr<pipeline::ResuFormerPipeline>();
            }
          }
        }
        return loaded;
      });
  if (p == nullptr || options.setup_only) return;
  report->Line("batch_archive: chunks of %d resumes through Parse(vector), "
               "pool width %d", kBatchChunk,
               resuformer::ThreadPool::Global().NumThreads());

  BatchPhase reference;
  if (options.trace) {
    metrics::MetricsRegistry::Global().SetEnabled(false);
    RunBatchPhase(*p, options, false, nullptr, nullptr, &reference);
    metrics::MetricsRegistry::Global().SetEnabled(true);
  }
  QualityScorer quality(p->block_classifier().config().max_sentences);
  std::vector<std::pair<std::string, std::string>> checked;
  BatchPhase phase;
  RunBatchPhase(*p, options, options.trace, &quality, &checked, &phase);
  report->attempted = phase.docs;
  report->failed = phase.docs - phase.ok;
  const double docs_per_s = static_cast<double>(phase.docs) /
                            (static_cast<double>(phase.wall_ns) / 1e9);
  report->Line("batch_docs_s %.3f docs/s at the median chunk of %.1f ms "
               "(%.3f over all %lld resumes in %zu chunks, %.3f s of parse "
               "time); peak RSS %.1f MiB",
               kBatchChunk * 1e3 / Median(phase.chunk_ms), Median(phase.chunk_ms),
               docs_per_s, static_cast<long long>(phase.docs),
               phase.chunk_ms.size(), static_cast<double>(phase.wall_ns) / 1e9,
               phase.peak_rss_mb);

  for (size_t i = 0; i < checked.size(); ++i) {
    pipeline::ParseRequest request;
    request.document = serve::DocumentFromText(checked[i].first);
    if (pipeline::ResuFormerPipeline::ToPrettyString(p->Parse(request).resume) !=
        checked[i].second) {
      report->Fail("batch output " + std::to_string(i) +
                   " differs from a serial Parse of the same text");
      break;
    }
  }
  report->Line("output check: %zu sampled batch outputs equal serial Parse",
               checked.size());
  ReportQuality(quality, options, report);
  if (!options.trace) {
    // Throughput at the median chunk: a burst of host noise in one chunk
    // moves the mean, not this.
    report->Add("latency_p50_ms", Median(phase.chunk_ms), "ms");
    report->Add("docs_per_s", kBatchChunk * 1e3 / Median(phase.chunk_ms),
                "1/s");
    report->Add("peak_rss_mb", phase.peak_rss_mb, "MiB");
    return;
  }

  const double reference_docs_per_s =
      static_cast<double>(reference.docs) /
      (static_cast<double>(reference.wall_ns) / 1e9);
  // Overhead as extra time per document: a slower traced run reads positive.
  ReportOverhead(1.0 / reference_docs_per_s, 1.0 / docs_per_s, "s/doc",
                 report);
  report->Add("common.thread_pool.contended_inline_per_req",
              static_cast<double>(phase.counters.contended_inline) / phase.docs,
              "count");
  report->Add("common.thread_pool.dispatches_per_doc",
              static_cast<double>(phase.counters.dispatches) / phase.docs,
              "count");
  report->Add("pipeline.partition_imbalance", Mean(phase.imbalance), "ratio");

  SpanRecorder rec;
  Decomposition d;
  std::vector<std::string> sample;
  for (int c = 0; c * kBatchChunk < kBatchDecomposeDocs; ++c) {
    for (std::string& t : Texts(MakeResumes(options.seed, Stream::kBatch,
                                            c * kBatchChunk, kBatchChunk))) {
      sample.push_back(std::move(t));
    }
  }
  Decompose(*p, sample, &rec, &d, report);
  ReportDecomposition(d, rec, report);
  const double serial_ms = Mean(d.parse_ms);
  const double efficiency =
      Ratio(serial_ms * 1e6 * static_cast<double>(phase.docs),
            static_cast<double>(resuformer::ThreadPool::Global().NumThreads()) *
                static_cast<double>(phase.wall_ns));
  report->Line("batch efficiency %.3f: serial Parse %.3f ms/doc x %lld docs "
               "over %d workers x %.3f s; partition imbalance %.3f",
               efficiency, serial_ms, static_cast<long long>(phase.docs),
               resuformer::ThreadPool::Global().NumThreads(),
               static_cast<double>(phase.wall_ns) / 1e9, Mean(phase.imbalance));
  report->Add("pipeline.batch_efficiency", efficiency, "ratio");
  WriteSpans(rec, options.spans_out, report);
  MeasurePaperDims(options, report);
}

}  // namespace perfbench
