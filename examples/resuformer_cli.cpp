// Command-line front end for the library — the surface a downstream user
// scripts against. Explicit subcommands, parsed once against a per-command
// flag table: an unknown subcommand or flag fails with usage and a nonzero
// exit instead of being silently ignored.
//
// Core subcommands:
//   resuformer_cli train --out DIR [--seed N]     train the full pipeline and
//                                                 save a checkpoint (RFP3,
//                                                 replaced atomically)
//   resuformer_cli parse [--model DIR]            parse resume text (--input
//            [--input FILE] [--stats]             FILE or stdin) to JSON
//   resuformer_cli bench                          per-resume latency of the
//                                                 hierarchical vs token paths
//   resuformer_cli serve [--port N] [--model DIR] long-lived parse daemon on
//            [--max-batch N] [--max-delay-ms N]   127.0.0.1 speaking the
//            [--queue-capacity N] [--workers N]   length-prefixed framing
//            [--stats-window-ms N]                protocol (src/serve);
//            [--slow-trace-us N]                  SIGINT/SIGTERM or a client
//            [--slow-trace-dir DIR]               kShutdown frame drains
//                                                 gracefully
//   resuformer_cli stats --port N [--prom|--json] live admin stats of a
//                                                 running serve daemon
//                                                 (kStats frame), rendered
//                                                 as a table by default
//
// Demo subcommands (kept from the pre-daemon CLI):
//   resuformer_cli generate --docs 5 --seed 42        render resumes to stdout
//   resuformer_cli corpus-stats --docs 100            corpus statistics
//   resuformer_cli annotate "Email: a@b.com Age: 27"  distant annotation demo
//   resuformer_cli train-and-parse [--seed N]         train + parse a held-out
//                                                     resume in one process
//   resuformer_cli bench-latency                      alias of bench
//
// Global flags (any subcommand; see common/runtime_options.h for the
// matching RESUFORMER_* environment overrides, including the
// RESUFORMER_SERVE_* admission-queue knobs):
//   --trace-out FILE     enable tracing, write a chrome://tracing JSON file
//   --metrics-out FILE   enable timed metrics, write a metrics snapshot JSON
//   --threads N          thread-pool width (0 = auto)
//   --use-int8           int8 sentence-tower Linear layers
//                        (RESUFORMER_USE_INT8)
// With no subcommand, train-and-parse runs — `resuformer_cli --trace-out
// t.json` captures a trace of the full pipeline.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/layout_token_model.h"
#include "common/metrics.h"
#include "common/runtime_options.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/trace.h"
#include "distant/dictionary.h"
#include "eval/timing.h"
#include "pipeline/pipeline.h"
#include "resumegen/corpus.h"
#include "serve/endpoint.h"
#include "serve/framing.h"
#include "serve/server.h"
#include "serve/text_document.h"

namespace resuformer {
namespace {

// Resolved once in Run (env, then global flags) and injected into every
// model config a command builds: model constructors re-apply their config's
// runtime options, so a config built from defaults would silently switch
// tracing/metrics back off.
RuntimeOptions g_runtime;

// ---------------------------------------------------------------------------
// Argument parsing: one pass, against an explicit per-command flag table.

struct FlagSpec {
  const char* name;
  bool takes_value;
};

struct CommandSpec {
  const char* name;
  const char* summary;
  std::vector<FlagSpec> flags;
  bool allows_positional;  // bare words after the command (annotate text)
};

// Accepted by every command, stripped before command flags are checked.
const std::vector<FlagSpec>& GlobalFlags() {
  static const std::vector<FlagSpec> kGlobal = {
      {"--trace-out", true}, {"--metrics-out", true}, {"--threads", true},
      {"--use-int8", false},
  };
  return kGlobal;
}

const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec> kCommands = {
      {"train", "train the full pipeline and save a checkpoint",
       {{"--out", true}, {"--seed", true}}, false},
      {"parse", "parse resume text (--input FILE or stdin) to JSON",
       {{"--model", true}, {"--input", true}, {"--seed", true},
        {"--stats", false}}, false},
      {"bench", "per-resume latency of the hierarchical vs token paths",
       {}, false},
      {"serve", "long-lived parse daemon on 127.0.0.1 (framing protocol)",
       {{"--port", true}, {"--model", true}, {"--seed", true},
        {"--max-batch", true}, {"--max-delay-ms", true},
        {"--queue-capacity", true}, {"--workers", true},
        {"--stats-window-ms", true}, {"--slow-trace-us", true},
        {"--slow-trace-dir", true}}, false},
      {"stats", "live admin stats of a running serve daemon",
       {{"--port", true}, {"--prom", false}, {"--json", false}}, false},
      {"generate", "render synthetic resumes to stdout",
       {{"--docs", true}, {"--seed", true}}, false},
      {"corpus-stats", "corpus statistics",
       {{"--docs", true}, {"--seed", true}}, false},
      {"annotate", "distant annotation demo over the argument text",
       {}, true},
      {"train-and-parse", "train + parse a held-out resume in one process",
       {{"--seed", true}}, false},
      {"bench-latency", "alias of bench", {}, false},
  };
  return kCommands;
}

struct ParsedArgs {
  std::string command;
  std::map<std::string, std::string> flags;  // "--name" -> value ("" = set)
  std::vector<std::string> positional;
};

int Usage() {
  std::fprintf(stderr, "usage: resuformer_cli <command> [flags]\n\ncommands:\n");
  for (const CommandSpec& cmd : Commands()) {
    std::fprintf(stderr, "  %-16s %s\n", cmd.name, cmd.summary);
  }
  std::fprintf(stderr,
               "\nglobal flags: --trace-out FILE  --metrics-out FILE"
               "  --threads N\n"
               "              --use-int8\n");
  return 2;
}

const FlagSpec* FindFlag(const std::vector<FlagSpec>& specs,
                         const char* name) {
  for (const FlagSpec& spec : specs) {
    if (std::strcmp(spec.name, name) == 0) return &spec;
  }
  return nullptr;
}

/// Parses everything after the command name. Returns false (after printing
/// the error and usage) on an unknown flag, a flag missing its value, or an
/// unexpected bare word.
bool ParseArgs(const CommandSpec& cmd, int argc, char** argv, int first,
               ParsedArgs* out) {
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] != '-') {
      if (!cmd.allows_positional) {
        std::fprintf(stderr, "error: unexpected argument \"%s\" for %s\n\n",
                     arg, cmd.name);
        Usage();
        return false;
      }
      out->positional.push_back(arg);
      continue;
    }
    const FlagSpec* spec = FindFlag(GlobalFlags(), arg);
    if (spec == nullptr) spec = FindFlag(cmd.flags, arg);
    if (spec == nullptr) {
      std::fprintf(stderr, "error: unknown flag \"%s\" for %s\n\n", arg,
                   cmd.name);
      Usage();
      return false;
    }
    if (spec->takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: flag \"%s\" requires a value\n\n", arg);
        Usage();
        return false;
      }
      out->flags[arg] = argv[++i];
    } else {
      out->flags[arg] = "";
    }
  }
  return true;
}

bool HasFlag(const ParsedArgs& args, const char* name) {
  return args.flags.count(name) > 0;
}

const char* StringFlag(const ParsedArgs& args, const char* name) {
  const auto it = args.flags.find(name);
  return it == args.flags.end() ? nullptr : it->second.c_str();
}

/// Strict base-10 integer flag: the whole value must parse, or the command
/// fails with usage. `*ok` is only ever cleared.
int64_t IntFlag(const ParsedArgs& args, const char* name, int64_t fallback,
                bool* ok) {
  const auto it = args.flags.find(name);
  if (it == args.flags.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') {
    std::fprintf(stderr, "error: flag \"%s\" expects an integer, got \"%s\"\n",
                 name, text);
    *ok = false;
    return fallback;
  }
  return value;
}

// ---------------------------------------------------------------------------
// Shared pipeline construction. train/parse/serve must build identical
// PipelineOptions: Load() verifies the checkpoint manifest against them.

pipeline::PipelineOptions DemoPipelineOptions() {
  pipeline::PipelineOptions options;
  options.model.runtime = g_runtime;
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

resumegen::Corpus DemoCorpus(uint64_t seed) {
  resumegen::CorpusConfig ccfg;
  ccfg.pretrain_docs = 60;
  ccfg.train_docs = 10;
  ccfg.val_docs = 6;
  ccfg.test_docs = 2;
  ccfg.seed = seed;
  return resumegen::GenerateCorpus(ccfg);
}

/// Loads `--model DIR` when given, otherwise trains in-process from the
/// demo corpus (seeded by --seed). Null on load failure (already reported).
std::unique_ptr<pipeline::ResuFormerPipeline> LoadOrTrain(
    const ParsedArgs& args, uint64_t seed) {
  const char* model_dir = StringFlag(args, "--model");
  if (model_dir != nullptr) {
    auto loaded = pipeline::ResuFormerPipeline::Load(model_dir,
                                                     DemoPipelineOptions());
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return nullptr;
    }
    return std::move(loaded).ValueOrDie();
  }
  std::fprintf(stderr,
               "no --model given: training in-process (this takes a "
               "minute)...\n");
  return pipeline::ResuFormerPipeline::TrainFromCorpus(DemoCorpus(seed),
                                                       DemoPipelineOptions());
}

// ---------------------------------------------------------------------------
// Subcommands.

int CmdGenerate(const ParsedArgs& args) {
  bool ok = true;
  const int docs = static_cast<int>(IntFlag(args, "--docs", 1, &ok));
  Rng rng(static_cast<uint64_t>(IntFlag(args, "--seed", 42, &ok)));
  if (!ok) return 2;
  for (int i = 0; i < docs; ++i) {
    const resumegen::GeneratedResume r = resumegen::GenerateResume(&rng);
    std::printf("--- resume %d: %s (template %d, %d pages) ---\n%s\n", i + 1,
                r.record.FullName().c_str(), r.template_id,
                r.document.num_pages,
                resumegen::AsciiRender(r.document,
                                       r.document.sentence_labels).c_str());
  }
  return 0;
}

int CmdCorpusStats(const ParsedArgs& args) {
  bool ok = true;
  resumegen::CorpusConfig cfg;
  cfg.pretrain_docs = static_cast<int>(IntFlag(args, "--docs", 100, &ok));
  cfg.train_docs = 0;
  cfg.val_docs = 0;
  cfg.test_docs = 0;
  cfg.seed = static_cast<uint64_t>(IntFlag(args, "--seed", 17, &ok));
  if (!ok) return 2;
  const resumegen::Corpus corpus = resumegen::GenerateCorpus(cfg);
  const resumegen::SplitStats stats =
      resumegen::ComputeStats(corpus.pretrain);
  std::printf("%d documents: avg %.1f tokens, %.1f sentences, %.2f pages\n",
              stats.num_docs, stats.avg_tokens, stats.avg_sentences,
              stats.avg_pages);
  return 0;
}

int CmdAnnotate(const ParsedArgs& args) {
  std::string text;
  for (const std::string& word : args.positional) {
    if (!text.empty()) text += " ";
    text += word;
  }
  if (text.empty()) {
    std::fprintf(stderr, "usage: resuformer_cli annotate <text...>\n");
    return 2;
  }
  const distant::EntityDictionary dict =
      distant::BuildDictionaries(distant::DictionaryConfig{});
  distant::AutoAnnotator annotator(&dict);
  const std::vector<std::string> words = SplitString(text);
  const std::vector<int> labels = annotator.Annotate(words);
  for (size_t i = 0; i < words.size(); ++i) {
    std::printf("%-24s %s\n", words[i].c_str(),
                doc::EntityIobLabelName(labels[i]).c_str());
  }
  return 0;
}

int CmdTrain(const ParsedArgs& args) {
  bool ok = true;
  const char* out_dir = StringFlag(args, "--out");
  const uint64_t seed = static_cast<uint64_t>(IntFlag(args, "--seed", 7, &ok));
  if (!ok) return 2;
  if (out_dir == nullptr) {
    std::fprintf(stderr, "error: train requires --out DIR\n");
    return 2;
  }
  std::printf("training pipeline (this takes a minute)...\n");
  pipeline::TrainReport report;
  auto p = pipeline::ResuFormerPipeline::TrainFromCorpus(
      DemoCorpus(seed), DemoPipelineOptions(), &report);
  std::printf("trained: block val acc %.3f, NER val F1 %.3f\n",
              report.block_val_accuracy, report.ner_val_f1);
  const Status saved = p->Save(out_dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("checkpoint written to %s\n", out_dir);
  return 0;
}

int CmdParse(const ParsedArgs& args) {
  bool ok = true;
  const uint64_t seed = static_cast<uint64_t>(IntFlag(args, "--seed", 7, &ok));
  if (!ok) return 2;

  std::string text;
  const char* input = StringFlag(args, "--input");
  if (input != nullptr) {
    std::ifstream in(input);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", input);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  } else {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  }
  if (text.empty()) {
    std::fprintf(stderr, "error: empty input (give --input FILE or stdin)\n");
    return 2;
  }

  auto p = LoadOrTrain(args, seed);
  if (p == nullptr) return 1;

  pipeline::ParseRequest request;
  request.document = serve::DocumentFromText(text);
  request.want_stats = HasFlag(args, "--stats");
  const pipeline::ParseResponse response = p->Parse(request);
  if (!response.ok()) {
    std::fprintf(stderr, "error: %s\n", response.status.ToString().c_str());
    return 1;
  }
  std::printf("%s", pipeline::ResuFormerPipeline::ToPrettyString(
                        response.resume).c_str());
  if (request.want_stats) {
    std::fprintf(stderr,
                 "parse: %.0f us, %d sentences, %d blocks, %d entities\n",
                 response.stats.wall_time_us, response.stats.num_sentences,
                 response.stats.num_blocks, response.stats.num_entities);
  }
  return 0;
}

int CmdTrainAndParse(const ParsedArgs& args) {
  bool ok = true;
  const uint64_t seed = static_cast<uint64_t>(IntFlag(args, "--seed", 7, &ok));
  if (!ok) return 2;
  const resumegen::Corpus corpus = DemoCorpus(seed);
  std::printf("training pipeline (this takes a minute)...\n");
  pipeline::TrainReport report;
  auto p = pipeline::ResuFormerPipeline::TrainFromCorpus(
      corpus, DemoPipelineOptions(), &report);
  std::printf("trained: block val acc %.3f, NER val F1 %.3f\n\n",
              report.block_val_accuracy, report.ner_val_f1);
  pipeline::ParseRequest request;
  request.document = corpus.test[0].document;
  const pipeline::ParseResponse response = p->Parse(request);
  std::printf("%s", pipeline::ResuFormerPipeline::ToPrettyString(
                        response.resume).c_str());
  return 0;
}

int CmdBench(const ParsedArgs&) {
  resumegen::CorpusConfig ccfg;
  ccfg.pretrain_docs = 0;
  ccfg.train_docs = 0;
  ccfg.val_docs = 0;
  ccfg.test_docs = 20;
  const resumegen::Corpus corpus = resumegen::GenerateCorpus(ccfg);
  const text::WordPieceTokenizer tokenizer =
      resumegen::TrainTokenizer(corpus, 1500);

  core::ResuFormerConfig cfg;
  cfg.runtime = g_runtime;
  cfg.vocab_size = tokenizer.vocab().size();
  Rng rng(1);
  core::BlockClassifier hierarchical(cfg, &rng);
  hierarchical.SetTraining(false);
  baselines::TokenModelConfig tcfg;
  tcfg.vocab_size = tokenizer.vocab().size();
  Rng rng2(2);
  baselines::LayoutTokenModel token_model(tcfg, &tokenizer, &rng2, 0);
  token_model.SetTraining(false);

  eval::LatencyMeter hier_meter, token_meter;
  for (const auto& r : corpus.test) {
    eval::Stopwatch sw1;
    hierarchical.Predict(core::EncodeForModel(r.document, tokenizer, cfg));
    hier_meter.Add(sw1.Seconds());
    eval::Stopwatch sw2;
    token_model.LabelSentences(r.document);
    token_meter.Add(sw2.Seconds());
  }
  std::printf("hierarchical (sentence-level): %.4fs/resume\n",
              hier_meter.MeanSeconds());
  std::printf("token-level (windowed):        %.4fs/resume\n",
              token_meter.MeanSeconds());
  std::printf("ratio: %.2fx\n",
              token_meter.MeanSeconds() /
                  std::max(hier_meter.MeanSeconds(), 1e-9));
  return 0;
}

// ---------------------------------------------------------------------------
// Observability outputs (--metrics-out / --trace-out). Written by CmdServe
// right after a graceful drain (so a SIGTERM'd daemon still leaves its
// artifacts) and by Run's epilogue for every other command; the flag keeps
// the two call sites from double-writing.

const char* g_metrics_out = nullptr;
const char* g_trace_out = nullptr;
bool g_observability_written = false;

int WriteObservabilityOutputs() {
  if (g_observability_written) return 0;
  g_observability_written = true;
  if (g_metrics_out != nullptr) {
    std::ofstream out(g_metrics_out);
    out << metrics::MetricsRegistry::Global().Snapshot().ToJson() << '\n';
    if (!out.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n", g_metrics_out);
      return 1;
    }
    std::fprintf(stderr, "metrics snapshot written to %s\n", g_metrics_out);
  }
  if (g_trace_out != nullptr) {
    const Status s =
        trace::TraceRecorder::Global().WriteChromeJson(g_trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "trace written to %s (load via chrome://tracing)\n",
                 g_trace_out);
  }
  return 0;
}

// SIGINT/SIGTERM -> graceful drain. The handler only stores a flag
// (async-signal-safe); a watcher thread in CmdServe polls it and routes it
// into SocketEndpoint::RequestShutdown — the same path as a client
// kShutdown frame.
std::atomic<int> g_shutdown_signal{0};

void OnShutdownSignal(int sig) {
  // Relaxed: the watcher thread only needs to eventually observe the store;
  // no other memory is published by the handler.
  g_shutdown_signal.store(sig, std::memory_order_relaxed);
}

int CmdServe(const ParsedArgs& args) {
  bool ok = true;
  const int port = static_cast<int>(IntFlag(args, "--port", 0, &ok));
  const uint64_t seed = static_cast<uint64_t>(IntFlag(args, "--seed", 7, &ok));

  // Flag overrides stack on the RESUFORMER_SERVE_* env knobs already parsed
  // into g_runtime; ServerOptions::Validate rejects out-of-range values.
  serve::ServerOptions options = serve::ServerOptions::FromRuntime(g_runtime);
  options.max_batch = static_cast<int>(
      IntFlag(args, "--max-batch", options.max_batch, &ok));
  options.max_queue_delay_ms = static_cast<int>(
      IntFlag(args, "--max-delay-ms", options.max_queue_delay_ms, &ok));
  options.queue_capacity = static_cast<int>(
      IntFlag(args, "--queue-capacity", options.queue_capacity, &ok));
  options.workers = static_cast<int>(
      IntFlag(args, "--workers", options.workers, &ok));
  options.stats_window_ms = static_cast<int>(
      IntFlag(args, "--stats-window-ms", options.stats_window_ms, &ok));
  options.slow_trace_us = static_cast<int>(
      IntFlag(args, "--slow-trace-us", options.slow_trace_us, &ok));
  const char* slow_trace_dir = StringFlag(args, "--slow-trace-dir");
  if (slow_trace_dir != nullptr) options.slow_trace_dir = slow_trace_dir;
  if (!ok) return 2;
  const Status valid = options.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 2;
  }

  auto p = LoadOrTrain(args, seed);
  if (p == nullptr) return 1;

  serve::ParseServer server(p.get(), options);
  serve::SocketEndpoint endpoint(&server);
  const Result<int> bound = endpoint.Start(port);
  if (!bound.ok()) {
    std::fprintf(stderr, "error: %s\n", bound.status().ToString().c_str());
    return 1;
  }
  // stdout and flushed: scripts block on this line to learn the port.
  std::printf("serving on 127.0.0.1:%d (max_batch=%d max_delay_ms=%d "
              "queue_capacity=%d workers=%d)\n",
              bound.value(), options.max_batch, options.max_queue_delay_ms,
              options.queue_capacity, options.workers);
  std::fflush(stdout);

  // Route SIGINT/SIGTERM into the same graceful drain as a kShutdown frame.
  g_shutdown_signal.store(0, std::memory_order_relaxed);
  std::signal(SIGINT, OnShutdownSignal);
  std::signal(SIGTERM, OnShutdownSignal);
  std::atomic<bool> serving_done{false};
  std::thread signal_watcher([&endpoint, &serving_done] {
    // Relaxed loads: plain flag polls, no memory published through them.
    while (!serving_done.load(std::memory_order_relaxed)) {
      if (g_shutdown_signal.load(std::memory_order_relaxed) != 0) {
        endpoint.RequestShutdown();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  endpoint.WaitForShutdownRequest();
  std::fprintf(stderr, "shutdown requested: draining...\n");
  endpoint.Stop();
  server.Shutdown();
  // Relaxed store: the watcher only reads the flag, nothing else.
  serving_done.store(true, std::memory_order_relaxed);
  signal_watcher.join();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::fprintf(stderr, "drained.\n");
  // Write --metrics-out / --trace-out now, while the drained counters and
  // spans are final — a SIGTERM'd daemon must not lose its artifacts.
  return WriteObservabilityOutputs();
}

// ---------------------------------------------------------------------------
// `stats`: a kStats admin client for a running serve daemon.

/// Connects to 127.0.0.1:`port`. Returns -1 after printing the error.
int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  // rf-lint-allow(mmap-payload-cast): POSIX sockets calling convention.
  const sockaddr* addr_ptr = reinterpret_cast<const sockaddr*>(&addr);
  if (::connect(fd, addr_ptr, sizeof(addr)) < 0) {
    std::fprintf(stderr, "error: connect 127.0.0.1:%d: %s\n", port,
                 std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

/// First occurrence of `"key": <int>` in `json`. Safe against StatsJson
/// because its "server" section leads and its keys are unique there.
int64_t FindJsonInt(const std::string& json, const char* key, bool* found) {
  std::string needle = "\"";
  needle += key;
  needle += "\": ";
  const size_t at = json.find(needle);
  if (at == std::string::npos) {
    *found = false;
    return 0;
  }
  return std::strtoll(json.c_str() + at + needle.size(), nullptr, 10);
}

/// First occurrence of `"key": "<value>"`.
std::string FindJsonString(const std::string& json, const char* key) {
  std::string needle = "\"";
  needle += key;
  needle += "\": \"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "?";
  const size_t start = at + needle.size();
  const size_t end = json.find('"', start);
  if (end == std::string::npos) return "?";
  return json.substr(start, end - start);
}

int CmdServerStats(const ParsedArgs& args) {
  bool ok = true;
  const int port = static_cast<int>(IntFlag(args, "--port", 0, &ok));
  if (!ok) return 2;
  if (port <= 0) {
    std::fprintf(stderr, "error: stats requires --port N of a running "
                         "serve daemon\n");
    return 2;
  }
  const bool prom = HasFlag(args, "--prom");

  const int fd = ConnectLoopback(port);
  if (fd < 0) return 1;
  serve::Frame request;
  request.kind = serve::FrameKind::kStats;
  if (prom) request.payload = "prometheus";
  Status s = serve::WriteFrame(fd, request);
  serve::Frame reply;
  if (s.ok()) s = serve::ReadFrame(fd, &reply);
  ::close(fd);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  if (reply.kind != serve::FrameKind::kOk) {
    std::fprintf(stderr, "error: server answered kind %d: %s\n",
                 static_cast<int>(reply.kind), reply.payload.c_str());
    return 1;
  }

  if (prom || HasFlag(args, "--json")) {
    // Raw payload for scripting (Prometheus scrape shims, jq).
    std::printf("%s\n", reply.payload.c_str());
    return 0;
  }

  const std::string& json = reply.payload;
  bool found = true;
  const auto Int = [&json, &found](const char* key) {
    return FindJsonInt(json, key, &found);
  };
  const auto Row = [](const char* label, int64_t value) {
    return std::vector<std::string>{label, std::to_string(value)};
  };
  const int64_t window_ms = Int("window_ms");
  TablePrinter table({"stat", "value"});
  table.AddRow({"state", FindJsonString(json, "state")});
  table.AddRow({"uptime_s",
                std::to_string(Int("uptime_us") / 1'000'000)});
  table.AddRow(Row("queue_depth", Int("queue_depth")));
  table.AddRow(Row("workers", Int("workers")));
  table.AddRow(Row("max_batch", Int("max_batch")));
  table.AddSeparator();
  table.AddRow(Row("requests", Int("requests")));
  table.AddRow(Row("batches", Int("batches")));
  table.AddRow(Row("rejected_queue_full", Int("rejected_queue_full")));
  table.AddRow(Row("rejected_deadline", Int("rejected_deadline")));
  table.AddRow(Row("rejected_unavailable", Int("rejected_unavailable")));
  table.AddRow(Row("slow_traces", Int("slow_traces")));
  table.AddSeparator();
  const std::string window = "window(" + std::to_string(window_ms) + "ms)";
  table.AddRow(Row((window + " e2e_count").c_str(),
                   Int("window_e2e_count")));
  table.AddRow(Row((window + " e2e_p50_us").c_str(),
                   Int("window_e2e_p50_us")));
  table.AddRow(Row((window + " e2e_p99_us").c_str(),
                   Int("window_e2e_p99_us")));
  table.AddRow(Row((window + " queue_wait_p50_us").c_str(),
                   Int("window_queue_wait_p50_us")));
  table.AddRow(Row((window + " queue_wait_p99_us").c_str(),
                   Int("window_queue_wait_p99_us")));
  table.AddSeparator();
  table.AddRow(Row("cumulative e2e_count", Int("e2e_count")));
  table.AddRow(Row("cumulative e2e_p50_us", Int("e2e_p50_us")));
  table.AddRow(Row("cumulative e2e_p99_us", Int("e2e_p99_us")));
  if (!found) {
    // Version skew (older/newer daemon): show what we got instead of a
    // half-empty table.
    std::fprintf(stderr, "warning: unrecognized stats payload; raw JSON:\n");
    std::printf("%s\n", json.c_str());
    return 0;
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int Dispatch(const CommandSpec& cmd, const ParsedArgs& args) {
  const std::string name = cmd.name;
  if (name == "generate") return CmdGenerate(args);
  if (name == "corpus-stats") return CmdCorpusStats(args);
  if (name == "stats") return CmdServerStats(args);
  if (name == "annotate") return CmdAnnotate(args);
  if (name == "train") return CmdTrain(args);
  if (name == "parse") return CmdParse(args);
  if (name == "train-and-parse") return CmdTrainAndParse(args);
  if (name == "bench" || name == "bench-latency") return CmdBench(args);
  if (name == "serve") return CmdServe(args);
  return Usage();
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();

  // A leading flag means "no command": default to the end-to-end pipeline
  // demo, the most useful thing to capture a trace of.
  const bool has_command = argv[1][0] != '-';
  const std::string name = has_command ? argv[1] : "train-and-parse";
  const CommandSpec* cmd = nullptr;
  for (const CommandSpec& candidate : Commands()) {
    if (name == candidate.name) {
      cmd = &candidate;
      break;
    }
  }
  if (cmd == nullptr) {
    std::fprintf(stderr, "error: unknown command \"%s\"\n\n", name.c_str());
    return Usage();
  }

  ParsedArgs args;
  args.command = name;
  if (!ParseArgs(*cmd, argc, argv, has_command ? 2 : 1, &args)) return 2;

  // Globals: env first, then flags on top; strict-parsed serve knobs
  // surface their error instead of silently falling back.
  Status serve_env_error = Status::OK();
  g_runtime = RuntimeOptions::FromEnv(&serve_env_error);
  if (!serve_env_error.ok()) {
    std::fprintf(stderr, "error: %s\n", serve_env_error.ToString().c_str());
    return 2;
  }
  bool ok = true;
  g_trace_out = StringFlag(args, "--trace-out");
  g_metrics_out = StringFlag(args, "--metrics-out");
  if (g_trace_out != nullptr) g_runtime.enable_tracing = true;
  if (g_metrics_out != nullptr) g_runtime.enable_metrics = true;
  g_runtime.threads =
      static_cast<int>(IntFlag(args, "--threads", g_runtime.threads, &ok));
  if (!ok) return 2;
  if (HasFlag(args, "--use-int8")) g_runtime.use_int8 = true;
  core::ApplyRuntimeOptions(g_runtime);

  const int rc = Dispatch(*cmd, args);

  // CmdServe writes these itself right after its drain; for every other
  // command this is the first (and only) writer.
  const int write_rc = WriteObservabilityOutputs();
  return rc != 0 ? rc : write_rc;
}

}  // namespace
}  // namespace resuformer

int main(int argc, char** argv) { return resuformer::Run(argc, argv); }
