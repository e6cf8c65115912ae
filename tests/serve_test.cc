// Serving-path tests: admission-queue coalescing, deadlines, backpressure,
// graceful drain, framing, and a loopback end-to-end run against the socket
// endpoint. Labeled `serve` (tier-1 selective runs) and `stress` (the TSan
// preset's concurrency pass) — every test here is written to be race-free
// under ThreadSanitizer.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "gtest/gtest.h"
#include "pipeline/pipeline.h"
#include "resumegen/corpus.h"
#include "serve/endpoint.h"
#include "serve/framing.h"
#include "serve/server.h"
#include "serve/text_document.h"

namespace resuformer {
namespace serve {
namespace {

using pipeline::ParseRequest;
using pipeline::ParseResponse;
using pipeline::PipelineOptions;
using pipeline::ResuFormerPipeline;

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
  options.finetune.epochs = 6;
  options.finetune.patience = 6;
  options.selftrain.teacher_epochs = 3;
  options.selftrain.teacher_patience = 3;
  options.selftrain.iterations = 1;
  options.ner_data.train_sequences = 60;
  options.ner_data.val_sequences = 15;
  options.ner_data.test_sequences = 15;
  return options;
}

struct ServeEnv {
  ServeEnv() {
    resumegen::CorpusConfig ccfg;
    ccfg.pretrain_docs = 6;
    ccfg.train_docs = 10;
    ccfg.val_docs = 4;
    ccfg.test_docs = 6;
    ccfg.seed = 77;
    const resumegen::Corpus corpus = resumegen::GenerateCorpus(ccfg);
    pipeline =
        ResuFormerPipeline::TrainFromCorpus(corpus, TinyOptions(), nullptr);
    for (const auto& r : corpus.test) documents.push_back(r.document);
  }
  std::unique_ptr<ResuFormerPipeline> pipeline;
  std::vector<doc::Document> documents;  // held-out resumes to parse
};

/// One tiny trained pipeline shared by every test in this binary — training
/// dominates runtime, parsing does not. Intentionally leaked.
const ServeEnv& GetEnv() {
  static const ServeEnv* env = new ServeEnv();
  return *env;
}

ParseRequest RequestFor(const doc::Document& document) {
  ParseRequest request;
  request.document = document;
  return request;
}

/// Batches of more than one request recorded in `hist`: sizes >= 2 land in
/// log2 buckets 2 and above (bucket 1 holds [1, 2)). The instruments are
/// process-global, so tests assert on deltas of this, not on absolutes.
int64_t MultiRequestBatches(const metrics::Histogram* hist) {
  int64_t total = 0;
  for (int b = 2; b < metrics::Histogram::kNumBuckets; ++b) {
    total += hist->bucket_count(b);
  }
  return total;
}

/// Loopback client connection to 127.0.0.1:`port` (asserts on failure).
int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  // rf-lint-allow(mmap-payload-cast): POSIX sockets calling convention.
  const sockaddr* addr_ptr = reinterpret_cast<const sockaddr*>(&addr);
  EXPECT_EQ(::connect(fd, addr_ptr, sizeof(addr)), 0);
  return fd;
}

// ---------------------------------------------------------------------------
// ServerOptions

TEST(ServerOptionsTest, ValidateNamesTheOffendingParameter) {
  ServerOptions options;
  EXPECT_TRUE(options.Validate().ok());

  options.max_batch = 0;
  EXPECT_NE(options.Validate().ToString().find("max_batch"),
            std::string::npos);
  options = ServerOptions{};
  options.max_queue_delay_ms = -3;
  EXPECT_NE(options.Validate().ToString().find("max_queue_delay_ms"),
            std::string::npos);
  options = ServerOptions{};
  options.queue_capacity = 0;
  EXPECT_NE(options.Validate().ToString().find("queue_capacity"),
            std::string::npos);
  options = ServerOptions{};
  options.workers = 0;
  EXPECT_NE(options.Validate().ToString().find("workers"), std::string::npos);
  options = ServerOptions{};
  options.stats_window_ms = 5;  // below the 10ms epoch-split floor
  EXPECT_NE(options.Validate().ToString().find("stats_window_ms"),
            std::string::npos);
  options = ServerOptions{};
  options.slow_trace_us = -1;
  EXPECT_NE(options.Validate().ToString().find("slow_trace_us"),
            std::string::npos);
}

TEST(ServerOptionsTest, FromRuntimeCopiesTheServeKnobs) {
  RuntimeOptions rt;
  rt.serve_max_batch = 31;
  rt.serve_max_queue_delay_ms = 17;
  rt.serve_queue_capacity = 99;
  rt.serve_workers = 5;
  rt.serve_stats_window_ms = 1234;
  rt.serve_slow_trace_us = 777;
  rt.serve_slow_trace_dir = "/tmp/exemplars";
  const ServerOptions options = ServerOptions::FromRuntime(rt);
  EXPECT_EQ(options.max_batch, 31);
  EXPECT_EQ(options.max_queue_delay_ms, 17);
  EXPECT_EQ(options.queue_capacity, 99);
  EXPECT_EQ(options.workers, 5);
  EXPECT_EQ(options.stats_window_ms, 1234);
  EXPECT_EQ(options.slow_trace_us, 777);
  EXPECT_EQ(options.slow_trace_dir, "/tmp/exemplars");
}

// ---------------------------------------------------------------------------
// Text <-> Document bridge

TEST(TextDocumentTest, RoundTripPreservesLinesAndTokens) {
  const std::string text = "John Smith\nEmail: john@example.com\n\nSkills";
  const doc::Document document = DocumentFromText(text);
  ASSERT_EQ(document.sentences.size(), 3u);  // blank line yields no sentence
  EXPECT_EQ(document.sentences[0].tokens.size(), 2u);
  EXPECT_EQ(document.sentences[1].tokens.size(), 2u);
  EXPECT_EQ(document.sentences[2].tokens.size(), 1u);
  EXPECT_EQ(DocumentToText(document),
            "John Smith\nEmail: john@example.com\nSkills");

  // Deterministic geometry: the same text always lays out identically.
  const doc::Document again = DocumentFromText(text);
  ASSERT_EQ(again.sentences.size(), document.sentences.size());
  for (size_t i = 0; i < document.sentences.size(); ++i) {
    EXPECT_FLOAT_EQ(again.sentences[i].box.x0, document.sentences[i].box.x0);
    EXPECT_FLOAT_EQ(again.sentences[i].box.y0, document.sentences[i].box.y0);
  }
}

TEST(TextDocumentTest, LongTextWrapsToMultiplePages) {
  std::string text;
  for (int i = 0; i < 120; ++i) text += "line " + std::to_string(i) + "\n";
  const doc::Document document = DocumentFromText(text);
  EXPECT_EQ(document.sentences.size(), 120u);
  EXPECT_GT(document.num_pages, 1);
}

// ---------------------------------------------------------------------------
// Framing

TEST(FramingTest, RoundTripOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  Frame out;
  out.kind = FrameKind::kParse;
  out.deadline_ms = 250;
  out.payload = "John Smith\nEmail: j@x.com";
  ASSERT_TRUE(WriteFrame(fds[1], out).ok());

  Frame in;
  ASSERT_TRUE(ReadFrame(fds[0], &in).ok());
  EXPECT_EQ(in.kind, FrameKind::kParse);
  EXPECT_EQ(in.deadline_ms, 250u);
  EXPECT_EQ(in.payload, out.payload);

  // Clean EOF at a frame boundary is NotFound (normal connection end)...
  ::close(fds[1]);
  const Status eof = ReadFrame(fds[0], &in);
  EXPECT_EQ(eof.code(), StatusCode::kNotFound);
  ::close(fds[0]);
}

TEST(FramingTest, TruncatedFrameIsAnIoError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // A header promising 100 payload bytes, then EOF.
  const unsigned char header[9] = {100, 0, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::write(fds[1], header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  ::close(fds[1]);
  Frame in;
  const Status truncated = ReadFrame(fds[0], &in);
  EXPECT_EQ(truncated.code(), StatusCode::kIoError);
  ::close(fds[0]);
}

TEST(FramingTest, OversizedLengthPrefixIsRejectedWithoutAllocating) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const uint32_t huge = kMaxFramePayload + 1;
  const unsigned char header[9] = {
      static_cast<unsigned char>(huge),       static_cast<unsigned char>(huge >> 8),
      static_cast<unsigned char>(huge >> 16), static_cast<unsigned char>(huge >> 24),
      0, 0, 0, 0, 0};
  ASSERT_EQ(::write(fds[1], header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  Frame in;
  const Status rejected = ReadFrame(fds[0], &in);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  ::close(fds[0]);
  ::close(fds[1]);

  Frame oversized;
  oversized.kind = FrameKind::kOk;
  oversized.payload.resize(kMaxFramePayload + 1);
  EXPECT_EQ(WriteFrame(-1, oversized).code(), StatusCode::kInvalidArgument);
}

TEST(FramingTest, ProtocolV2KindsRoundTrip) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  for (const FrameKind kind : {FrameKind::kStats, FrameKind::kHealth,
                               FrameKind::kParseV2, FrameKind::kOkV2,
                               FrameKind::kErrorV2}) {
    Frame out;
    out.kind = kind;
    out.payload = "payload";
    ASSERT_TRUE(WriteFrame(fds[1], out).ok());
    Frame in;
    ASSERT_TRUE(ReadFrame(fds[0], &in).ok());
    EXPECT_EQ(in.kind, kind);
    EXPECT_EQ(in.payload, "payload");
  }
  // One past the newest kind is still a malformed frame.
  const unsigned char unknown_kind[9] = {0, 0, 0, 0, 9, 0, 0, 0, 0};
  ASSERT_EQ(::write(fds[1], unknown_kind, sizeof(unknown_kind)),
            static_cast<ssize_t>(sizeof(unknown_kind)));
  Frame in;
  EXPECT_EQ(ReadFrame(fds[0], &in).code(), StatusCode::kInvalidArgument);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FramingTest, IdPayloadRoundTrips) {
  const std::string encoded =
      EncodeIdPayload(0x0123456789abcdef, "resume body");
  ASSERT_EQ(encoded.size(), 8u + 11u);
  int64_t id = 0;
  std::string body;
  ASSERT_TRUE(DecodeIdPayload(encoded, &id, &body).ok());
  EXPECT_EQ(id, 0x0123456789abcdef);
  EXPECT_EQ(body, "resume body");

  // Empty body and id 0 both survive.
  ASSERT_TRUE(DecodeIdPayload(EncodeIdPayload(0, ""), &id, &body).ok());
  EXPECT_EQ(id, 0);
  EXPECT_TRUE(body.empty());

  // A payload shorter than the id prefix is malformed, not a crash.
  EXPECT_EQ(DecodeIdPayload("1234567", &id, &body).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// ParseServer admission queue

TEST(ParseServerTest, CoalescesABurstIntoMicroBatches) {
  const ServeEnv& env = GetEnv();
  metrics::MetricsRegistry::Global().SetEnabled(true);
  metrics::Histogram* batch_size =
      metrics::MetricsRegistry::Global().GetHistogram("serve.batch_size");
  const int64_t batches_before = batch_size->count();
  const int64_t multi_before = MultiRequestBatches(batch_size);

  ServerOptions options;
  options.max_batch = 8;
  options.max_queue_delay_ms = 40;
  options.queue_capacity = 256;
  options.workers = 1;  // one worker: the burst must coalesce, not fan out
  ParseServer server(env.pipeline.get(), options);

  constexpr int kBurst = 16;
  std::vector<std::future<ParseResponse>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(server.Submit(
        RequestFor(env.documents[i % env.documents.size()])));
  }
  for (auto& future : futures) {
    const ParseResponse response = future.get();
    EXPECT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_FALSE(response.resume.blocks.empty());
  }
  server.Shutdown();

  EXPECT_GT(batch_size->count(), batches_before);
  // 16 requests admitted faster than one 40ms flush window against a single
  // worker: at least one micro-batch holds more than one request.
  EXPECT_GT(MultiRequestBatches(batch_size), multi_before);
}

TEST(ParseServerTest, ExpiredDeadlineIsRejectedWithoutKillingTheWorker) {
  const ServeEnv& env = GetEnv();
  ServerOptions options;
  options.max_batch = 4;
  options.max_queue_delay_ms = 1;
  options.workers = 1;
  ParseServer server(env.pipeline.get(), options);

  ParseRequest expired = RequestFor(env.documents[0]);
  expired.deadline_ns = trace::NowNs() - 1;  // already past on admission
  const ParseResponse rejected = server.Submit(std::move(expired)).get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kDeadlineExceeded);

  // The worker that served the rejection still parses the next request.
  const ParseResponse good =
      server.Submit(RequestFor(env.documents[0])).get();
  EXPECT_TRUE(good.ok()) << good.status.ToString();
  EXPECT_FALSE(good.resume.blocks.empty());
  server.Shutdown();
}

TEST(ParseServerTest, BackpressureAtQueueCapacity) {
  const ServeEnv& env = GetEnv();
  metrics::Counter* rejected_counter =
      metrics::MetricsRegistry::Global().GetCounter("serve.rejected.queue_full");
  const int64_t rejected_before = rejected_counter->value();

  ServerOptions options;
  options.max_batch = 16;             // larger than capacity: no early flush
  options.max_queue_delay_ms = 5000;  // the worker parks until drain
  options.queue_capacity = 2;
  options.workers = 1;
  ParseServer server(env.pipeline.get(), options);

  auto first = server.Submit(RequestFor(env.documents[0]));
  auto second = server.Submit(RequestFor(env.documents[1]));
  auto third = server.Submit(RequestFor(env.documents[2]));

  // The queue holds two; the third is rejected immediately (future ready).
  const ParseResponse overflow = third.get();
  EXPECT_EQ(overflow.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected_counter->value(), rejected_before + 1);

  // Shutdown flushes the queued pair without waiting out the 5s delay.
  server.Shutdown();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
}

TEST(ParseServerTest, GracefulDrainReturnsEveryInFlightResponse) {
  const ServeEnv& env = GetEnv();
  ServerOptions options;
  options.max_batch = 4;
  options.max_queue_delay_ms = 5000;  // only drain flushes the queue
  options.queue_capacity = 256;
  options.workers = 2;
  auto server = std::make_unique<ParseServer>(env.pipeline.get(), options);

  constexpr int kInFlight = 24;
  std::vector<std::future<ParseResponse>> futures;
  futures.reserve(kInFlight);
  for (int i = 0; i < kInFlight; ++i) {
    futures.push_back(server->Submit(
        RequestFor(env.documents[i % env.documents.size()])));
  }
  server->Shutdown();

  int completed = 0;
  for (auto& future : futures) {
    const ParseResponse response = future.get();  // never blocks forever
    EXPECT_TRUE(response.ok()) << response.status.ToString();
    ++completed;
  }
  EXPECT_EQ(completed, kInFlight);  // zero lost requests

  // Admission after shutdown fails fast with Unavailable.
  const ParseResponse late =
      server->Submit(RequestFor(env.documents[0])).get();
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
  server.reset();
}

TEST(ParseServerTest, AssignsMonotonicRequestIds) {
  const ServeEnv& env = GetEnv();
  ServerOptions options;
  options.max_batch = 4;
  options.max_queue_delay_ms = 1;
  options.workers = 1;
  ParseServer server(env.pipeline.get(), options);

  const ParseResponse first = server.ParseSync(RequestFor(env.documents[0]));
  const ParseResponse second = server.ParseSync(RequestFor(env.documents[1]));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first.request_id, 0);
  EXPECT_GT(second.request_id, first.request_id);

  // Rejected requests carry ids too: correlatable failures.
  server.Shutdown();
  const ParseResponse late = server.ParseSync(RequestFor(env.documents[0]));
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(late.request_id, second.request_id);
}

TEST(ParseServerTest, StatsJsonReportsStateAndWindowedPercentiles) {
  const ServeEnv& env = GetEnv();
  metrics::MetricsRegistry::Global().SetEnabled(true);
  ServerOptions options;
  options.max_batch = 4;
  options.max_queue_delay_ms = 1;
  options.workers = 1;
  options.stats_window_ms = 100;  // 10 epochs x 10ms: expires fast
  ParseServer server(env.pipeline.get(), options);

  ASSERT_TRUE(server.ParseSync(RequestFor(env.documents[0])).ok());
  EXPECT_EQ(server.state(), ServerState::kServing);
  EXPECT_GT(server.uptime_ns(), 0);

  std::string json = server.StatsJson();
  const auto IntOf = [&json](const char* key) {
    std::string needle = "\"";
    needle += key;
    needle += "\": ";
    const size_t at = json.find(needle);
    EXPECT_NE(at, std::string::npos) << key << " missing in " << json;
    if (at == std::string::npos) return int64_t{-1};
    return static_cast<int64_t>(
        std::strtoll(json.c_str() + at + needle.size(), nullptr, 10));
  };
  EXPECT_NE(json.find("\"state\": \"ok\""), std::string::npos);
  EXPECT_GE(IntOf("requests"), 1);
  EXPECT_EQ(IntOf("window_ms"), 100);
  // The parse just happened: it is inside the 100ms window, and the rolling
  // percentiles are live even though they come from the always-on path.
  EXPECT_GE(IntOf("window_e2e_count"), 1);
  EXPECT_GT(IntOf("window_e2e_p99_us"), 0);
  const int64_t cumulative = IntOf("e2e_count");
  EXPECT_GE(cumulative, 1);

  // Windowed percentiles reflect ONLY the window: after it rolls past, the
  // windowed count returns to zero while the cumulative stats persist.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  json = server.StatsJson();
  EXPECT_EQ(IntOf("window_e2e_count"), 0);
  EXPECT_EQ(IntOf("window_e2e_p99_us"), 0);
  EXPECT_GE(IntOf("e2e_count"), cumulative);

  // Prometheus rendition of the same plane.
  const std::string prom = server.StatsPrometheus();
  EXPECT_NE(prom.find("resuformer_serve_uptime_seconds"), std::string::npos);
  EXPECT_NE(prom.find("resuformer_serve_draining 0"), std::string::npos);
  EXPECT_NE(prom.find("resuformer_serve_window_e2e_p99_us"),
            std::string::npos);

  server.Shutdown();
  EXPECT_EQ(server.state(), ServerState::kStopped);
  EXPECT_NE(server.StatsJson().find("\"state\": \"unavailable\""),
            std::string::npos);
}

TEST(ParseServerTest, SlowTraceThresholdWritesALoadableExemplar) {
  const ServeEnv& env = GetEnv();
  trace::TraceRecorder::Global().SetEnabled(true);
  trace::TraceRecorder::Global().Reset();

  const std::string dir = ::testing::TempDir() + "/slow-trace-exemplars";
  std::filesystem::remove_all(dir);

  ServerOptions options;
  options.max_batch = 4;
  options.max_queue_delay_ms = 1;
  options.workers = 1;
  options.slow_trace_us = 1;  // every request is "slow"
  options.slow_trace_dir = dir;
  ParseServer server(env.pipeline.get(), options);

  const ParseResponse response =
      server.ParseSync(RequestFor(env.documents[0]));
  ASSERT_TRUE(response.ok());

  // Capture runs before the response future is fulfilled, so the exemplar
  // is on disk by the time ParseSync returns.
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 1u);
  const std::string name = files[0].filename().string();
  EXPECT_EQ(name.rfind("slow-req-", 0), 0u) << name;
  EXPECT_NE(name.find("us.json"), std::string::npos) << name;

  std::ifstream in(files[0]);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The request's pipeline span, annotated with its id.
  EXPECT_NE(json.find("\"pipeline.request\""), std::string::npos);
  EXPECT_NE(json.find("\"request_id\": " +
                      std::to_string(response.request_id)),
            std::string::npos);

  // Counted, and rate-limited: an immediate second slow request inside the
  // 1s min-gap does not produce a second file.
  EXPECT_GE(metrics::MetricsRegistry::Global()
                .GetCounter("serve.slow_traces")
                ->value(),
            1);
  ASSERT_TRUE(server.ParseSync(RequestFor(env.documents[1])).ok());
  files.clear();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  EXPECT_EQ(files.size(), 1u);

  server.Shutdown();
  trace::TraceRecorder::Global().SetEnabled(false);
  trace::TraceRecorder::Global().Reset();
  std::filesystem::remove_all(dir);
}

TEST(ParseServerTest, ServePathMatchesDirectBatchParse) {
  const ServeEnv& env = GetEnv();
  ServerOptions options;
  options.max_batch = 4;
  options.max_queue_delay_ms = 10;
  options.workers = 2;
  ParseServer server(env.pipeline.get(), options);

  std::vector<std::future<ParseResponse>> futures;
  for (const doc::Document& document : env.documents) {
    futures.push_back(server.Submit(RequestFor(document)));
  }
  std::vector<ParseRequest> direct_requests;
  for (const doc::Document& document : env.documents) {
    direct_requests.push_back(RequestFor(document));
  }
  const std::vector<ParseResponse> direct =
      env.pipeline->Parse(direct_requests);
  ASSERT_EQ(direct.size(), futures.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    const ParseResponse response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_EQ(ResuFormerPipeline::ToPrettyString(response.resume),
              ResuFormerPipeline::ToPrettyString(direct[i].resume))
        << "serve-path parse diverged for document " << i;
  }
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Loopback end-to-end: >= 64 concurrent requests through the socket
// endpoint, responses identical to one-shot parses, batches > 1, expired
// deadlines rejected, shutdown drains losslessly.

TEST(LoopbackEndToEndTest, ConcurrentClientsMatchOneShotParses) {
  const ServeEnv& env = GetEnv();
  metrics::MetricsRegistry::Global().SetEnabled(true);
  metrics::Histogram* batch_size =
      metrics::MetricsRegistry::Global().GetHistogram("serve.batch_size");
  const int64_t multi_before = MultiRequestBatches(batch_size);

  ServerOptions options;
  options.max_batch = 8;
  options.max_queue_delay_ms = 25;
  options.queue_capacity = 256;
  options.workers = 2;
  ParseServer server(env.pipeline.get(), options);
  SocketEndpoint endpoint(&server);
  const Result<int> bound = endpoint.Start(0);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const int port = bound.value();

  // Expected responses: one-shot parses of the same text-derived documents.
  std::vector<std::string> texts;
  std::vector<std::string> expected;
  for (const doc::Document& document : env.documents) {
    texts.push_back(DocumentToText(document));
    ParseRequest request;
    request.document = DocumentFromText(texts.back());
    const ParseResponse direct = env.pipeline->Parse(request);
    ASSERT_TRUE(direct.ok());
    expected.push_back(ResuFormerPipeline::ToPrettyString(direct.resume));
  }

  auto connect = [port]() { return ConnectTo(port); };

  // Admin poller: hammers kStats / kHealth on its own connection while all
  // 16 clients parse. Admin frames bypass the admission queue, so every
  // poll must answer promptly and well-formed even under full parse load.
  std::atomic<bool> polling_done{false};
  std::atomic<int> poll_failures{0};
  std::atomic<int> polls{0};
  std::thread poller([&] {
    const int fd = connect();
    // acquire: pairs with the release store after the clients join.
    while (!polling_done.load(std::memory_order_acquire)) {
      Frame stats;
      stats.kind = FrameKind::kStats;
      Frame reply;
      if (!WriteFrame(fd, stats).ok() || !ReadFrame(fd, &reply).ok() ||
          reply.kind != FrameKind::kOk ||
          reply.payload.find("\"queue_depth\"") == std::string::npos ||
          reply.payload.find("\"window_e2e_p99_us\"") == std::string::npos) {
        poll_failures.fetch_add(1);
        break;
      }
      Frame health;
      health.kind = FrameKind::kHealth;
      if (!WriteFrame(fd, health).ok() || !ReadFrame(fd, &reply).ok() ||
          reply.kind != FrameKind::kOk || reply.payload != "ok") {
        poll_failures.fetch_add(1);
        break;
      }
      polls.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(fd);
  });

  constexpr int kClients = 16;
  constexpr int kRequestsPerClient = 4;  // 64 total
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect();
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const size_t doc = (c + r) % texts.size();
        Frame request;
        request.kind = FrameKind::kParse;
        request.payload = texts[doc];
        if (!WriteFrame(fd, request).ok()) {
          failures.fetch_add(1);
          break;
        }
        Frame response;
        if (!ReadFrame(fd, &response).ok() ||
            response.kind != FrameKind::kOk) {
          failures.fetch_add(1);
          break;
        }
        if (response.payload != expected[doc]) mismatches.fetch_add(1);
      }
      ::close(fd);
    });
  }
  for (std::thread& client : clients) client.join();
  // release: pairs with the poller's acquire poll of the done flag.
  polling_done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(poll_failures.load(), 0);
  EXPECT_GE(polls.load(), 1);
  // 64 concurrent requests against a 25ms flush window: cross-request
  // batching must have produced at least one batch of more than one.
  EXPECT_GT(MultiRequestBatches(batch_size), multi_before);

  // Deadline phase: a lone request with a 1ms budget waits out the 25ms
  // flush window in the (otherwise empty) queue and must come back as a
  // DeadlineExceeded error — and the connection keeps working after.
  {
    const int fd = connect();
    Frame request;
    request.kind = FrameKind::kParse;
    request.deadline_ms = 1;
    request.payload = texts[0];
    ASSERT_TRUE(WriteFrame(fd, request).ok());
    Frame response;
    ASSERT_TRUE(ReadFrame(fd, &response).ok());
    EXPECT_EQ(response.kind, FrameKind::kError);
    EXPECT_NE(response.payload.find("DeadlineExceeded"), std::string::npos)
        << response.payload;

    Frame retry;
    retry.kind = FrameKind::kParse;
    retry.payload = texts[0];
    ASSERT_TRUE(WriteFrame(fd, retry).ok());
    ASSERT_TRUE(ReadFrame(fd, &response).ok());
    EXPECT_EQ(response.kind, FrameKind::kOk);
    EXPECT_EQ(response.payload, expected[0]);
    ::close(fd);
  }

  // Shutdown phase: the kShutdown frame is acked and unblocks
  // WaitForShutdownRequest; teardown drains with nothing lost.
  {
    const int fd = connect();
    Frame request;
    request.kind = FrameKind::kShutdown;
    ASSERT_TRUE(WriteFrame(fd, request).ok());
    Frame response;
    ASSERT_TRUE(ReadFrame(fd, &response).ok());
    EXPECT_EQ(response.kind, FrameKind::kOk);
    ::close(fd);
  }
  endpoint.WaitForShutdownRequest();  // returns without blocking
  endpoint.Stop();
  server.Shutdown();
  EXPECT_EQ(server.queue_depth(), 0);
}

TEST(LoopbackEndToEndTest, ParseV2EchoesMonotonicRequestIds) {
  const ServeEnv& env = GetEnv();
  ServerOptions options;
  options.max_batch = 4;
  options.max_queue_delay_ms = 1;
  options.workers = 1;
  ParseServer server(env.pipeline.get(), options);
  SocketEndpoint endpoint(&server);
  const Result<int> bound = endpoint.Start(0);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  const std::string text = DocumentToText(env.documents[0]);
  ParseRequest direct_request;
  direct_request.document = DocumentFromText(text);
  const ParseResponse direct = env.pipeline->Parse(direct_request);
  ASSERT_TRUE(direct.ok());
  const std::string expected =
      ResuFormerPipeline::ToPrettyString(direct.resume);

  const int fd = ConnectTo(bound.value());
  int64_t previous_id = 0;
  for (int i = 0; i < 3; ++i) {
    Frame request;
    request.kind = FrameKind::kParseV2;
    request.payload = text;
    ASSERT_TRUE(WriteFrame(fd, request).ok());
    Frame response;
    ASSERT_TRUE(ReadFrame(fd, &response).ok());
    ASSERT_EQ(response.kind, FrameKind::kOkV2);
    int64_t id = 0;
    std::string body;
    ASSERT_TRUE(DecodeIdPayload(response.payload, &id, &body).ok());
    EXPECT_EQ(body, expected);
    EXPECT_GT(id, previous_id);  // server-assigned, strictly increasing
    previous_id = id;
  }

  // Both protocol versions coexist on one connection: a v1 kParse after
  // the v2 exchanges still answers plain kOk with no id prefix.
  Frame v1;
  v1.kind = FrameKind::kParse;
  v1.payload = text;
  ASSERT_TRUE(WriteFrame(fd, v1).ok());
  Frame v1_response;
  ASSERT_TRUE(ReadFrame(fd, &v1_response).ok());
  EXPECT_EQ(v1_response.kind, FrameKind::kOk);
  EXPECT_EQ(v1_response.payload, expected);  // no id prefix on v1

  ::close(fd);
  endpoint.Stop();
  server.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace resuformer
