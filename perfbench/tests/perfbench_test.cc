// Tests for the benchmark's own logic: seeded inputs, the open-loop
// generator against a stalled server, the percentile rule and the quality
// scorer. Run with `python3 perfbench/run.py --selftest`.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "serve/framing.h"
#include "src/inputs.h"
#include "src/open_loop.h"
#include "src/quality.h"
#include "src/stats.h"

namespace perfbench {
namespace {

namespace doc = resuformer::doc;
namespace pipeline = resuformer::pipeline;
namespace serve = resuformer::serve;

// --- inputs -------------------------------------------------------------------

TEST(InputsTest, SameSeedGivesByteIdenticalInputs) {
  const auto a = MakeResumes(7, Stream::kServe, 0, 6);
  const auto b = MakeResumes(7, Stream::kServe, 0, 6);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].text, b[i].text);
    EXPECT_EQ(a[i].gold.document.sentence_labels,
              b[i].gold.document.sentence_labels);
    EXPECT_EQ(a[i].gold.entity_labels, b[i].gold.entity_labels);
  }
  EXPECT_EQ(PoissonDueOffsetsNs(7, 12.0, 100), PoissonDueOffsetsNs(7, 12.0, 100));
}

TEST(InputsTest, DifferentSeedGivesDifferentInputs) {
  const auto a = MakeResumes(7, Stream::kServe, 0, 6);
  const auto b = MakeResumes(8, Stream::kServe, 0, 6);
  int same = 0;
  for (size_t i = 0; i < a.size(); ++i) same += a[i].text == b[i].text ? 1 : 0;
  EXPECT_EQ(same, 0);
  EXPECT_NE(PoissonDueOffsetsNs(7, 12.0, 100), PoissonDueOffsetsNs(8, 12.0, 100));
  // Workload streams are independent of each other too.
  EXPECT_NE(MakeResume(7, Stream::kServe, 0).text,
            MakeResume(7, Stream::kBatch, 0).text);
}

TEST(InputsTest, ResumeDoesNotDependOnHowManyAreDrawn) {
  EXPECT_EQ(MakeResume(3, Stream::kBatch, 5).text,
            MakeResumes(3, Stream::kBatch, 0, 10)[5].text);
}

TEST(InputsTest, ScheduleKeepsRateAndSpanAcrossSeeds) {
  const int n = 240;
  const auto a = PoissonDueOffsetsNs(1, 12.0, n);
  const auto b = PoissonDueOffsetsNs(2, 12.0, n);
  ASSERT_EQ(a.size(), static_cast<size_t>(n));
  EXPECT_EQ(a.front(), 0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // Same gaps in another order: both schedules end at the same offset,
  // about n / rate seconds out (the last gap is not part of the span).
  std::vector<int64_t> gaps_a, gaps_b;
  for (int i = 1; i < n; ++i) {
    gaps_a.push_back(a[i] - a[i - 1]);
    gaps_b.push_back(b[i] - b[i - 1]);
  }
  EXPECT_NEAR(static_cast<double>(a.back()) / 1e9, n / 12.0, 1.0);
  EXPECT_NEAR(static_cast<double>(a.back()), static_cast<double>(b.back()),
              1e9);
}

// --- open loop against a stalled server ----------------------------------------

/// A loopback server that answers kParseV2 frames one at a time across all
/// connections (like a daemon with a single busy worker) and stalls once.
class StalledServer {
 public:
  StalledServer(int stall_request, int stall_ms)
      : stall_request_(stall_request), stall_ms_(stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    sockaddr generic{};
    std::memcpy(&generic, &addr, sizeof(addr));
    EXPECT_EQ(::bind(listen_fd_, &generic, sizeof(addr)), 0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, &generic, &len), 0);
    std::memcpy(&addr, &generic, sizeof(addr));
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~StalledServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    accept_thread_.join();
    for (std::thread& t : handlers_) t.join();
  }
  StalledServer(const StalledServer&) = delete;
  StalledServer& operator=(const StalledServer&) = delete;

  int port() const { return port_; }

 private:
  void AcceptLoop() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      handlers_.emplace_back([this, fd] { Handle(fd); });
    }
  }

  void Handle(int fd) {
    serve::Frame request;
    while (serve::ReadFrame(fd, &request).ok()) {
      std::lock_guard<std::mutex> lock(serve_mu_);  // one request at a time
      const int n = served_++;
      if (n == stall_request_) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
      }
      serve::Frame reply{serve::FrameKind::kOkV2, 0,
                         serve::EncodeIdPayload(n + 1, request.payload)};
      if (!serve::WriteFrame(fd, reply).ok()) break;
    }
    ::close(fd);
  }

  const int stall_request_;
  const int stall_ms_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::mutex serve_mu_;
  int served_ = 0;  // guarded by serve_mu_
  std::deque<std::thread> handlers_;  // only the accept thread appends
  std::thread accept_thread_;
};

TEST(OpenLoopTest, StallShowsAsDueTimeLatencyAndGeneratorLag) {
  constexpr int kRequests = 40;
  constexpr int kStallMs = 300;
  StalledServer server(/*stall_request=*/5, kStallMs);
  std::vector<int64_t> due;
  std::vector<std::string> payloads;
  for (int i = 0; i < kRequests; ++i) {
    due.push_back(int64_t{i} * 10'000'000);  // every 10 ms
    payloads.push_back("resume " + std::to_string(i));
  }
  auto result = RunOpenLoop(server.port(), due, payloads, /*connections=*/2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<RequestOutcome>& out = *result;
  ASSERT_EQ(out.size(), payloads.size());
  double max_due_ms = 0, max_lag_ms = 0, max_rtt_of_lagged_ms = 0;
  int lagged = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].ok);
    EXPECT_EQ(out[i].body, payloads[i]);
    const double due_ms = (out[i].done_ns - out[i].due_ns) / 1e6;
    const double lag_ms = (out[i].sent_ns - out[i].due_ns) / 1e6;
    max_due_ms = std::max(max_due_ms, due_ms);
    max_lag_ms = std::max(max_lag_ms, lag_ms);
    if (lag_ms > 100) {
      ++lagged;
      max_rtt_of_lagged_ms =
          std::max(max_rtt_of_lagged_ms, (out[i].done_ns - out[i].sent_ns) / 1e6);
    }
  }
  // The stalled request and the ones queued behind it carry the stall...
  EXPECT_GE(max_due_ms, kStallMs * 0.9);
  // ...and with both connections blocked, requests went out late.
  EXPECT_GE(max_lag_ms, kStallMs * 0.5);
  EXPECT_GE(lagged, 5);
  // Timing those from when they were sent would have hidden the stall.
  EXPECT_LT(max_rtt_of_lagged_ms, kStallMs * 0.5);
}

// --- percentiles ----------------------------------------------------------------

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, ReportsOnlyWithTenSamplesBeyond) {
  EXPECT_FALSE(Percentile(OneTo(999), 0.99).has_value());
  ASSERT_TRUE(Percentile(OneTo(1000), 0.99).has_value());
  EXPECT_NEAR(*Percentile(OneTo(1000), 0.99), 990.01, 1e-9);
  EXPECT_FALSE(Percentile(OneTo(199), 0.95).has_value());
  EXPECT_TRUE(Percentile(OneTo(200), 0.95).has_value());
  EXPECT_FALSE(Percentile(OneTo(19), 0.5).has_value());
  EXPECT_TRUE(Percentile(OneTo(20), 0.5).has_value());
  EXPECT_EQ(SamplesBeyond(240, 0.95), 12);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(PercentileTest, HistogramPercentileInterpolatesAndKeepsTheRule) {
  resuformer::metrics::MetricsSnapshot::HistogramValue h;
  // 100 samples in [512, 1023] and 100 in [1024, 2047].
  h.buckets = {{1023, 100}, {2047, 100}};
  h.count = 200;
  ASSERT_TRUE(HistogramPercentile(h, 0.5).has_value());
  EXPECT_NEAR(*HistogramPercentile(h, 0.5), 1023.0, 1e-9);
  EXPECT_NEAR(*HistogramPercentile(h, 0.75), 1535.5, 1e-9);
  EXPECT_FALSE(HistogramPercentile(h, 0.99).has_value());
}

// --- quality --------------------------------------------------------------------

doc::Sentence MakeSentence(std::initializer_list<const char*> words) {
  doc::Sentence s;
  for (const char* w : words) {
    doc::Token t;
    t.word = w;
    s.tokens.push_back(t);
  }
  return s;
}

struct HandBuiltResume {
  doc::Document document;
  std::vector<std::vector<int>> entities;
};

HandBuiltResume MakeHandBuiltResume() {
  using doc::BlockTag;
  using doc::EntityTag;
  HandBuiltResume r;
  r.document.sentences = {
      MakeSentence({"John", "Smith"}), MakeSentence({"Email:", "a@b.com"}),
      MakeSentence({"Hobbies"}), MakeSentence({"Education"}),
      MakeSentence({"MIT", "2010"})};
  r.document.sentence_labels = {
      doc::IobLabel(BlockTag::kPInfo, true), doc::IobLabel(BlockTag::kPInfo, false),
      doc::kOutsideLabel, doc::IobLabel(BlockTag::kEduExp, true),
      doc::IobLabel(BlockTag::kEduExp, false)};
  r.entities = {
      {doc::EntityIobLabel(EntityTag::kName, true),
       doc::EntityIobLabel(EntityTag::kName, false)},
      {0, doc::EntityIobLabel(EntityTag::kEmail, true)},
      {0},
      {0},
      {doc::EntityIobLabel(EntityTag::kCollege, true),
       doc::EntityIobLabel(EntityTag::kDate, true)}};
  return r;
}

TEST(QualityTest, ScoresAHandBuiltResume) {
  using doc::BlockTag;
  using doc::EntityTag;
  const HandBuiltResume gold = MakeHandBuiltResume();
  pipeline::StructuredResume parsed;
  // PInfo right with both entities; "Education" mis-tagged WorkExp; the MIT
  // line starts its own EduExp block with one right and one wrong entity.
  parsed.blocks.push_back({BlockTag::kPInfo,
                           {"John Smith", "Email: a@b.com"},
                           {{EntityTag::kName, "John Smith"},
                            {EntityTag::kEmail, "a@b.com"}}});
  parsed.blocks.push_back({BlockTag::kWorkExp, {"Education"}, {}});
  parsed.blocks.push_back({BlockTag::kEduExp,
                           {"MIT 2010"},
                           {{EntityTag::kCollege, "MIT"},
                            {EntityTag::kDate, "2011"}}});

  const std::vector<int> labels =
      SentenceLabelsFromParse(gold.document, parsed);
  EXPECT_EQ(labels, (std::vector<int>{
                        doc::IobLabel(BlockTag::kPInfo, true),
                        doc::IobLabel(BlockTag::kPInfo, false),
                        doc::kOutsideLabel,
                        doc::IobLabel(BlockTag::kWorkExp, true),
                        doc::IobLabel(BlockTag::kEduExp, true)}));

  QualityScorer scorer(/*max_sentences=*/64);
  scorer.Add(gold.document, gold.entities, parsed);
  EXPECT_DOUBLE_EQ(scorer.block_accuracy(), 3.0 / 5.0);
  const resuformer::eval::Prf prf = scorer.entity_prf();
  EXPECT_DOUBLE_EQ(prf.precision, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(prf.recall, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(prf.f1, 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(scorer.entities_per_doc(), 4.0);
  EXPECT_EQ(scorer.documents_without_entities(), 0);

  // Sentences the encoder cuts count as wrong, even where O would match.
  QualityScorer truncated(/*max_sentences=*/2);
  truncated.Add(gold.document, gold.entities, parsed);
  EXPECT_DOUBLE_EQ(truncated.block_accuracy(), 2.0 / 5.0);
}

TEST(QualityTest, GoldEntitiesSpanLines) {
  HandBuiltResume r = MakeHandBuiltResume();
  // Continue the email entity onto the next line.
  r.entities[2] = {doc::EntityIobLabel(doc::EntityTag::kEmail, false)};
  const std::vector<Entity> gold = GoldEntities(r.document, r.entities);
  ASSERT_EQ(gold.size(), 4u);
  EXPECT_EQ(gold[1], Entity(doc::EntityTag::kEmail, "a@b.com Hobbies"));
}

}  // namespace
}  // namespace perfbench
