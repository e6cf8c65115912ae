// Bounded-runtime smoke tests for the inference fast path (ctest label
// perf_smoke): the batched Parse over generated resumes reproduces serial
// Parse exactly, and disabled instrumentation stays near-free.

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "pipeline/pipeline.h"
#include "resumegen/corpus.h"
#include "tensor/arena.h"

namespace resuformer {
namespace {

resumegen::Corpus SmallCorpus() {
  resumegen::CorpusConfig ccfg;
  ccfg.pretrain_docs = 4;
  ccfg.train_docs = 6;
  ccfg.val_docs = 2;
  ccfg.test_docs = 4;
  ccfg.seed = 99;
  return resumegen::GenerateCorpus(ccfg);
}

core::ResuFormerConfig SmallModelConfig() {
  core::ResuFormerConfig cfg;
  cfg.hidden = 16;
  cfg.sentence_layers = 1;
  cfg.document_layers = 1;
  cfg.num_heads = 2;
  cfg.ffn = 32;
  cfg.max_tokens_per_sentence = 12;
  cfg.max_sentences = 32;
  cfg.lstm_hidden = 12;
  return cfg;
}

TEST(PerfSmokeTest, ParseBatchMatchesSerialParse) {
  const resumegen::Corpus corpus = SmallCorpus();

  pipeline::PipelineOptions options;
  options.model = SmallModelConfig();
  options.ner.hidden = 16;
  options.ner.layers = 1;
  options.ner.num_heads = 2;
  options.ner.ffn = 32;
  options.ner.max_tokens = 40;
  options.ner.lstm_hidden = 8;
  options.vocab_size = 400;
  options.pretrain_epochs = 1;
  options.pretrain_batch = 2;
  options.finetune.epochs = 2;
  options.finetune.patience = 2;
  options.selftrain.teacher_epochs = 1;
  options.selftrain.teacher_patience = 1;
  options.selftrain.iterations = 1;
  options.ner_data.train_sequences = 20;
  options.ner_data.val_sequences = 8;
  options.ner_data.test_sequences = 8;

  auto pipeline =
      pipeline::ResuFormerPipeline::TrainFromCorpus(corpus, options, nullptr);
  ASSERT_NE(pipeline, nullptr);

  std::vector<pipeline::ParseRequest> requests(corpus.test.size());
  for (size_t d = 0; d < requests.size(); ++d) {
    requests[d].document = corpus.test[d].document;
  }

  const std::vector<pipeline::ParseResponse> batched =
      pipeline->Parse(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t d = 0; d < requests.size(); ++d) {
    const pipeline::StructuredResume serial =
        pipeline->Parse(requests[d]).resume;
    ASSERT_TRUE(batched[d].ok()) << batched[d].status.ToString();
    EXPECT_EQ(pipeline::ResuFormerPipeline::ToPrettyString(batched[d].resume),
              pipeline::ResuFormerPipeline::ToPrettyString(serial))
        << "doc " << d;
  }

  // Inference must not leak arena buffers: everything acquired during the
  // batched parse has been returned (live model parameters are accounted in
  // the baseline taken before the parse would be — compare deltas instead).
  const int64_t outstanding_before = TensorArena::Global().stats().outstanding;
  { (void)pipeline->Parse(requests); }
  EXPECT_EQ(TensorArena::Global().stats().outstanding, outstanding_before);

  // A want_stats parse returns the same resume as a plain one plus sane
  // measurements, and enabling the full observability stack must not
  // change results.
  metrics::MetricsRegistry::Global().SetEnabled(true);
  trace::TraceRecorder::Global().SetEnabled(true);
  pipeline::ParseRequest stats_request = requests[0];
  stats_request.want_stats = true;
  const pipeline::ParseResponse with_stats = pipeline->Parse(stats_request);
  metrics::MetricsRegistry::Global().SetEnabled(false);
  trace::TraceRecorder::Global().SetEnabled(false);
  trace::TraceRecorder::Global().Reset();
  const pipeline::StructuredResume plain = pipeline->Parse(requests[0]).resume;
  ASSERT_EQ(with_stats.resume.blocks.size(), plain.blocks.size());
  EXPECT_EQ(with_stats.stats.num_blocks,
            static_cast<int>(plain.blocks.size()));
  EXPECT_GT(with_stats.stats.num_sentences, 0);
  EXPECT_GT(with_stats.stats.wall_time_us, 0.0);
  EXPECT_GE(with_stats.stats.arena_hit_rate, 0.0);
  EXPECT_LE(with_stats.stats.arena_hit_rate, 1.0);
}

TEST(PerfSmokeTest, DisabledInstrumentationIsCheap) {
  // The off-path contract: a disabled TRACE_SPAN is one relaxed atomic load
  // and a branch. 10M of them must finish far inside a second even on a
  // loaded CI machine (the real <2% regression gate rides on bench_micro's
  // BENCH_MICRO.json; this guards against order-of-magnitude mistakes like
  // reading the clock while disabled).
  trace::TraceRecorder::Global().SetEnabled(false);
  metrics::MetricsRegistry::Global().SetEnabled(false);
  constexpr int kIterations = 10'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    TRACE_SPAN("perf.noop");
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Sanitizers instrument every atomic load, inflating the off-path by an
  // order of magnitude on their own; keep the guard meaningful there
  // without making it flaky on a loaded single-core runner.
#if !defined(RF_UNDER_SANITIZER) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define RF_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define RF_UNDER_SANITIZER 1
#endif
#if defined(RF_UNDER_SANITIZER)
  constexpr double kBudgetSeconds = 10.0;
#else
  constexpr double kBudgetSeconds = 1.0;
#endif
  EXPECT_LT(seconds, kBudgetSeconds)
      << "disabled TRACE_SPAN is not near-zero cost";
}

}  // namespace
}  // namespace resuformer
