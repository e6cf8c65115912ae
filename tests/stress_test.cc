// Concurrency stress suite (ctest label: stress).
//
// These tests hammer the shared runtime pieces — thread pool, metrics
// registry, tracer rings, tensor arena, batched inference — from many
// threads at once. They assert functional correctness (sums match, counts
// balance, results equal serial execution), but their main job is to give
// ThreadSanitizer something to chew on: the tsan preset runs this suite and
// must report zero races.
//
//   cmake --preset tsan && cmake --build build-tsan -j
//   cd build-tsan && ctest -L stress --output-on-failure
//
// The misuse death tests double as documentation of the SetNumThreads
// contract: configure the pool at startup or between dispatches, never from
// inside a ParallelFor body and never while another thread is dispatching.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "pipeline/pipeline.h"
#include "tensor/arena.h"

namespace resuformer {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(StressThreadPool, RepeatedParallelForPerWorkerAccumulation) {
  ThreadPool& pool = ThreadPool::Global();
  pool.SetNumThreads(4);
  constexpr int64_t kCount = 100000;
  constexpr int64_t kWant = kCount * (kCount - 1) / 2;
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<int64_t> sums(4, 0);
    pool.ParallelFor(kCount, [&](int worker, int64_t begin, int64_t end) {
      int64_t s = 0;
      for (int64_t i = begin; i < end; ++i) s += i;
      sums[worker] += s;
    });
    const int64_t total = std::accumulate(sums.begin(), sums.end(), int64_t{0});
    ASSERT_EQ(total, kWant) << "iteration " << iter;
  }
  pool.SetNumThreads(1);
}

// Several external (non-pool) threads dispatch at once. At most one claims
// the pool; the rest run their bodies inline on the caller. Either way every
// dispatch must compute the same total.
TEST(StressThreadPool, ConcurrentExternalDispatchesStayCorrect) {
  ThreadPool& pool = ThreadPool::Global();
  pool.SetNumThreads(4);
  constexpr int64_t kCount = 10000;
  constexpr int64_t kWant = kCount * (kCount - 1) / 2;
  constexpr int kCallers = 4;
  constexpr int kItersPerCaller = 100;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&]() {
      for (int iter = 0; iter < kItersPerCaller; ++iter) {
        std::vector<int64_t> sums(4, 0);
        pool.ParallelFor(kCount, [&](int worker, int64_t begin, int64_t end) {
          int64_t s = 0;
          for (int64_t i = begin; i < end; ++i) s += i;
          sums[worker] += s;
        });
        const int64_t total =
            std::accumulate(sums.begin(), sums.end(), int64_t{0});
        if (total != kWant) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
  pool.SetNumThreads(1);
}

TEST(StressThreadPoolDeathTest, SetNumThreadsFromPooledBodyAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool& pool = ThreadPool::Global();
        pool.SetNumThreads(4);
        pool.ParallelFor(4, [&](int worker, int64_t, int64_t) {
          if (worker == 0) pool.SetNumThreads(2);
        });
      },
      "inside a ParallelFor body");
}

// The serial pool runs bodies inline on the caller, but the body is still
// "inside a ParallelFor" — resizing from it must abort just the same.
TEST(StressThreadPoolDeathTest, SetNumThreadsFromInlineBodyAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool& pool = ThreadPool::Global();
        pool.SetNumThreads(1);
        pool.ParallelFor(8,
                         [&](int, int64_t, int64_t) { pool.SetNumThreads(2); });
      },
      "inside a ParallelFor body");
}

TEST(StressThreadPoolDeathTest, SetNumThreadsMidDispatchAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool& pool = ThreadPool::Global();
        pool.SetNumThreads(2);
        std::atomic<bool> started{false};
        std::atomic<bool> release{false};
        std::thread dispatcher([&]() {
          pool.ParallelFor(2, [&](int, int64_t, int64_t) {
            started.store(true);
            while (!release.load()) std::this_thread::yield();
          });
        });
        while (!started.load()) std::this_thread::yield();
        pool.SetNumThreads(3);  // dispatch still in flight: must abort
        release.store(true);
        dispatcher.join();
      },
      "dispatch is in flight");
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(StressMetrics, ConcurrentCountersHistogramsAndRegistration) {
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  auto& registry = metrics::MetricsRegistry::Global();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t]() {
      // Same-name lookups race on registration; each must get the same
      // instrument. Per-thread names race on map insertion.
      metrics::Counter* shared = registry.GetCounter("stress.shared_counter");
      metrics::Counter* own =
          registry.GetCounter("stress.counter." + std::to_string(t));
      metrics::Histogram* hist = registry.GetHistogram("stress.latency");
      for (int i = 0; i < kIters; ++i) {
        shared->Increment();
        own->Increment();
        hist->Record(i % 100);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(registry.GetCounter("stress.shared_counter")->value(),
            int64_t{kThreads} * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.GetCounter("stress.counter." + std::to_string(t))
                  ->value(),
              kIters);
  }
  metrics::Histogram* hist = registry.GetHistogram("stress.latency");
  EXPECT_EQ(hist->count(), int64_t{kThreads} * kIters);
  EXPECT_EQ(hist->min(), 0);
  EXPECT_EQ(hist->max(), 99);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(StressTrace, RingOverwriteUnderContentionWithConcurrentCollect) {
  auto& recorder = trace::TraceRecorder::Global();
  recorder.SetBufferCapacity(16);
  recorder.Reset();

  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  std::atomic<bool> done{false};
  // Reader thread races Collect()/dropped() against active recording; the
  // per-thread buffer mutexes must make that safe.
  std::thread reader([&]() {
    while (!done.load()) {
      const std::vector<trace::SpanRecord> spans = recorder.Collect();
      for (size_t i = 1; i < spans.size(); ++i) {
        ASSERT_LE(spans[i - 1].start_ns, spans[i].start_ns);
      }
      (void)recorder.dropped();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder]() {
      for (int i = 0; i < kSpansPerThread; ++i) {
        recorder.Record("stress.span", trace::NowNs(), 10);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  reader.join();

  // Each writer thread's ring keeps its most recent 16 spans; everything
  // older was overwritten and tallied.
  const std::vector<trace::SpanRecord> spans = recorder.Collect();
  EXPECT_EQ(static_cast<int>(spans.size()), kThreads * 16);
  EXPECT_EQ(recorder.dropped(), int64_t{kThreads} * (kSpansPerThread - 16));

  recorder.Reset();
  recorder.SetBufferCapacity(8192);
}

// ---------------------------------------------------------------------------
// TensorArena
// ---------------------------------------------------------------------------

TEST(StressArena, AcquireReleaseChurnBalancesOutstanding) {
  TensorArena& arena = TensorArena::Global();
  const int64_t outstanding_before = arena.stats().outstanding;

  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t]() {
      TensorArena& a = TensorArena::Global();
      for (int i = 0; i < kIters; ++i) {
        // Mix of size classes, including below-minimum and byte-exact
        // power-of-two sizes, so free lists grow, hit, and drop.
        const int64_t n = int64_t{16} << ((i + t) % 10);
        std::vector<float> buf = a.Acquire(n);
        ASSERT_EQ(static_cast<int64_t>(buf.size()), n);
        ASSERT_EQ(buf[0], 0.0f);  // Acquire promises zero-filled storage
        buf[0] = 1.0f;
        a.Release(std::move(buf), /*was_acquired=*/true);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(arena.stats().outstanding, outstanding_before);
}

// ---------------------------------------------------------------------------
// Batched inference
// ---------------------------------------------------------------------------

pipeline::PipelineOptions TinyOptions() {
  pipeline::PipelineOptions options;
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
  options.vocab_size = 400;
  options.pretrain_epochs = 1;
  options.finetune.epochs = 2;
  options.finetune.patience = 2;
  options.selftrain.teacher_epochs = 1;
  options.selftrain.teacher_patience = 1;
  options.selftrain.iterations = 1;
  options.ner_data.train_sequences = 30;
  options.ner_data.val_sequences = 10;
  options.ner_data.test_sequences = 10;
  return options;
}

void ExpectSameResume(const pipeline::StructuredResume& got,
                      const pipeline::StructuredResume& want) {
  ASSERT_EQ(got.blocks.size(), want.blocks.size());
  for (size_t b = 0; b < got.blocks.size(); ++b) {
    EXPECT_EQ(got.blocks[b].tag, want.blocks[b].tag) << "block " << b;
    EXPECT_EQ(got.blocks[b].lines, want.blocks[b].lines) << "block " << b;
    ASSERT_EQ(got.blocks[b].entities.size(), want.blocks[b].entities.size())
        << "block " << b;
    for (size_t e = 0; e < got.blocks[b].entities.size(); ++e) {
      EXPECT_EQ(got.blocks[b].entities[e].tag, want.blocks[b].entities[e].tag);
      EXPECT_EQ(got.blocks[b].entities[e].text,
                want.blocks[b].entities[e].text);
    }
  }
}

TEST(StressPipeline, ConcurrentBatchedParseMatchesSerialParse) {
  resumegen::CorpusConfig ccfg;
  ccfg.pretrain_docs = 4;
  ccfg.train_docs = 6;
  ccfg.val_docs = 2;
  ccfg.test_docs = 4;
  ccfg.seed = 99;
  const resumegen::Corpus corpus = resumegen::GenerateCorpus(ccfg);

  pipeline::TrainReport report;
  auto pl = pipeline::ResuFormerPipeline::TrainFromCorpus(corpus, TinyOptions(),
                                                          &report);
  ASSERT_NE(pl, nullptr);

  std::vector<pipeline::ParseRequest> requests(corpus.test.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].document = corpus.test[i].document;
    requests[i].want_stats = true;
  }

  // Serial ground truth with a serial pool. The first pass warms the arena;
  // the second records per-document stats in steady state.
  ThreadPool::Global().SetNumThreads(1);
  std::vector<pipeline::StructuredResume> expected;
  for (const pipeline::ParseRequest& r : requests) {
    expected.push_back(pl->Parse(r).resume);
  }
  std::vector<pipeline::ParseResponse> serial_stats;
  for (const pipeline::ParseRequest& r : requests) {
    serial_stats.push_back(pl->Parse(r));
  }

  // Per-document arena_hit_rate diffs *thread-local* counters, so a
  // document's rate only reflects its own traffic. Hammer the arena with
  // guaranteed misses from another thread mid-parse: the parse's rate must
  // match the quiet serial rate (the old process-wide diff dragged it down
  // with the noise thread's misses).
  {
    std::atomic<bool> stop{false};
    std::thread noise([&]() {
      while (!stop.load()) {
        // Acquired but never Released: the size class never refills, so
        // every acquire after the first few is a miss on the noise thread.
        std::vector<float> buf =
            TensorArena::Global().Acquire(int64_t{1} << 18);
        buf.clear();
      }
    });
    const pipeline::ParseResponse noisy = pl->Parse(requests[0]);
    stop.store(true);
    noise.join();
    ExpectSameResume(noisy.resume, expected[0]);
    EXPECT_NEAR(noisy.stats.arena_hit_rate,
                serial_stats[0].stats.arena_hit_rate, 1e-12);
    EXPECT_GT(noisy.stats.arena_hit_rate, 0.9);
  }

  // Two external request threads batch-parse concurrently while the pool
  // fans documents out; one claims the pool, the other degrades to inline.
  ThreadPool::Global().SetNumThreads(4);
  constexpr int kCallers = 2;
  std::vector<std::vector<pipeline::ParseResponse>> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int r = 0; r < kCallers; ++r) {
    callers.emplace_back([&, r]() { results[r] = pl->Parse(requests); });
  }
  for (std::thread& t : callers) t.join();
  ThreadPool::Global().SetNumThreads(1);

  for (int r = 0; r < kCallers; ++r) {
    ASSERT_EQ(results[r].size(), requests.size()) << "caller " << r;
    for (size_t i = 0; i < results[r].size(); ++i) {
      ExpectSameResume(results[r][i].resume, expected[i]);
      EXPECT_EQ(results[r][i].stats.num_blocks,
                static_cast<int>(results[r][i].resume.blocks.size()));
      EXPECT_GT(results[r][i].stats.num_sentences, 0);
      EXPECT_GT(results[r][i].stats.wall_time_us, 0.0);
      // Batch stats must match the serial stats document for document:
      // identical counts, and a per-document hit rate (thread-local
      // counters) that stays high even with four workers allocating at
      // once.
      EXPECT_EQ(results[r][i].stats.num_sentences,
                serial_stats[i].stats.num_sentences);
      EXPECT_EQ(results[r][i].stats.num_blocks,
                serial_stats[i].stats.num_blocks);
      EXPECT_EQ(results[r][i].stats.num_entities,
                serial_stats[i].stats.num_entities);
      EXPECT_GE(results[r][i].stats.arena_hit_rate, 0.0);
      EXPECT_LE(results[r][i].stats.arena_hit_rate, 1.0);
    }
  }
}

}  // namespace
}  // namespace resuformer
