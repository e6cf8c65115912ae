// Sentence-plan replay suite (ctest label: plan).
//
// HierarchicalEncoder::EncodeSentences replays cached sentence plans in
// eval mode under NoGradGuard and runs the dynamic ops otherwise. Replay
// must be "purely a fast path": every test here compares the replayed call
// with the same call made with gradients enabled, which runs the dynamic
// ops. The tests pin:
//
//  * bit-identical results at a serial thread pool, on the pass that builds
//    the plans and on the cache-hit pass,
//  * <= 1e-6 agreement across thread-pool widths,
//  * zero arena misses in steady-state replay,
//  * concurrent readers of one encoder (plans are immutable; the tsan
//    preset runs this suite),
//  * the same work counters as the dynamic ops,
//  * plans that never go stale: fp32 plans see in-place weight edits, and
//    SetTraining drops int8 plans, whose weights were quantized at build.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/block_classifier.h"
#include "core/hierarchical_encoder.h"
#include "doc/block_tags.h"
#include "nn/serialize.h"
#include "resumegen/corpus.h"
#include "tensor/arena.h"

namespace resuformer {
namespace core {
namespace {

/// Tiny config (mirrors core_test): exercises every op the plan records
/// while keeping trace + replay fast.
ResuFormerConfig TinyConfig(int vocab) {
  ResuFormerConfig cfg;
  cfg.hidden = 16;
  cfg.sentence_layers = 1;
  cfg.document_layers = 1;
  cfg.num_heads = 2;
  cfg.ffn = 32;
  cfg.max_tokens_per_sentence = 12;
  cfg.max_sentences = 24;
  cfg.vocab_size = vocab;
  cfg.lstm_hidden = 12;
  return cfg;
}

struct Fixture {
  Fixture() : corpus(MakeCorpus()), tokenizer(MakeTokenizer(corpus)) {
    config = TinyConfig(tokenizer.vocab().size());
    classifier = MakeClassifier(config);
    for (const resumegen::GeneratedResume& r : corpus.train) {
      documents.push_back(EncodeForModel(r.document, tokenizer, config));
    }
  }

  static resumegen::Corpus MakeCorpus() {
    resumegen::CorpusConfig cfg;
    cfg.pretrain_docs = 2;
    cfg.train_docs = 6;
    cfg.val_docs = 2;
    cfg.test_docs = 2;
    cfg.seed = 13;
    return resumegen::GenerateCorpus(cfg);
  }
  static text::WordPieceTokenizer MakeTokenizer(
      const resumegen::Corpus& corpus) {
    return resumegen::TrainTokenizer(corpus, 400);
  }
  /// An eval-mode classifier; the same config always yields the same
  /// weights.
  static std::unique_ptr<BlockClassifier> MakeClassifier(
      const ResuFormerConfig& config) {
    Rng rng(11);
    auto classifier = std::make_unique<BlockClassifier>(config, &rng);
    classifier->SetTraining(false);
    return classifier;
  }

  resumegen::Corpus corpus;
  text::WordPieceTokenizer tokenizer;
  ResuFormerConfig config;
  std::unique_ptr<BlockClassifier> classifier;
  std::vector<EncodedDocument> documents;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

std::vector<float> Flatten(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.size());
}

/// EncodeSentences in eval mode under NoGradGuard: replays sentence plans.
std::vector<float> PlannedSentences(const BlockClassifier& classifier,
                                    const EncodedDocument& document) {
  NoGradGuard guard;
  return Flatten(classifier.encoder()->EncodeSentences(document, nullptr));
}

/// The same call with gradients enabled: the dynamic ops.
std::vector<float> DynamicSentences(const BlockClassifier& classifier,
                                    const EncodedDocument& document) {
  return Flatten(classifier.encoder()->EncodeSentences(document, nullptr));
}

std::vector<float> PlannedEmissions(const BlockClassifier& classifier,
                                    const EncodedDocument& document) {
  NoGradGuard guard;
  return Flatten(classifier.Emissions(document, nullptr));
}

std::vector<float> DynamicEmissions(const BlockClassifier& classifier,
                                    const EncodedDocument& document) {
  return Flatten(classifier.Emissions(document, nullptr));
}

/// Viterbi labels of the dynamic emissions: the reference for Predict.
std::vector<int> DynamicLabels(const BlockClassifier& classifier,
                               const EncodedDocument& document) {
  return classifier.crf()->Decode(classifier.Emissions(document, nullptr));
}

int64_t CounterValue(const char* name) {
  return metrics::MetricsRegistry::Global().GetCounter(name)->value();
}

TEST(InferencePlanTest, ReplayMatchesDynamicEmissionsBitExactSerial) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  fx.classifier->SetTraining(false);  // empty cache: pass 0 builds
  ASSERT_FALSE(fx.documents.empty());
  const int64_t builds_before = CounterValue("plan.builds");
  const int64_t hits_before = CounterValue("plan.cache_hits");
  const int64_t fallbacks_before = CounterValue("plan.fallbacks");
  for (size_t d = 0; d < fx.documents.size(); ++d) {
    const EncodedDocument& document = fx.documents[d];
    const std::vector<float> want = DynamicSentences(*fx.classifier, document);
    const std::vector<float> want_emissions =
        DynamicEmissions(*fx.classifier, document);
    // Two replays per document: the first builds the document's missing
    // plans, the second takes the pure cache-hit path. Both must be
    // bit-identical.
    for (int pass = 0; pass < 2; ++pass) {
      ASSERT_EQ(PlannedSentences(*fx.classifier, document), want)
          << "document " << d << " pass " << pass;
      ASSERT_EQ(PlannedEmissions(*fx.classifier, document), want_emissions)
          << "document " << d << " pass " << pass;
    }
  }
  EXPECT_GT(CounterValue("plan.builds"), builds_before);
  EXPECT_GT(CounterValue("plan.cache_hits"), hits_before);
  EXPECT_EQ(CounterValue("plan.fallbacks"), fallbacks_before);
}

TEST(InferencePlanTest, PredictMatchesDynamicLabels) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  for (size_t d = 0; d < fx.documents.size(); ++d) {
    EXPECT_EQ(fx.classifier->Predict(fx.documents[d]),
              DynamicLabels(*fx.classifier, fx.documents[d]))
        << "document " << d;
  }
}

TEST(InferencePlanTest, ReplayAgreesAcrossThreadCounts) {
  auto& fx = GetFixture();
  const EncodedDocument& document = fx.documents[0];

  ThreadPool::Global().SetNumThreads(1);
  fx.classifier->SetTraining(false);
  const std::vector<float> serial = PlannedSentences(*fx.classifier, document);

  for (int threads : {2, 4}) {
    ThreadPool::Global().SetNumThreads(threads);
    fx.classifier->SetTraining(false);  // build this width's plans
    const std::vector<float> got = PlannedSentences(*fx.classifier, document);
    ASSERT_EQ(got.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_NEAR(got[i], serial[i], 1e-6)
          << "threads=" << threads << " element " << i;
    }
  }
  ThreadPool::Global().SetNumThreads(1);
}

TEST(InferencePlanTest, SteadyStateReplayNeverMissesTheArena) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  const EncodedDocument& document = fx.documents[0];

  // Warm-up: builds the plans and seeds the workspace size classes.
  PlannedSentences(*fx.classifier, document);

  // Steady state: every replay workspace, and every buffer of the dynamic
  // fusion after it, must come from the free lists.
  const TensorArena::ThreadStats before = TensorArena::thread_stats();
  for (int pass = 0; pass < 3; ++pass) {
    PlannedSentences(*fx.classifier, document);
  }
  const TensorArena::ThreadStats after = TensorArena::thread_stats();
  EXPECT_EQ(after.misses - before.misses, 0);
  EXPECT_GT(after.hits - before.hits, 0);
}

TEST(InferencePlanTest, ConcurrentReadersShareOneEncoder) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);

  std::vector<std::vector<int>> want(fx.documents.size());
  for (size_t d = 0; d < fx.documents.size(); ++d) {
    want[d] = DynamicLabels(*fx.classifier, fx.documents[d]);
  }
  fx.classifier->SetTraining(false);  // the readers race the first builds

  // Reader threads race the first builds and then replay shared immutable
  // plans; every result must match the dynamic labels.
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        const size_t d = (t + iter) % fx.documents.size();
        if (fx.classifier->Predict(fx.documents[d]) != want[d]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(InferencePlanTest, Fp32ReplaySeesInPlaceWeightEdits) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  std::unique_ptr<BlockClassifier> classifier =
      Fixture::MakeClassifier(fx.config);
  const EncodedDocument& document = fx.documents[0];
  const std::vector<float> before = PlannedSentences(*classifier, document);

  // An in-place edit, as an optimizer step makes it, with no SetTraining
  // call: fp32 plans read the parameters' storage, so the cached plans must
  // replay the edited weights.
  for (Tensor p : classifier->encoder()->Parameters()) {
    for (int64_t i = 0; i < p.size(); ++i) p.data()[i] *= 1.25f;
  }
  const std::vector<float> after = PlannedSentences(*classifier, document);
  EXPECT_NE(after, before);
  EXPECT_EQ(after, DynamicSentences(*classifier, document));
}

TEST(InferencePlanTest, ReplayCountsTheWorkOfTheDynamicOps) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  ResuFormerConfig int8_config = fx.config;
  int8_config.runtime.use_int8 = true;
  std::unique_ptr<BlockClassifier> int8_classifier =
      Fixture::MakeClassifier(int8_config);
  const EncodedDocument& document = fx.documents[0];
  const char* const kCounters[] = {
      "ops.gemm_nn.calls", "ops.gemm_nt.calls", "ops.gemm_tn.calls",
      "ops.gemm.forward_flops", "ops.fused_attention.calls"};
  auto deltas = [&](auto&& run) {
    std::vector<int64_t> before;
    for (const char* name : kCounters) before.push_back(CounterValue(name));
    run();
    std::vector<int64_t> out;
    for (size_t i = 0; i < before.size(); ++i) {
      out.push_back(CounterValue(kCounters[i]) - before[i]);
    }
    return out;
  };

  const std::vector<int64_t> dynamic =
      deltas([&] { DynamicSentences(*fx.classifier, document); });
  EXPECT_GT(dynamic[0], 0);
  EXPECT_GT(dynamic[3], 0);
  EXPECT_GT(dynamic[4], 0);
  // An int8 GEMM counts as the fp32 GEMM it replaced.
  for (const BlockClassifier* classifier :
       {fx.classifier.get(), int8_classifier.get()}) {
    PlannedSentences(*classifier, document);  // builds the plans
    EXPECT_EQ(deltas([&] { PlannedSentences(*classifier, document); }),
              dynamic)
        << "use_int8=" << classifier->config().runtime.use_int8;
  }
}

// ---------------------------------------------------------------------------
// Int8: with runtime.use_int8 the recorder rewrites the sentence plans'
// constant-weight GEMMs to quantized kernels at plan build. The int8 path
// must replay without fallback, stay deterministic across thread counts,
// track the fp32 emissions closely on this tiny model, and never replay
// weights quantized before a training step.
// ---------------------------------------------------------------------------

/// A classifier with identical weights to the fixture's (same seed/config)
/// but runtime.use_int8 set, so its encoder builds int8 plans.
std::unique_ptr<BlockClassifier> MakeInt8Twin(const Fixture& fx) {
  ResuFormerConfig cfg = fx.config;
  cfg.runtime.use_int8 = true;
  return Fixture::MakeClassifier(cfg);
}

TEST(InferencePlanInt8Test, ReplayRewritesGemmsAndTracksFp32) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  std::unique_ptr<BlockClassifier> int8_cls = MakeInt8Twin(fx);
  const int64_t rewrites_before = CounterValue("quant.instrs_rewritten");
  const int64_t fallbacks_before = CounterValue("plan.fallbacks");

  for (size_t d = 0; d < fx.documents.size(); ++d) {
    const EncodedDocument& document = fx.documents[d];
    const std::vector<float> want = DynamicEmissions(*fx.classifier, document);
    const std::vector<float> got = PlannedEmissions(*int8_cls, document);
    ASSERT_EQ(got.size(), want.size());
    // Quantization error compounds through the encoder stack; on this tiny
    // model the emissions stay within a small absolute band of fp32. The
    // end-to-end accuracy gate lives in integration_test.cc.
    float max_diff = 0.0f;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(std::isfinite(got[i])) << "document " << d << " elt " << i;
      max_diff = std::max(max_diff, std::abs(got[i] - want[i]));
    }
    EXPECT_LT(max_diff, 0.75f) << "document " << d;
  }
  EXPECT_GT(CounterValue("quant.instrs_rewritten"), rewrites_before);
  EXPECT_EQ(CounterValue("plan.fallbacks"), fallbacks_before);
}

TEST(InferencePlanInt8Test, ReplayIsBitIdenticalAcrossThreadCounts) {
  auto& fx = GetFixture();
  std::unique_ptr<BlockClassifier> int8_cls = MakeInt8Twin(fx);
  const EncodedDocument& document = fx.documents[0];

  ThreadPool::Global().SetNumThreads(1);
  const std::vector<float> serial = PlannedSentences(*int8_cls, document);

  // Int32 accumulation is exact, so unlike the fp32 path (<= 1e-6 band)
  // the int8 replay is bit-identical at any pool width.
  ThreadPool::Global().SetNumThreads(4);
  int8_cls->SetTraining(false);  // build this width's plans
  const std::vector<float> parallel = PlannedSentences(*int8_cls, document);
  ThreadPool::Global().SetNumThreads(1);

  EXPECT_EQ(parallel, serial);
}

TEST(InferencePlanInt8Test, PredictLabelsMostlyAgreeWithFp32) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  std::unique_ptr<BlockClassifier> int8_cls = MakeInt8Twin(fx);
  int total = 0, agree = 0;
  for (const EncodedDocument& document : fx.documents) {
    const std::vector<int> want = DynamicLabels(*fx.classifier, document);
    const std::vector<int> got = int8_cls->Predict(document);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ++total;
      if (got[i] == want[i]) ++agree;
    }
  }
  ASSERT_GT(total, 0);
  // Untrained tiny model: logits sit near ties, so perfect agreement is not
  // expected — but wholesale divergence means the int8 path is broken.
  EXPECT_GE(static_cast<double>(agree) / total, 0.9)
      << agree << "/" << total << " labels agree";
}

TEST(InferencePlanInt8Test, FinetuneLeavesNoStalePlans) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  std::unique_ptr<BlockClassifier> tuned = MakeInt8Twin(fx);
  // Cache int8 plans of the initial weights before fine-tuning.
  for (const EncodedDocument& document : fx.documents) {
    tuned->Predict(document);
  }
  std::vector<LabeledDocument> train, val;
  for (const resumegen::GeneratedResume& r : fx.corpus.train) {
    train.push_back(MakeLabeledDocument(r.document, fx.tokenizer, fx.config));
  }
  for (const resumegen::GeneratedResume& r : fx.corpus.val) {
    val.push_back(MakeLabeledDocument(r.document, fx.tokenizer, fx.config));
  }
  FinetuneOptions options;
  options.epochs = 1;
  Rng rng(5);
  FinetuneBlockClassifier(tuned.get(), train, val, options, &rng);

  // A fresh int8 classifier holding the fine-tuned weights quantizes them
  // at its first build; the fine-tuned one must replay exactly the same.
  std::unique_ptr<BlockClassifier> fresh = MakeInt8Twin(fx);
  ASSERT_TRUE(nn::CopyParameters(*tuned, fresh.get()).ok());
  for (size_t d = 0; d < fx.documents.size(); ++d) {
    const EncodedDocument& document = fx.documents[d];
    EXPECT_EQ(PlannedEmissions(*tuned, document),
              PlannedEmissions(*fresh, document))
        << "document " << d;
    EXPECT_EQ(tuned->Predict(document), fresh->Predict(document))
        << "document " << d;
  }
}

}  // namespace
}  // namespace core
}  // namespace resuformer
