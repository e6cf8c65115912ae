// Packed sentence-tower suite (ctest label: packed).
//
// HierarchicalEncoder::EncodeSentences packs a document's sentences into
// one forward of the sentence Transformer in eval mode under NoGradGuard,
// and runs one forward per sentence otherwise. Packing must be "purely a
// fast path": every test here compares the packed call with the same call
// made with gradients enabled, which runs the per-sentence forwards. The
// tests pin:
//
//  * bit-identical results at pool widths 1 and 4, on documents holding a
//    [CLS]-only sentence and a sentence of max_tokens_per_sentence tokens,
//  * the same work counters as the per-sentence forwards, in fewer GEMMs,
//  * zero arena misses on a repeated pass,
//  * concurrent readers of one encoder (the tsan preset reruns this label),
//  * weights that never go stale: fp32 forwards read the parameters, and
//    SetTraining drops the int8 copies quantized on first use,
//  * int8 rows that do not depend on the sentences packed beside them.

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

/// Tiny config (mirrors core_test): exercises every op of the tower while
/// keeping each pass fast.
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

/// `base` with a [CLS]-only sentence after its first one and a sentence of
/// exactly `max_tokens` tokens at the end: the shortest and the longest
/// segment a packed forward can hold.
EncodedDocument WithEdgeSentences(const EncodedDocument& base,
                                  int max_tokens) {
  EncodedDocument document = base;
  EncodedSentence cls_only = base.sentences[0];
  cls_only.token_ids.resize(1);
  cls_only.token_layout.resize(1);
  EncodedSentence longest = base.sentences[0];
  longest.token_ids.resize(max_tokens, longest.token_ids.back());
  longest.token_layout.resize(max_tokens, longest.token_layout.back());
  document.sentences.insert(document.sentences.begin() + 1, cls_only);
  document.sentences.push_back(longest);
  return document;
}

struct Fixture {
  Fixture() : corpus(MakeCorpus()), tokenizer(MakeTokenizer(corpus)) {
    config = TinyConfig(tokenizer.vocab().size());
    classifier = MakeClassifier(config);
    ResuFormerConfig wide_config = config;
    wide_config.hidden = 64;
    wide_config.num_heads = 4;
    wide_config.ffn = 256;
    wide = MakeClassifier(wide_config);
    for (const resumegen::GeneratedResume& r : corpus.train) {
      documents.push_back(EncodeForModel(r.document, tokenizer, config));
    }
    documents.push_back(WithEdgeSentences(documents[0],
                                          config.max_tokens_per_sentence));
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
  /// Wide enough that the packed GEMMs and attention fork onto the pool.
  std::unique_ptr<BlockClassifier> wide;
  std::vector<EncodedDocument> documents;  // the last holds edge sentences
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

std::vector<float> Flatten(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.size());
}

/// EncodeSentences in eval mode under NoGradGuard: one packed forward.
std::vector<float> PackedSentences(const BlockClassifier& classifier,
                                   const EncodedDocument& document) {
  NoGradGuard guard;
  return Flatten(classifier.encoder()->EncodeSentences(document, nullptr));
}

/// The same call with gradients enabled: one forward per sentence.
std::vector<float> PerSentenceSentences(const BlockClassifier& classifier,
                                        const EncodedDocument& document) {
  return Flatten(classifier.encoder()->EncodeSentences(document, nullptr));
}

std::vector<float> PackedEmissions(const BlockClassifier& classifier,
                                   const EncodedDocument& document) {
  NoGradGuard guard;
  return Flatten(classifier.Emissions(document, nullptr));
}

std::vector<float> PerSentenceEmissions(const BlockClassifier& classifier,
                                        const EncodedDocument& document) {
  return Flatten(classifier.Emissions(document, nullptr));
}

/// Viterbi labels of the per-sentence emissions: the reference for Predict.
std::vector<int> PerSentenceLabels(const BlockClassifier& classifier,
                                   const EncodedDocument& document) {
  return classifier.crf()->Decode(classifier.Emissions(document, nullptr));
}

int64_t CounterValue(const char* name) {
  return metrics::MetricsRegistry::Global().GetCounter(name)->value();
}

/// Packed vs per-sentence EncodeSentences and Emissions over every fixture
/// document at one pool width: bit-for-bit.
void ExpectPackedMatchesPerSentence(const BlockClassifier& classifier,
                                    int threads) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(threads);
  for (size_t d = 0; d < fx.documents.size(); ++d) {
    const EncodedDocument& document = fx.documents[d];
    EXPECT_EQ(PackedSentences(classifier, document),
              PerSentenceSentences(classifier, document))
        << "document " << d << " threads " << threads;
    EXPECT_EQ(PackedEmissions(classifier, document),
              PerSentenceEmissions(classifier, document))
        << "document " << d << " threads " << threads;
  }
  ThreadPool::Global().SetNumThreads(1);
}

TEST(PackedTowerTest, PackedMatchesPerSentenceBitExactSerial) {
  auto& fx = GetFixture();
  ExpectPackedMatchesPerSentence(*fx.classifier, 1);
  ExpectPackedMatchesPerSentence(*fx.wide, 1);
}

TEST(PackedTowerTest, PackedMatchesPerSentenceBitExactOnFourThreads) {
  auto& fx = GetFixture();
  const int64_t dispatches_before =
      CounterValue("threadpool.parallel_for.dispatches");
  ExpectPackedMatchesPerSentence(*fx.classifier, 4);
  ExpectPackedMatchesPerSentence(*fx.wide, 4);
  // The wide model's packed forwards partition their rows over the pool.
  EXPECT_GT(CounterValue("threadpool.parallel_for.dispatches"),
            dispatches_before);
}

TEST(PackedTowerTest, LongDocumentPacksInGroupsBitExact) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  // 200 sentences of max_tokens_per_sentence = 12 tokens: 2,400 rows, more
  // than one packed forward holds, so the tower runs two groups.
  const EncodedDocument& edge = fx.documents.back();
  EncodedDocument one;
  one.sentences = {edge.sentences.back()};
  EncodedDocument long_document;
  long_document.sentences.assign(200, edge.sentences.back());
  auto nn_calls = [&](const EncodedDocument& document) {
    const int64_t before = CounterValue("ops.gemm_nn.calls");
    PackedSentences(*fx.classifier, document);
    return CounterValue("ops.gemm_nn.calls") - before;
  };
  // One group = the tower's Linears plus the fusion; two groups add the
  // tower's Linears once more.
  const int64_t one_group = nn_calls(one);
  EXPECT_EQ(nn_calls(long_document), 2 * one_group - 1);
  EXPECT_EQ(PackedSentences(*fx.classifier, long_document),
            PerSentenceSentences(*fx.classifier, long_document));
}

TEST(PackedTowerTest, PredictMatchesPerSentenceLabels) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  for (size_t d = 0; d < fx.documents.size(); ++d) {
    EXPECT_EQ(fx.classifier->Predict(fx.documents[d]),
              PerSentenceLabels(*fx.classifier, fx.documents[d]))
        << "document " << d;
  }
}

TEST(PackedTowerTest, RepeatedPassNeverMissesTheArena) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  const EncodedDocument& document = fx.documents.back();

  // Warm-up: seeds the size classes of every packed activation.
  PackedSentences(*fx.classifier, document);

  // Every buffer of a repeated pass, the fusion after the tower included,
  // must come from the free lists.
  const TensorArena::ThreadStats before = TensorArena::thread_stats();
  for (int pass = 0; pass < 3; ++pass) {
    PackedSentences(*fx.classifier, document);
  }
  const TensorArena::ThreadStats after = TensorArena::thread_stats();
  EXPECT_EQ(after.misses - before.misses, 0);
  EXPECT_GT(after.hits - before.hits, 0);
}

/// A classifier with identical weights to the fixture's (same seed/config)
/// but runtime.use_int8 set, so its sentence tower's Linears run int8.
std::unique_ptr<BlockClassifier> MakeInt8Twin(const Fixture& fx) {
  ResuFormerConfig cfg = fx.config;
  cfg.runtime.use_int8 = true;
  return Fixture::MakeClassifier(cfg);
}

TEST(PackedTowerTest, ConcurrentReadersShareOneEncoder) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  // fp32, and int8 whose readers race the first quantization of each
  // Linear weight.
  std::unique_ptr<BlockClassifier> int8_reference = MakeInt8Twin(fx);
  std::unique_ptr<BlockClassifier> int8_shared = MakeInt8Twin(fx);
  struct Case {
    const BlockClassifier* shared;
    std::vector<std::vector<int>> want;
  };
  std::vector<Case> cases(2);
  cases[0].shared = fx.classifier.get();
  cases[1].shared = int8_shared.get();
  for (const EncodedDocument& document : fx.documents) {
    cases[0].want.push_back(PerSentenceLabels(*fx.classifier, document));
    cases[1].want.push_back(int8_reference->Predict(document));
  }

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 8;
  for (size_t c = 0; c < cases.size(); ++c) {
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        for (int iter = 0; iter < kItersPerThread; ++iter) {
          const size_t d = (t + iter) % fx.documents.size();
          if (cases[c].shared->Predict(fx.documents[d]) != cases[c].want[d]) {
            ++mismatches[t];
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0) << "case " << c << " thread " << t;
    }
  }
}

TEST(PackedTowerTest, SeesInPlaceWeightEdits) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  std::unique_ptr<BlockClassifier> classifier =
      Fixture::MakeClassifier(fx.config);
  const EncodedDocument& document = fx.documents[0];
  const std::vector<float> before = PackedSentences(*classifier, document);

  // An in-place edit, as an optimizer step makes it, with no SetTraining
  // call: fp32 forwards read the parameters' storage, so the next packed
  // pass must see the edited weights.
  for (Tensor p : classifier->encoder()->Parameters()) {
    for (int64_t i = 0; i < p.size(); ++i) p.data()[i] *= 1.25f;
  }
  const std::vector<float> after = PackedSentences(*classifier, document);
  EXPECT_NE(after, before);
  EXPECT_EQ(after, PerSentenceSentences(*classifier, document));
}

TEST(PackedTowerTest, CountsTheWorkOfPerSentenceForwardsInFewerGemms) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  std::unique_ptr<BlockClassifier> int8_classifier = MakeInt8Twin(fx);
  const EncodedDocument& document = fx.documents.back();
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

  const std::vector<int64_t> per_sentence =
      deltas([&] { PerSentenceSentences(*fx.classifier, document); });
  ASSERT_GT(per_sentence[0], 0);
  ASSERT_GT(per_sentence[3], 0);
  EXPECT_EQ(per_sentence[4], static_cast<int64_t>(document.sentences.size()));
  // An int8 GEMM counts as the fp32 GEMM it replaced.
  for (const BlockClassifier* classifier :
       {fx.classifier.get(), int8_classifier.get()}) {
    const std::vector<int64_t> packed =
        deltas([&] { PackedSentences(*classifier, document); });
    const bool int8 = classifier->config().runtime.use_int8;
    EXPECT_LT(packed[0], per_sentence[0]) << "use_int8=" << int8;
    for (size_t i = 1; i < packed.size(); ++i) {
      EXPECT_EQ(packed[i], per_sentence[i])
          << kCounters[i] << " use_int8=" << int8;
    }
  }
}

// ---------------------------------------------------------------------------
// Int8: with runtime.use_int8 the sentence tower's Linear layers multiply
// by int8 weights quantized on first use, with one activation scale per
// row. The int8 path must stay deterministic across thread counts and
// packings, track the fp32 emissions closely on this tiny model, and never
// use weights quantized before a training step.
// ---------------------------------------------------------------------------

TEST(PackedTowerInt8Test, TracksFp32) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  std::unique_ptr<BlockClassifier> int8_cls = MakeInt8Twin(fx);
  const int64_t quantized_before = CounterValue("quant.weights_quantized");
  const int64_t int8_gemms_before = CounterValue("quant.dynamic_quants");

  for (size_t d = 0; d < fx.documents.size(); ++d) {
    const EncodedDocument& document = fx.documents[d];
    const std::vector<float> want =
        PerSentenceEmissions(*fx.classifier, document);
    const std::vector<float> got = PackedEmissions(*int8_cls, document);
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
  // q/k/v/o and the FFN of the one sentence layer, plus sentence_dense_:
  // each weight is quantized once, on first use.
  EXPECT_EQ(CounterValue("quant.weights_quantized") - quantized_before, 7);
  EXPECT_GT(CounterValue("quant.dynamic_quants"), int8_gemms_before);
}

TEST(PackedTowerInt8Test, BitIdenticalAcrossThreadCounts) {
  auto& fx = GetFixture();
  std::unique_ptr<BlockClassifier> int8_cls = MakeInt8Twin(fx);
  for (const EncodedDocument& document : fx.documents) {
    ThreadPool::Global().SetNumThreads(1);
    const std::vector<float> serial = PackedEmissions(*int8_cls, document);
    ThreadPool::Global().SetNumThreads(4);
    const std::vector<float> parallel = PackedEmissions(*int8_cls, document);
    ThreadPool::Global().SetNumThreads(1);
    EXPECT_EQ(parallel, serial);
  }
}

TEST(PackedTowerInt8Test, SentenceRowIsTheSameAloneAndPacked) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  std::unique_ptr<BlockClassifier> int8_cls = MakeInt8Twin(fx);
  const EncodedDocument& document = fx.documents.back();
  const std::vector<float> packed = PackedSentences(*int8_cls, document);
  const size_t hidden = static_cast<size_t>(fx.config.hidden);
  ASSERT_EQ(packed.size(), document.sentences.size() * hidden);
  // Per-row activation scales: no sentence's int8 result depends on the
  // sentences packed beside it.
  for (size_t s = 0; s < document.sentences.size(); ++s) {
    EncodedDocument alone;
    alone.num_pages = document.num_pages;
    alone.sentences = {document.sentences[s]};
    const std::vector<float> row(packed.begin() + s * hidden,
                                 packed.begin() + (s + 1) * hidden);
    EXPECT_EQ(PackedSentences(*int8_cls, alone), row) << "sentence " << s;
  }
}

TEST(PackedTowerInt8Test, PredictLabelsMostlyAgreeWithFp32) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  std::unique_ptr<BlockClassifier> int8_cls = MakeInt8Twin(fx);
  int total = 0, agree = 0;
  for (const EncodedDocument& document : fx.documents) {
    const std::vector<int> want = PerSentenceLabels(*fx.classifier, document);
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

TEST(PackedTowerInt8Test, FinetuneLeavesNoStaleInt8Weights) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  std::unique_ptr<BlockClassifier> tuned = MakeInt8Twin(fx);
  // Quantize the initial weights before fine-tuning.
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
  // on its first pass; the fine-tuned one must compute exactly the same.
  std::unique_ptr<BlockClassifier> fresh = MakeInt8Twin(fx);
  ASSERT_TRUE(nn::CopyParameters(*tuned, fresh.get()).ok());
  for (size_t d = 0; d < fx.documents.size(); ++d) {
    const EncodedDocument& document = fx.documents[d];
    EXPECT_EQ(PackedEmissions(*tuned, document),
              PackedEmissions(*fresh, document))
        << "document " << d;
    EXPECT_EQ(tuned->Predict(document), fresh->Predict(document))
        << "document " << d;
  }
}

}  // namespace
}  // namespace core
}  // namespace resuformer
