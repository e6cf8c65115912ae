#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/block_classifier.h"
#include "core/distiller.h"
#include "core/hierarchical_encoder.h"
#include "core/pretrainer.h"
#include "resumegen/corpus.h"
#include "tensor/ops.h"

namespace resuformer {
namespace core {
namespace {

/// Tiny config for unit tests.
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
  cfg.mllm_sentences_per_doc = 2;
  return cfg;
}

struct Fixture {
  Fixture() : corpus(MakeCorpus()), tokenizer(MakeTokenizer(corpus)) {}

  static resumegen::Corpus MakeCorpus() {
    resumegen::CorpusConfig cfg;
    cfg.pretrain_docs = 6;
    cfg.train_docs = 6;
    cfg.val_docs = 3;
    cfg.test_docs = 3;
    cfg.seed = 5;
    return resumegen::GenerateCorpus(cfg);
  }
  static text::WordPieceTokenizer MakeTokenizer(
      const resumegen::Corpus& corpus) {
    return resumegen::TrainTokenizer(corpus, 600);
  }

  resumegen::Corpus corpus;
  text::WordPieceTokenizer tokenizer;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

TEST(EncodeForModelTest, ShapesAndTruncation) {
  auto& fx = GetFixture();
  ResuFormerConfig cfg = TinyConfig(fx.tokenizer.vocab().size());
  const doc::Document& document = fx.corpus.train[0].document;
  EncodedDocument enc = EncodeForModel(document, fx.tokenizer, cfg);
  EXPECT_LE(static_cast<int>(enc.sentences.size()), cfg.max_sentences);
  EXPECT_GT(enc.sentences.size(), 0u);
  for (const EncodedSentence& s : enc.sentences) {
    EXPECT_LE(static_cast<int>(s.token_ids.size()),
              cfg.max_tokens_per_sentence);
    EXPECT_EQ(s.token_ids[0], text::kClsId);
    EXPECT_EQ(s.token_ids.size(), s.token_layout.size());
    EXPECT_EQ(s.visual.size(), static_cast<size_t>(doc::kVisualFeatureDim));
    for (const LayoutTuple& t : s.token_layout) {
      for (int v : t) {
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 1000);
      }
    }
  }
}

TEST(HierarchicalEncoderTest, OutputShapes) {
  auto& fx = GetFixture();
  ResuFormerConfig cfg = TinyConfig(fx.tokenizer.vocab().size());
  Rng rng(1);
  HierarchicalEncoder encoder(cfg, &rng);
  encoder.SetTraining(false);
  EncodedDocument enc =
      EncodeForModel(fx.corpus.train[0].document, fx.tokenizer, cfg);
  NoGradGuard guard;
  Tensor h_star = encoder.EncodeSentences(enc, nullptr);
  EXPECT_EQ(h_star.rows(), static_cast<int>(enc.sentences.size()));
  EXPECT_EQ(h_star.cols(), cfg.hidden);
  Tensor contextual = encoder.EncodeDocument(h_star, enc, nullptr);
  EXPECT_EQ(contextual.rows(), h_star.rows());
  EXPECT_EQ(contextual.cols(), cfg.hidden);
}

TEST(HierarchicalEncoderTest, VocabLogitsTiedToEmbedding) {
  auto& fx = GetFixture();
  ResuFormerConfig cfg = TinyConfig(fx.tokenizer.vocab().size());
  Rng rng(2);
  HierarchicalEncoder encoder(cfg, &rng);
  encoder.SetTraining(false);
  EncodedDocument enc =
      EncodeForModel(fx.corpus.train[0].document, fx.tokenizer, cfg);
  NoGradGuard guard;
  Tensor states =
      encoder.SentenceTokenStates(enc.sentences[0],
                                  enc.sentences[0].token_ids, nullptr);
  Tensor logits = encoder.VocabLogits(states);
  EXPECT_EQ(logits.rows(), static_cast<int>(enc.sentences[0].token_ids.size()));
  EXPECT_EQ(logits.cols(), cfg.vocab_size);
}

TEST(PretrainerTest, LossDecreasesOverSteps) {
  auto& fx = GetFixture();
  ResuFormerConfig cfg = TinyConfig(fx.tokenizer.vocab().size());
  Rng rng(3);
  HierarchicalEncoder encoder(cfg, &rng);
  Pretrainer pretrainer(&encoder, &rng);

  std::vector<EncodedDocument> docs;
  for (int i = 0; i < 4; ++i) {
    docs.push_back(EncodeForModel(fx.corpus.pretrain[i].document,
                                  fx.tokenizer, cfg));
  }
  std::vector<Tensor> params = encoder.Parameters();
  for (const Tensor& p : pretrainer.OwnParameters()) params.push_back(p);
  nn::Adam adam(params, 2e-3f);
  std::vector<const EncodedDocument*> batch;
  for (const auto& d : docs) batch.push_back(&d);

  double first_losses = 0.0, last_losses = 0.0;
  const int steps = 12;
  for (int s = 0; s < steps; ++s) {
    const PretrainStats stats = pretrainer.Step(batch, &adam);
    EXPECT_GT(stats.total_loss, 0.0);
    if (s < 3) first_losses += stats.total_loss;
    if (s >= steps - 3) last_losses += stats.total_loss;
  }
  EXPECT_LT(last_losses, first_losses);
}

TEST(PretrainerTest, AblationsDisableObjectives) {
  auto& fx = GetFixture();
  ResuFormerConfig cfg = TinyConfig(fx.tokenizer.vocab().size());
  Rng rng(4);
  HierarchicalEncoder encoder(cfg, &rng);
  PretrainObjectives obj;
  obj.mllm = false;
  Pretrainer pretrainer(&encoder, &rng, obj);
  std::vector<EncodedDocument> docs = {
      EncodeForModel(fx.corpus.pretrain[0].document, fx.tokenizer, cfg)};
  std::vector<Tensor> params = encoder.Parameters();
  for (const Tensor& p : pretrainer.OwnParameters()) params.push_back(p);
  nn::Adam adam(params, 1e-3f);
  const PretrainStats stats = pretrainer.Step({&docs[0]}, &adam);
  EXPECT_EQ(stats.mllm_loss, 0.0);
  EXPECT_GT(stats.scl_loss + stats.dnsp_loss, 0.0);
}

TEST(BlockClassifierTest, PredictShapeMatchesSentences) {
  auto& fx = GetFixture();
  ResuFormerConfig cfg = TinyConfig(fx.tokenizer.vocab().size());
  Rng rng(5);
  BlockClassifier model(cfg, &rng);
  model.SetTraining(false);
  LabeledDocument ex = MakeLabeledDocument(fx.corpus.train[0].document,
                                           fx.tokenizer, cfg);
  const std::vector<int> pred = model.Predict(ex.document);
  EXPECT_EQ(pred.size(), ex.document.sentences.size());
  for (int label : pred) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, doc::kNumIobLabels);
  }
}

TEST(BlockClassifierTest, OverfitsTinyTrainingSet) {
  auto& fx = GetFixture();
  ResuFormerConfig cfg = TinyConfig(fx.tokenizer.vocab().size());
  Rng rng(6);
  BlockClassifier model(cfg, &rng);
  std::vector<LabeledDocument> train;
  for (int i = 0; i < 4; ++i) {
    train.push_back(MakeLabeledDocument(fx.corpus.train[i].document,
                                        fx.tokenizer, cfg));
  }
  FinetuneOptions options;
  options.epochs = 40;
  options.patience = 40;
  const double acc = FinetuneBlockClassifier(&model, train, train, options,
                                             &rng);
  EXPECT_GT(acc, 0.8);  // must be able to (nearly) memorize 4 documents
}

/// A fine-tuning run from one seed: model construction and training share
/// the Rng, exactly like the pipeline's stage 2.
struct FinetuneRun {
  FinetuneRun(const ResuFormerConfig& cfg, uint64_t seed)
      : rng(std::make_unique<Rng>(seed)),
        model(std::make_unique<BlockClassifier>(cfg, rng.get())) {}

  void Finetune(const std::vector<LabeledDocument>& train,
                const std::vector<LabeledDocument>& val) {
    FinetuneOptions options;
    options.epochs = 4;
    options.patience = 2;
    best = FinetuneBlockClassifier(model.get(), train, val, options,
                                   rng.get());
  }

  std::vector<float> FlatParameters() const {
    std::vector<float> flat;
    for (const Tensor& p : model->Parameters()) {
      flat.insert(flat.end(), p.data(), p.data() + p.size());
    }
    return flat;
  }

  std::unique_ptr<Rng> rng;
  std::unique_ptr<BlockClassifier> model;
  double best = -1.0;
};

void SplitFixture(const ResuFormerConfig& cfg,
                  std::vector<LabeledDocument>* train,
                  std::vector<LabeledDocument>* val) {
  auto& fx = GetFixture();
  for (const auto& r : fx.corpus.train) {
    train->push_back(MakeLabeledDocument(r.document, fx.tokenizer, cfg));
  }
  for (const auto& r : fx.corpus.val) {
    val->push_back(MakeLabeledDocument(r.document, fx.tokenizer, cfg));
  }
}

TEST(BlockClassifierTest, FinetuneLeavesTheBestValidationModel) {
  // Early stopping restores the best epoch's weights, so the model left
  // behind must score exactly the returned best on the validation set.
  ResuFormerConfig cfg = TinyConfig(GetFixture().tokenizer.vocab().size());
  std::vector<LabeledDocument> train, val;
  SplitFixture(cfg, &train, &val);
  FinetuneRun run(cfg, 12);
  run.Finetune(train, val);
  ASSERT_GE(run.best, 0.0);
  EXPECT_EQ(SentenceLabelAccuracy(*run.model, val), run.best);
}

TEST(BlockClassifierTest, ConcurrentFinetunesKeepTheirOwnBest) {
  // Two same-shape, differently seeded fine-tunes running at once must each
  // end with the weights of their serial run: the best-model snapshot is
  // per run, not a shared file. Pool width 1 keeps both bit-reproducible.
  ResuFormerConfig cfg = TinyConfig(GetFixture().tokenizer.vocab().size());
  cfg.runtime.threads = 1;
  std::vector<LabeledDocument> train, val;
  SplitFixture(cfg, &train, &val);

  FinetuneRun serial_a(cfg, 31);
  serial_a.Finetune(train, val);
  FinetuneRun serial_b(cfg, 32);
  serial_b.Finetune(train, val);
  ASSERT_NE(serial_a.FlatParameters(), serial_b.FlatParameters());

  // Models are built before the threads start: construction applies the
  // runtime options (pool width) process-wide.
  FinetuneRun concurrent_a(cfg, 31);
  FinetuneRun concurrent_b(cfg, 32);
  ASSERT_EQ(ThreadPool::Global().NumThreads(), 1);
  std::thread thread_a([&] { concurrent_a.Finetune(train, val); });
  std::thread thread_b([&] { concurrent_b.Finetune(train, val); });
  thread_a.join();
  thread_b.join();

  EXPECT_EQ(concurrent_a.best, serial_a.best);
  EXPECT_EQ(concurrent_b.best, serial_b.best);
  EXPECT_EQ(concurrent_a.FlatParameters(), serial_a.FlatParameters());
  EXPECT_EQ(concurrent_b.FlatParameters(), serial_b.FlatParameters());
}

TEST(MakeLabeledDocumentTest, LabelsAlignWithTruncation) {
  auto& fx = GetFixture();
  ResuFormerConfig cfg = TinyConfig(fx.tokenizer.vocab().size());
  cfg.max_sentences = 5;  // force truncation
  LabeledDocument ex = MakeLabeledDocument(fx.corpus.train[0].document,
                                           fx.tokenizer, cfg);
  EXPECT_EQ(ex.document.sentences.size(), 5u);
  EXPECT_EQ(ex.labels.size(), 5u);
}

/// A trivial teacher that labels everything B-PInfo.
class ConstantTeacher : public SentenceLabeler {
 public:
  std::vector<int> LabelSentences(const doc::Document& d) const override {
    return std::vector<int>(d.NumSentences(),
                            doc::IobLabel(doc::BlockTag::kPInfo, true));
  }
};

TEST(KnowledgeDistillerTest, PseudoLabelsComeFromTeacher) {
  auto& fx = GetFixture();
  ResuFormerConfig cfg = TinyConfig(fx.tokenizer.vocab().size());
  KnowledgeDistiller distiller(&fx.tokenizer, cfg);
  ConstantTeacher teacher;
  std::vector<const doc::Document*> unlabeled = {
      &fx.corpus.pretrain[0].document};
  const auto pseudo = distiller.DistillPseudoLabels(teacher, unlabeled);
  ASSERT_EQ(pseudo.size(), 1u);
  EXPECT_EQ(pseudo[0].labels.size(), pseudo[0].document.sentences.size());
  for (int label : pseudo[0].labels) {
    EXPECT_EQ(label, doc::IobLabel(doc::BlockTag::kPInfo, true));
  }
}

}  // namespace
}  // namespace core
}  // namespace resuformer
