#include <gtest/gtest.h>

#include <algorithm>

#include "distant/dictionary.h"
#include "distant/ner_dataset.h"
#include "resumegen/corpus.h"
#include "selftrain/ner_model.h"
#include "selftrain/self_distill.h"

namespace resuformer {
namespace selftrain {
namespace {

NerModelConfig TinyNerConfig(int vocab) {
  NerModelConfig cfg;
  cfg.hidden = 16;
  cfg.layers = 1;
  cfg.num_heads = 2;
  cfg.ffn = 32;
  cfg.vocab_size = vocab;
  cfg.max_tokens = 60;
  cfg.lstm_hidden = 12;
  return cfg;
}

struct NerFixture {
  NerFixture() {
    resumegen::CorpusConfig ccfg;
    ccfg.pretrain_docs = 8;
    ccfg.train_docs = 2;
    ccfg.val_docs = 1;
    ccfg.test_docs = 1;
    ccfg.seed = 9;
    corpus = resumegen::GenerateCorpus(ccfg);
    tokenizer = std::make_unique<text::WordPieceTokenizer>(
        resumegen::TrainTokenizer(corpus, 700));

    distant::NerDatasetConfig ncfg;
    ncfg.train_sequences = 120;
    ncfg.val_sequences = 25;
    ncfg.test_sequences = 25;
    ncfg.augment_fraction = 0.1;
    dictionary = distant::BuildDictionaries(distant::DictionaryConfig{});
    data = distant::BuildNerDataset(ncfg, dictionary);
  }

  resumegen::Corpus corpus;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  distant::EntityDictionary dictionary;
  distant::NerDataset data;
};

NerFixture& GetFixture() {
  static NerFixture* fx = new NerFixture();
  return *fx;
}

TEST(EncodeWordsForNerTest, FirstPieceConvention) {
  auto& fx = GetFixture();
  NerModelConfig cfg = TinyNerConfig(fx.tokenizer->vocab().size());
  const std::vector<int> ids =
      EncodeWordsForNer({"Email:", "john", "x"}, *fx.tokenizer, cfg);
  EXPECT_EQ(ids.size(), 3u);  // one id per word, regardless of pieces
}

TEST(EncodeWordsForNerTest, TruncatesToMaxTokens) {
  auto& fx = GetFixture();
  NerModelConfig cfg = TinyNerConfig(fx.tokenizer->vocab().size());
  cfg.max_tokens = 4;
  std::vector<std::string> words(20, "work");
  EXPECT_EQ(EncodeWordsForNer(words, *fx.tokenizer, cfg).size(), 4u);
}

TEST(NerModelTest, PredictWordsCoversBlocksLongerThanMaxTokens) {
  auto& fx = GetFixture();
  NerModelConfig cfg = TinyNerConfig(fx.tokenizer->vocab().size());
  cfg.max_tokens = 8;
  Rng rng(21);
  NerModel model(cfg, &rng);
  model.SetTraining(false);

  // 3.5 windows' worth of words: Predict() alone can only see the first 8,
  // PredictWords must label every one.
  std::vector<std::string> words;
  for (int i = 0; i < 28; ++i) {
    words.push_back(i % 3 == 0 ? "work" : (i % 3 == 1 ? "at" : "acme"));
  }
  const std::vector<int> labels = model.PredictWords(words, *fx.tokenizer);
  ASSERT_EQ(labels.size(), words.size());
  for (int label : labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, cfg.num_labels);
  }

  // Within each window, PredictWords agrees with a direct Predict on that
  // window's encoding: windowing only partitions, it never re-contextualizes.
  for (size_t begin = 0; begin < words.size();
       begin += static_cast<size_t>(cfg.max_tokens)) {
    const size_t end =
        std::min(begin + static_cast<size_t>(cfg.max_tokens), words.size());
    const std::vector<std::string> window(words.begin() + begin,
                                          words.begin() + end);
    const std::vector<int> ids = EncodeWordsForNer(window, *fx.tokenizer, cfg);
    const std::vector<int> want = model.Predict(ids);
    const std::vector<int> got(labels.begin() + begin, labels.begin() + end);
    EXPECT_EQ(got, want) << "window at " << begin;
  }
}

TEST(NerModelTest, LogitsShape) {
  auto& fx = GetFixture();
  NerModelConfig cfg = TinyNerConfig(fx.tokenizer->vocab().size());
  Rng rng(1);
  NerModel model(cfg, &rng);
  model.SetTraining(false);
  NoGradGuard guard;
  Tensor logits = model.Logits({5, 6, 7, 8}, nullptr);
  EXPECT_EQ(logits.rows(), 4);
  EXPECT_EQ(logits.cols(), doc::kNumEntityIobLabels);
}

TEST(NerModelTest, ProbabilitiesAreDistributions) {
  auto& fx = GetFixture();
  NerModelConfig cfg = TinyNerConfig(fx.tokenizer->vocab().size());
  Rng rng(2);
  NerModel model(cfg, &rng);
  model.SetTraining(false);
  Tensor probs = model.Probabilities({5, 6, 7});
  for (int t = 0; t < 3; ++t) {
    float total = 0.0f;
    for (int c = 0; c < probs.cols(); ++c) total += probs.at(t, c);
    EXPECT_NEAR(total, 1.0f, 1e-4f);
  }
}

TEST(SelfDistillTest, TeacherOnlyTrainsAboveChance) {
  auto& fx = GetFixture();
  NerModelConfig cfg = TinyNerConfig(fx.tokenizer->vocab().size());
  SelfTrainOptions options;
  options.teacher_epochs = 8;
  options.teacher_patience = 8;
  options.self_distillation = false;  // teacher only
  Rng rng(3);
  SelfDistillTrainer trainer(cfg, options, fx.tokenizer.get(), &rng);
  SelfTrainResult result = trainer.Train(fx.data.train, fx.data.val);
  ASSERT_NE(result.model, nullptr);
  const double f1 = trainer.EvaluateSpanF1(*result.model, fx.data.test);
  EXPECT_GT(f1, 0.25);
}

TEST(SelfDistillTest, FullLoopAtLeastMatchesTeacher) {
  auto& fx = GetFixture();
  NerModelConfig cfg = TinyNerConfig(fx.tokenizer->vocab().size());

  SelfTrainOptions teacher_only;
  teacher_only.teacher_epochs = 5;
  teacher_only.self_distillation = false;
  Rng rng1(4);
  SelfDistillTrainer t1(cfg, teacher_only, fx.tokenizer.get(), &rng1);
  const SelfTrainResult teacher = t1.Train(fx.data.train, fx.data.val);

  SelfTrainOptions full;
  full.teacher_epochs = 5;
  full.iterations = 2;
  Rng rng2(4);
  SelfDistillTrainer t2(cfg, full, fx.tokenizer.get(), &rng2);
  const SelfTrainResult student = t2.Train(fx.data.train, fx.data.val);

  // The self-distillation loop keeps the best-on-validation model, so it
  // can never end below the teacher's validation score.
  EXPECT_GE(student.best_val_f1 + 1e-9, teacher.best_val_f1);
}

TEST(SelfDistillTest, ResultModelScoresTheReturnedBest) {
  // Both the teacher-only and the full loop return the best-on-validation
  // model, so re-scoring it on the validation set must give exactly the
  // returned best F1.
  auto& fx = GetFixture();
  NerModelConfig cfg = TinyNerConfig(fx.tokenizer->vocab().size());
  for (const bool self_distillation : {false, true}) {
    SelfTrainOptions options;
    options.teacher_epochs = 4;
    options.iterations = 2;
    options.self_distillation = self_distillation;
    Rng rng(6);
    SelfDistillTrainer trainer(cfg, options, fx.tokenizer.get(), &rng);
    const SelfTrainResult result = trainer.Train(fx.data.train, fx.data.val);
    ASSERT_NE(result.model, nullptr);
    EXPECT_EQ(trainer.EvaluateSpanF1(*result.model, fx.data.val),
              result.best_val_f1)
        << "self_distillation=" << self_distillation;
  }
}

TEST(SelfDistillTest, HardLabelVariantRuns) {
  auto& fx = GetFixture();
  NerModelConfig cfg = TinyNerConfig(fx.tokenizer->vocab().size());
  SelfTrainOptions options;
  options.teacher_epochs = 2;
  options.iterations = 1;
  options.soft_labels = false;       // w/o SL
  options.confidence_selection = false;  // w/o HCS
  Rng rng(5);
  SelfDistillTrainer trainer(cfg, options, fx.tokenizer.get(), &rng);
  SelfTrainResult result = trainer.Train(fx.data.train, fx.data.val);
  ASSERT_NE(result.model, nullptr);
  EXPECT_GE(result.best_val_f1, 0.0);
}

}  // namespace
}  // namespace selftrain
}  // namespace resuformer
