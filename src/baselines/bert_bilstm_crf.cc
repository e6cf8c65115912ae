#include "baselines/bert_bilstm_crf.h"

#include "common/logging.h"
#include "eval/entity_metrics.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace resuformer {
namespace baselines {

BertBilstmCrf::BertBilstmCrf(const selftrain::NerModelConfig& config,
                             const text::WordPieceTokenizer* tokenizer,
                             bool fuzzy, Rng* rng)
    : config_(config), tokenizer_(tokenizer), fuzzy_(fuzzy) {
  backbone_ = std::make_unique<selftrain::NerModel>(config, rng);
  crf_ = std::make_unique<crf::FuzzyCrf>(config.num_labels, rng);
}

Tensor BertBilstmCrf::Emissions(const std::vector<int>& ids,
                                Rng* dropout_rng) const {
  return backbone_->Logits(ids, dropout_rng);
}

double BertBilstmCrf::Fit(
    const std::vector<distant::AnnotatedSequence>& train,
    const std::vector<distant::AnnotatedSequence>& val, int epochs,
    int patience, Rng* rng) {
  std::vector<Tensor> params = backbone_->Parameters();
  for (const Tensor& p : crf_->Parameters()) params.push_back(p);
  nn::Adam adam(params, config_.encoder_lr, 0.9f, 0.999f, 1e-8f,
                config_.weight_decay);
  std::vector<Tensor> head = backbone_->HeadParameters();
  for (const Tensor& p : crf_->Parameters()) head.push_back(p);
  adam.SetLearningRateFor(head, config_.head_lr);

  auto val_f1 = [&]() {
    eval::EntityScorer scorer = eval::ScoreNerPredictor(
        [this](const std::vector<std::string>& words) {
          return Predict(words);
        },
        val);
    return scorer.Overall().f1;
  };

  nn::ParameterSnapshot best_params;
  double best = -1.0;
  int bad = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    backbone_->SetTraining(true);
    const std::vector<int> order =
        rng->Permutation(static_cast<int>(train.size()));
    for (int idx : order) {
      const auto& seq = train[idx];
      const std::vector<int> ids =
          selftrain::EncodeWordsForNer(seq.words, *tokenizer_, config_);
      std::vector<int> labels = seq.labels;
      labels.resize(ids.size(), 0);
      adam.ZeroGrad();
      Tensor emissions = Emissions(ids, rng);
      Tensor loss;
      if (fuzzy_) {
        // Constrained lattice: matched tokens keep their distant label.
        // Unmatched tokens are ambiguous (any label) only when they are
        // *plausible entity candidates* — capitalized, digit-bearing, or
        // adjacent to a matched span — mirroring AutoNER's use of mined
        // phrases as potential entities; all other tokens are fixed to O
        // (otherwise nothing anchors the O class and precision collapses).
        auto cap = [&](size_t t) {
          return t < seq.words.size() && !seq.words[t].empty() &&
                 std::isupper(
                     static_cast<unsigned char>(seq.words[t][0])) != 0;
        };
        auto candidate = [&](size_t t) {
          const std::string& w = seq.words[t];
          if (w.empty()) return false;
          for (char c : w) {
            if (std::isdigit(static_cast<unsigned char>(c))) return true;
          }
          const bool prev_matched = t > 0 && labels[t - 1] != 0;
          const bool next_matched =
              t + 1 < ids.size() && labels[t + 1] != 0;
          if (prev_matched || next_matched) return true;
          // Capitalized *runs* (>= 2 adjacent capitalized words) look like
          // unmatched entity mentions; an isolated capitalized word is
          // usually just a sentence start and stays O.
          return cap(t) && ((t > 0 && cap(t - 1)) || cap(t + 1));
        };
        std::vector<std::vector<bool>> allowed(
            ids.size(), std::vector<bool>(config_.num_labels, false));
        for (size_t t = 0; t < ids.size(); ++t) {
          if (labels[t] != 0) {
            allowed[t][labels[t]] = true;
          } else if (t < seq.words.size() && candidate(t)) {
            allowed[t].assign(config_.num_labels, true);
          } else {
            allowed[t][0] = true;  // fixed O
          }
        }
        loss = crf_->MarginalNegLogLikelihood(emissions, allowed);
      } else {
        loss = crf_->NegLogLikelihood(emissions, labels);
      }
      loss.Backward();
      adam.ClipGradNorm(config_.grad_clip);
      adam.Step();
    }
    backbone_->SetTraining(false);
    const double f1 = val_f1();
    if (f1 > best) {
      best = f1;
      bad = 0;
      best_params.Capture(params);
    } else if (++bad >= patience) {
      break;
    }
  }
  if (best >= 0.0) {
    RF_CHECK(best_params.Restore(params).ok());
  }
  backbone_->SetTraining(false);
  return best;
}

std::vector<int> BertBilstmCrf::Predict(
    const std::vector<std::string>& words) const {
  NoGradGuard guard;
  const std::vector<int> ids =
      selftrain::EncodeWordsForNer(words, *tokenizer_, config_);
  return crf_->Decode(Emissions(ids, nullptr));
}

}  // namespace baselines
}  // namespace resuformer
