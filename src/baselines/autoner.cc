#include "baselines/autoner.h"

#include <algorithm>

#include "common/logging.h"
#include "eval/entity_metrics.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace resuformer {
namespace baselines {

namespace {

constexpr int kTie = 0;
constexpr int kBreak = 1;
constexpr int kUnknownBoundary = -1;
constexpr int kNoneType = doc::kNumEntityTags;  // chunk type "None"

/// Boundary targets for positions 1..T-1 under the Tie-or-Break scheme
/// derived from distant IOB labels: inside a matched span -> Tie; at a span
/// edge -> Break; between two unmatched tokens -> unknown (no supervision).
std::vector<int> BoundaryTargets(const std::vector<int>& labels) {
  std::vector<int> targets(labels.size(), kUnknownBoundary);
  for (size_t t = 1; t < labels.size(); ++t) {
    doc::EntityTag tag_prev, tag_cur;
    bool begin_prev, begin_cur;
    const bool prev_entity =
        doc::ParseEntityIobLabel(labels[t - 1], &tag_prev, &begin_prev);
    const bool cur_entity =
        doc::ParseEntityIobLabel(labels[t], &tag_cur, &begin_cur);
    if (cur_entity && !begin_cur) {
      targets[t] = kTie;  // continuation inside a span
    } else if (prev_entity || cur_entity) {
      targets[t] = kBreak;  // span edge
    }
    // both outside: unknown — the scheme never claims two unmatched tokens
    // are in the same chunk.
  }
  return targets;
}

}  // namespace

AutoNer::AutoNer(const selftrain::NerModelConfig& config,
                 const text::WordPieceTokenizer* tokenizer, Rng* rng)
    : config_(config), tokenizer_(tokenizer) {
  backbone_ = std::make_unique<selftrain::NerModel>(config, rng);
  const int state_dim = 2 * config.lstm_hidden;
  boundary_head_ = std::make_unique<nn::Linear>(2 * state_dim, 2, rng);
  type_head_ =
      std::make_unique<nn::Linear>(state_dim, doc::kNumEntityTags + 1, rng);
}

Tensor AutoNer::States(const std::vector<int>& ids, Rng* dropout_rng) const {
  return backbone_->ContextualStates(ids, dropout_rng);
}

double AutoNer::Fit(const std::vector<distant::AnnotatedSequence>& train,
                    const std::vector<distant::AnnotatedSequence>& val,
                    int epochs, int patience, Rng* rng) {
  std::vector<Tensor> params = backbone_->Parameters();
  for (const Tensor& p : boundary_head_->Parameters()) params.push_back(p);
  for (const Tensor& p : type_head_->Parameters()) params.push_back(p);
  nn::Adam adam(params, config_.encoder_lr, 0.9f, 0.999f, 1e-8f,
                config_.weight_decay);
  std::vector<Tensor> head = backbone_->HeadParameters();
  for (const Tensor& p : boundary_head_->Parameters()) head.push_back(p);
  for (const Tensor& p : type_head_->Parameters()) head.push_back(p);
  adam.SetLearningRateFor(head, config_.head_lr);

  auto val_f1 = [&]() {
    return eval::ScoreNerPredictor(
               [this](const std::vector<std::string>& w) {
                 return Predict(w);
               },
               val)
        .Overall()
        .f1;
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
      const int t_len = static_cast<int>(ids.size());
      if (t_len < 2) continue;

      adam.ZeroGrad();
      Tensor states = States(ids, rng);

      // Boundary loss over supervised adjacent pairs.
      const std::vector<int> boundary = BoundaryTargets(labels);
      std::vector<int> pair_left, pair_right, pair_targets;
      for (int t = 1; t < t_len; ++t) {
        if (boundary[t] == kUnknownBoundary) continue;
        pair_left.push_back(t - 1);
        pair_right.push_back(t);
        pair_targets.push_back(boundary[t]);
      }
      std::vector<Tensor> losses;
      if (!pair_targets.empty()) {
        Tensor pairs = ops::ConcatCols({ops::GatherRows(states, pair_left),
                                        ops::GatherRows(states, pair_right)});
        losses.push_back(
            ops::CrossEntropy(boundary_head_->Forward(pairs), pair_targets));
      }

      // Type loss over matched spans (and random O singleton chunks as
      // "None" negatives).
      std::vector<Tensor> chunk_reps;
      std::vector<int> chunk_types;
      for (const eval::EntitySpan& span :
           eval::ExtractEntitySpans(labels)) {
        std::vector<int> span_rows;
        for (int t = span.start; t < span.end && t < t_len; ++t) {
          span_rows.push_back(t);
        }
        if (span_rows.empty()) continue;
        Tensor mean = ops::Scale(
            ops::MatMul(Tensor::Full({1, static_cast<int>(span_rows.size())},
                                     1.0f),
                        ops::GatherRows(states, span_rows)),
            1.0f / static_cast<float>(span_rows.size()));
        chunk_reps.push_back(mean);
        chunk_types.push_back(static_cast<int>(span.tag));
      }
      for (int t = 0; t < t_len; ++t) {
        if (labels[t] == 0 && rng->Bernoulli(0.1)) {
          chunk_reps.push_back(ops::SliceRows(states, t, 1));
          chunk_types.push_back(kNoneType);
        }
      }
      if (!chunk_reps.empty()) {
        losses.push_back(ops::CrossEntropy(
            type_head_->Forward(ops::ConcatRows(chunk_reps)), chunk_types));
      }
      if (losses.empty()) continue;
      Tensor loss = losses[0];
      for (size_t i = 1; i < losses.size(); ++i) {
        loss = ops::Add(loss, losses[i]);
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

std::vector<int> AutoNer::Predict(
    const std::vector<std::string>& words) const {
  NoGradGuard guard;
  const std::vector<int> ids =
      selftrain::EncodeWordsForNer(words, *tokenizer_, config_);
  const int t_len = static_cast<int>(ids.size());
  std::vector<int> labels(t_len, 0);
  if (t_len == 0) return labels;
  Tensor states = States(ids, nullptr);

  // Predicted boundaries: break before t when the boundary head says so.
  std::vector<bool> break_before(t_len, false);
  if (t_len >= 2) {
    std::vector<int> left(t_len - 1), right(t_len - 1);
    for (int t = 1; t < t_len; ++t) {
      left[t - 1] = t - 1;
      right[t - 1] = t;
    }
    Tensor pairs = ops::ConcatCols(
        {ops::GatherRows(states, left), ops::GatherRows(states, right)});
    Tensor logits = boundary_head_->Forward(pairs);
    for (int t = 1; t < t_len; ++t) {
      break_before[t] = logits.at(t - 1, kBreak) > logits.at(t - 1, kTie);
    }
  }

  // Chunk and type.
  int start = 0;
  for (int t = 1; t <= t_len; ++t) {
    if (t == t_len || break_before[t]) {
      std::vector<int> span_rows;
      for (int i = start; i < t; ++i) span_rows.push_back(i);
      Tensor mean = ops::Scale(
          ops::MatMul(Tensor::Full({1, static_cast<int>(span_rows.size())},
                                   1.0f),
                      ops::GatherRows(states, span_rows)),
          1.0f / static_cast<float>(span_rows.size()));
      Tensor logits = type_head_->Forward(mean);
      int best_type = 0;
      for (int c = 1; c <= doc::kNumEntityTags; ++c) {
        if (logits.at(0, c) > logits.at(0, best_type)) best_type = c;
      }
      if (best_type != kNoneType) {
        for (int i = start; i < t; ++i) {
          labels[i] = doc::EntityIobLabel(
              static_cast<doc::EntityTag>(best_type), i == start);
        }
      }
      start = t;
    }
  }
  return labels;
}

}  // namespace baselines
}  // namespace resuformer
