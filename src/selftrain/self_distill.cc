#include "selftrain/self_distill.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "common/logging.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace resuformer {
namespace selftrain {

namespace {

using SpanSet = std::set<std::tuple<int, int, int>>;  // (start, end, tag)

SpanSet ExtractSpans(const std::vector<int>& labels) {
  SpanSet spans;
  size_t i = 0;
  while (i < labels.size()) {
    doc::EntityTag tag;
    bool begin;
    if (doc::ParseEntityIobLabel(labels[i], &tag, &begin) && begin) {
      size_t j = i + 1;
      doc::EntityTag tag2;
      bool begin2;
      while (j < labels.size() &&
             doc::ParseEntityIobLabel(labels[j], &tag2, &begin2) && !begin2 &&
             tag2 == tag) {
        ++j;
      }
      spans.insert({static_cast<int>(i), static_cast<int>(j),
                    static_cast<int>(tag)});
      i = j;
    } else {
      ++i;
    }
  }
  return spans;
}

}  // namespace

double SelfDistillTrainer::EvaluateSpanF1(
    const NerModel& model,
    const std::vector<distant::AnnotatedSequence>& data) {
  int64_t pred_total = 0, gold_total = 0, correct = 0;
  for (const auto& seq : data) {
    const std::vector<int> ids =
        EncodeWordsForNer(seq.words, *tokenizer_, model_config_);
    std::vector<int> pred = model.Predict(ids);
    std::vector<int> gold = seq.labels;
    gold.resize(pred.size(), 0);  // truncation alignment
    const SpanSet pred_spans = ExtractSpans(pred);
    const SpanSet gold_spans = ExtractSpans(gold);
    pred_total += static_cast<int64_t>(pred_spans.size());
    gold_total += static_cast<int64_t>(gold_spans.size());
    for (const auto& s : pred_spans) correct += gold_spans.count(s);
  }
  if (pred_total == 0 || gold_total == 0) return 0.0;
  const double p = static_cast<double>(correct) / pred_total;
  const double r = static_cast<double>(correct) / gold_total;
  return p + r > 0 ? 2 * p * r / (p + r) : 0.0;
}

double SelfDistillTrainer::TrainSupervised(
    NerModel* model, const std::vector<distant::AnnotatedSequence>& train,
    const std::vector<distant::AnnotatedSequence>& val, int epochs,
    int patience) {
  nn::Adam adam(model->Parameters(), model_config_.encoder_lr, 0.9f, 0.999f,
                1e-8f, model_config_.weight_decay);
  adam.SetLearningRateFor(model->HeadParameters(), model_config_.head_lr);

  nn::ParameterSnapshot best_params;
  double best = -1.0;
  int bad = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    model->SetTraining(true);
    const std::vector<int> order =
        rng_->Permutation(static_cast<int>(train.size()));
    for (int idx : order) {
      const auto& seq = train[idx];
      const std::vector<int> ids =
          EncodeWordsForNer(seq.words, *tokenizer_, model_config_);
      std::vector<int> labels = seq.labels;
      labels.resize(ids.size(), 0);
      adam.ZeroGrad();
      Tensor loss = ops::CrossEntropy(model->Logits(ids, rng_), labels);
      loss.Backward();
      adam.ClipGradNorm(model_config_.grad_clip);
      adam.Step();
    }
    model->SetTraining(false);
    const double f1 = EvaluateSpanF1(*model, val);
    if (options_.verbose) {
      RF_LOG(Info) << "teacher epoch " << epoch << " val_f1=" << f1;
    }
    if (f1 > best) {
      best = f1;
      bad = 0;
      best_params.Capture(model->Parameters());
    } else if (++bad >= patience) {
      break;  // early stopping: the distant labels are noisy, don't overfit
    }
  }
  if (best >= 0.0) {
    RF_CHECK(best_params.Restore(model->Parameters()).ok());
  }
  model->SetTraining(false);
  return best;
}

void SelfDistillTrainer::StudentEpoch(
    const NerModel& teacher, NerModel* student,
    const std::vector<distant::AnnotatedSequence>& train,
    nn::Adam* optimizer) {
  const int num_labels = model_config_.num_labels;
  // Eq. 9's unnormalized class frequencies p_c are computed over the whole
  // training set from the current teacher (Xie et al., 2016): dividing by
  // p_c is what lets confidently-entity-looking tokens overcome the
  // dominant O mass of the distant annotation.
  std::vector<float> p_c(num_labels, 1e-6f);
  for (const auto& seq : train) {
    const std::vector<int> ids =
        EncodeWordsForNer(seq.words, *tokenizer_, model_config_);
    Tensor f = teacher.Probabilities(ids);
    for (int t = 0; t < f.rows(); ++t) {
      for (int c = 0; c < num_labels; ++c) p_c[c] += f.at(t, c);
    }
  }

  student->SetTraining(true);
  const std::vector<int> order =
      rng_->Permutation(static_cast<int>(train.size()));
  for (int idx : order) {
    const auto& seq = train[idx];
    const std::vector<int> ids =
        EncodeWordsForNer(seq.words, *tokenizer_, model_config_);
    const int t_len = static_cast<int>(ids.size());

    // Teacher soft pseudo labels with squared re-weighting (Eq. 9).
    Tensor f = teacher.Probabilities(ids);  // [T, C], no grad
    Tensor soft = Tensor::Zeros({t_len, num_labels});
    std::vector<float> weights(t_len, 1.0f);
    for (int t = 0; t < t_len; ++t) {
      float z = 0.0f;
      for (int c = 0; c < num_labels; ++c) {
        const float s = f.at(t, c) * f.at(t, c) / p_c[c];
        soft.at(t, c) = s;
        z += s;
      }
      float max_s = 0.0f;
      for (int c = 0; c < num_labels; ++c) {
        soft.at(t, c) /= z;
        max_s = std::max(max_s, soft.at(t, c));
      }
      if (!options_.soft_labels) {
        // Hard pseudo label: argmax one-hot (w/o SL ablation).
        int best = 0;
        for (int c = 1; c < num_labels; ++c) {
          if (soft.at(t, c) > soft.at(t, best)) best = c;
        }
        for (int c = 0; c < num_labels; ++c) {
          soft.at(t, c) = c == best ? 1.0f : 0.0f;
        }
      }
      // High-confidence token selection (Eq. 11): drop uncertain tokens.
      if (options_.confidence_selection && max_s <= options_.gamma) {
        weights[t] = 0.0f;
      }
    }
    bool any = false;
    for (float w : weights) any = any || w > 0.0f;
    if (!any) continue;

    optimizer->ZeroGrad();
    Tensor loss = ops::SoftCrossEntropy(student->Logits(ids, rng_), soft,
                                        weights);  // Eq. 10 / Eq. 12
    loss.Backward();
    optimizer->ClipGradNorm(model_config_.grad_clip);
    optimizer->Step();
  }
  student->SetTraining(false);
}

SelfTrainResult SelfDistillTrainer::Train(
    const std::vector<distant::AnnotatedSequence>& train,
    const std::vector<distant::AnnotatedSequence>& val) {
  SelfTrainResult result;

  // Step 1: teacher with early stopping on the distant training set.
  auto teacher = std::make_unique<NerModel>(model_config_, rng_);
  double teacher_f1 = TrainSupervised(teacher.get(), train, val,
                                      options_.teacher_epochs,
                                      options_.teacher_patience);
  if (!options_.self_distillation) {
    result.best_val_f1 = teacher_f1;
    result.model = std::move(teacher);
    return result;  // "w/o SD" ablation
  }

  // Step 2: student initialized from the teacher.
  auto student = std::make_unique<NerModel>(model_config_, rng_);
  RF_CHECK(nn::CopyParameters(*teacher, student.get()).ok());

  nn::Adam adam(student->Parameters(), model_config_.encoder_lr, 0.9f,
                0.999f, 1e-8f, model_config_.weight_decay);
  adam.SetLearningRateFor(student->HeadParameters(), model_config_.head_lr);

  // The teacher always holds the best model so far: it starts as the
  // student's initialization and is re-initialized from every student that
  // improves, so it is the result — no separate snapshot needed.
  double best = teacher_f1;
  for (int iter = 0; iter < options_.iterations; ++iter) {
    for (int e = 0; e < options_.student_epochs_per_iteration; ++e) {
      StudentEpoch(*teacher, student.get(), train, &adam);
    }
    const double f1 = EvaluateSpanF1(*student, val);
    if (options_.verbose) {
      RF_LOG(Info) << "self-train iter " << iter << " student_f1=" << f1
                   << " best=" << best;
    }
    if (f1 > best) {
      best = f1;
      // Re-initialize the teacher from the improved student (Algorithm 2,
      // line 8): a better student produces a better teacher.
      RF_CHECK(nn::CopyParameters(*student, teacher.get()).ok());
    }
  }
  result.best_val_f1 = best;
  result.model = std::move(teacher);
  return result;
}

}  // namespace selftrain
}  // namespace resuformer
