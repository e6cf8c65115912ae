#include "baselines/layout_token_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "tensor/ops.h"
#include "text/vocab.h"

namespace resuformer {
namespace baselines {

namespace {

int Bucket(int coord, int buckets) {
  return std::clamp(coord * buckets / 1001, 0, buckets - 1);
}

/// Symmetric row-normalized k-NN adjacency (with self loops) over token
/// positions: neighbors by Euclidean distance in (x_center, y_center)
/// within the same page.
Tensor SpatialAdjacency(const TokenizedDoc& doc, int k) {
  const int n = static_cast<int>(doc.ids.size());
  Tensor adj = Tensor::Zeros({n, n});
  std::vector<float> cx(n), cy(n);
  std::vector<int> page(n);
  for (int i = 0; i < n; ++i) {
    cx[i] = 0.5f * (doc.layout[i][0] + doc.layout[i][2]);
    cy[i] = 0.5f * (doc.layout[i][1] + doc.layout[i][3]);
    page[i] = doc.layout[i][6];
  }
  for (int i = 0; i < n; ++i) {
    // Find k nearest same-page tokens (linear scan; n is bounded).
    std::vector<std::pair<float, int>> dist;
    dist.reserve(16);
    for (int j = 0; j < n; ++j) {
      if (j == i || page[j] != page[i]) continue;
      const float dx = cx[i] - cx[j];
      const float dy = cy[i] - cy[j];
      dist.push_back({dx * dx + dy * dy, j});
    }
    const int keep = std::min<int>(k, static_cast<int>(dist.size()));
    std::partial_sort(dist.begin(), dist.begin() + keep, dist.end());
    adj.at(i, i) = 1.0f;
    for (int t = 0; t < keep; ++t) adj.at(i, dist[t].second) = 1.0f;
  }
  // Row normalize.
  for (int i = 0; i < n; ++i) {
    float row_sum = 0.0f;
    for (int j = 0; j < n; ++j) row_sum += adj.at(i, j);
    for (int j = 0; j < n; ++j) adj.at(i, j) /= row_sum;
  }
  return adj;
}

}  // namespace

TokenTaggerBase::TokenTaggerBase(const TokenModelConfig& config,
                                 Options options,
                                 const text::WordPieceTokenizer* tokenizer,
                                 Rng* rng)
    : config_(config), options_(options), tokenizer_(tokenizer) {
  token_embedding_ =
      std::make_unique<nn::Embedding>(config.vocab_size, config.hidden, rng);
  position_embedding_ =
      std::make_unique<nn::Embedding>(config.window, config.hidden, rng);
  RegisterModule(token_embedding_.get());
  RegisterModule(position_embedding_.get());
  if (options_.use_layout) {
    for (int i = 0; i < 7; ++i) {
      layout_embeddings_.push_back(std::make_unique<nn::Embedding>(
          config.layout_buckets, config.hidden, rng));
      RegisterModule(layout_embeddings_.back().get());
    }
  }
  if (options_.use_visual) {
    visual_projection_ = std::make_unique<nn::Linear>(2, config.hidden, rng);
    RegisterModule(visual_projection_.get());
  }
  nn::TransformerConfig enc_cfg{config.hidden, config.layers,
                                config.num_heads, config.ffn, config.dropout};
  encoder_ = std::make_unique<nn::TransformerEncoder>(enc_cfg, rng);
  RegisterModule(encoder_.get());
  if (options_.use_gcn) {
    gcn1_ = std::make_unique<nn::Linear>(config.hidden, config.hidden, rng);
    gcn2_ = std::make_unique<nn::Linear>(config.hidden, config.hidden, rng);
    RegisterModule(gcn1_.get());
    RegisterModule(gcn2_.get());
  }
  head_ =
      std::make_unique<nn::Linear>(config.hidden, doc::kNumIobLabels, rng);
  RegisterModule(head_.get());
  if (options_.crf_head) {
    crf_ = std::make_unique<crf::LinearCrf>(doc::kNumIobLabels, rng);
    RegisterModule(crf_.get());
  }
  mlm_bias_ = RegisterParameter(Tensor::Zeros({config.vocab_size}));
}

Tensor TokenTaggerBase::WindowStates(const TokenizedDoc& doc, int start,
                                     int len,
                                     const std::vector<int>* ids_override,
                                     Rng* dropout_rng) const {
  std::vector<int> ids(len);
  std::vector<int> positions(len);
  for (int i = 0; i < len; ++i) {
    ids[i] = ids_override ? (*ids_override)[start + i] : doc.ids[start + i];
    positions[i] = i;
  }
  Tensor x = ops::Add(token_embedding_->Forward(ids),
                      position_embedding_->Forward(positions));
  if (options_.use_layout) {
    std::vector<int> buckets(len);
    for (int f = 0; f < 7; ++f) {
      for (int i = 0; i < len; ++i) {
        buckets[i] = Bucket(doc.layout[start + i][f], config_.layout_buckets);
      }
      x = ops::Add(x, layout_embeddings_[f]->Forward(buckets));
    }
  }
  if (options_.use_visual) {
    Tensor channels = Tensor::Zeros({len, 2});
    for (int i = 0; i < len; ++i) {
      channels.at(i, 0) = doc.font_size[start + i];
      channels.at(i, 1) = doc.bold[start + i];
    }
    x = ops::Add(x, visual_projection_->Forward(channels));
  }
  return encoder_->Forward(x, {}, dropout_rng);
}

Tensor TokenTaggerBase::ContextualStates(const TokenizedDoc& doc,
                                         Rng* dropout_rng) const {
  const int n = static_cast<int>(doc.ids.size());
  RF_CHECK_GT(n, 0);
  std::vector<Tensor> windows;
  for (int start = 0; start < n; start += config_.window) {
    const int len = std::min(config_.window, n - start);
    windows.push_back(WindowStates(doc, start, len, nullptr, dropout_rng));
  }
  Tensor states = ops::ConcatRows(windows);
  if (options_.use_gcn) {
    // Two graph-convolution layers over the spatial k-NN graph: H' =
    // relu(A_hat H W) (Kipf & Welling form with row normalization).
    Tensor adj = SpatialAdjacency(doc, /*k=*/6);
    states = ops::Relu(gcn1_->Forward(ops::MatMul(adj, states)));
    states = ops::Relu(gcn2_->Forward(ops::MatMul(adj, states)));
  }
  return states;
}

Tensor TokenTaggerBase::Emissions(const TokenizedDoc& doc,
                                  Rng* dropout_rng) const {
  return head_->Forward(ContextualStates(doc, dropout_rng));
}

std::vector<int> TokenTaggerBase::PredictTokenLabels(
    const TokenizedDoc& doc) const {
  NoGradGuard guard;
  Tensor emissions = Emissions(doc, nullptr);
  if (options_.crf_head) return crf_->Decode(emissions);
  std::vector<int> labels(emissions.rows());
  for (int t = 0; t < emissions.rows(); ++t) {
    int best = 0;
    for (int c = 1; c < emissions.cols(); ++c) {
      if (emissions.at(t, c) > emissions.at(t, best)) best = c;
    }
    labels[t] = best;
  }
  return labels;
}

void TokenTaggerBase::PretrainMlm(
    const std::vector<const doc::Document*>& docs, Rng* rng) {
  if (options_.mlm_pretrain_epochs <= 0) return;
  nn::Adam adam(Parameters(), config_.lr, 0.9f, 0.999f, 1e-8f,
                config_.weight_decay);
  SetTraining(true);
  for (int epoch = 0; epoch < options_.mlm_pretrain_epochs; ++epoch) {
    const std::vector<int> order =
        rng->Permutation(static_cast<int>(docs.size()));
    for (int idx : order) {
      const TokenizedDoc doc = TokenizeFlat(*docs[idx], *tokenizer_, config_);
      const int n = static_cast<int>(doc.ids.size());
      if (n < 8) continue;
      // One random window per document per epoch.
      const int start =
          n > config_.window ? rng->UniformInt(n - config_.window) : 0;
      const int len = std::min(config_.window, n - start);
      std::vector<int> masked = doc.ids;
      std::vector<int> targets;
      std::vector<int> positions;
      for (int i = 0; i < len; ++i) {
        if (!rng->Bernoulli(0.15)) continue;
        targets.push_back(doc.ids[start + i]);
        positions.push_back(i);
        const double roll = rng->Uniform();
        if (roll < 0.8) {
          masked[start + i] = text::kMaskId;
        } else if (roll < 0.9) {
          masked[start + i] = rng->UniformInt(config_.vocab_size);
        }
      }
      if (targets.empty()) continue;
      adam.ZeroGrad();
      Tensor states = WindowStates(doc, start, len, &masked, rng);
      Tensor logits = ops::Add(
          ops::MatMulTransposedB(ops::GatherRows(states, positions),
                                 token_embedding_->weight()),
          mlm_bias_);
      Tensor loss = ops::CrossEntropy(logits, targets);
      loss.Backward();
      adam.ClipGradNorm(config_.grad_clip);
      adam.Step();
    }
  }
  SetTraining(false);
}

void TokenTaggerBase::Fit(const std::vector<const doc::Document*>& train,
                          const std::vector<const doc::Document*>& val,
                          Rng* rng) {
  // Pre-tokenize once.
  std::vector<TokenizedDoc> train_docs, val_docs;
  for (const doc::Document* d : train) {
    train_docs.push_back(TokenizeFlat(*d, *tokenizer_, config_));
  }
  for (const doc::Document* d : val) {
    val_docs.push_back(TokenizeFlat(*d, *tokenizer_, config_));
  }

  nn::Adam adam(Parameters(), config_.lr, 0.9f, 0.999f, 1e-8f,
                config_.weight_decay);
  auto val_accuracy = [&]() {
    int correct = 0, total = 0;
    for (const TokenizedDoc& d : val_docs) {
      if (d.ids.empty()) continue;
      const std::vector<int> pred = PredictTokenLabels(d);
      for (size_t i = 0; i < pred.size(); ++i) {
        correct += pred[i] == d.token_labels[i];
        ++total;
      }
    }
    return total ? static_cast<double>(correct) / total : 0.0;
  };

  nn::ParameterSnapshot best_params;
  double best = -1.0;
  int bad = 0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    SetTraining(true);
    const std::vector<int> order =
        rng->Permutation(static_cast<int>(train_docs.size()));
    for (int idx : order) {
      const TokenizedDoc& d = train_docs[idx];
      if (d.ids.empty()) continue;
      adam.ZeroGrad();
      Tensor emissions = Emissions(d, rng);
      Tensor loss = options_.crf_head
                        ? crf_->NegLogLikelihood(emissions, d.token_labels)
                        : ops::CrossEntropy(emissions, d.token_labels);
      loss.Backward();
      adam.ClipGradNorm(config_.grad_clip);
      adam.Step();
    }
    SetTraining(false);
    const double acc = val_accuracy();
    if (acc > best) {
      best = acc;
      bad = 0;
      best_params.Capture(Parameters());
    } else if (++bad >= config_.patience) {
      break;
    }
  }
  if (best >= 0.0) {
    RF_CHECK(best_params.Restore(Parameters()).ok());
  }
  SetTraining(false);
}

std::vector<int> TokenTaggerBase::LabelSentences(
    const doc::Document& document) const {
  const TokenizedDoc doc = TokenizeFlat(document, *tokenizer_, config_);
  if (doc.ids.empty()) {
    return std::vector<int>(document.NumSentences(), doc::kOutsideLabel);
  }
  return TokenLabelsToSentenceLabels(doc, PredictTokenLabels(doc));
}

}  // namespace baselines
}  // namespace resuformer
