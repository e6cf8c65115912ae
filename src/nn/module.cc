#include "nn/module.h"

namespace resuformer {
namespace nn {

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> all = parameters_;
  for (const Module* child : children_) {
    std::vector<Tensor> sub = child->Parameters();
    all.insert(all.end(), sub.begin(), sub.end());
  }
  return all;
}

int64_t Module::ParameterCount() const {
  int64_t count = 0;
  for (const Tensor& p : Parameters()) count += p.size();
  return count;
}

void Module::ZeroGrad() {
  for (Tensor& p : Parameters()) p.ZeroGrad();
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (Module* child : children_) child->SetTraining(training);
}

void Module::SetInt8(bool int8) {
  for (Module* child : children_) child->SetInt8(int8);
}

Tensor Module::RegisterParameter(Tensor t) {
  t.set_requires_grad(true);
  parameters_.push_back(t);
  return t;
}

void Module::RegisterModule(Module* child) { children_.push_back(child); }

}  // namespace nn
}  // namespace resuformer
