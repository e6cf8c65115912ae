#ifndef RESUFORMER_NN_MODULE_H_
#define RESUFORMER_NN_MODULE_H_

#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace resuformer {
namespace nn {

/// \brief Base class for trainable components.
///
/// A Module owns parameters (registered via RegisterParameter) and may own
/// child modules (registered via RegisterModule; lifetime is managed by the
/// owner, typically as member fields). Parameters() flattens the tree in
/// registration order, which also defines the serialization layout.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters of this module and its descendants, in a deterministic
  /// order (own parameters first, then children in registration order).
  std::vector<Tensor> Parameters() const;

  /// Total number of scalar parameters.
  int64_t ParameterCount() const;

  /// Clears the gradient buffers of every parameter.
  void ZeroGrad();

  /// Training mode toggles dropout and similar stochastic behaviour.
  /// Recurses into the children; a module caching state derived from its
  /// weights (nn::Linear's int8 copy) overrides it to drop that state.
  virtual void SetTraining(bool training);
  bool training() const { return training_; }

  /// Int8 inference: every nn::Linear in this subtree runs its eval-mode
  /// forwards under NoGradGuard as an int8 GEMM (see Linear). Recurses into
  /// the children.
  virtual void SetInt8(bool int8);

 protected:
  /// Registers `t` as a trainable leaf (sets requires_grad).
  Tensor RegisterParameter(Tensor t);

  /// Registers a child; `child` must outlive this module.
  void RegisterModule(Module* child);

 private:
  std::vector<Tensor> parameters_;
  std::vector<Module*> children_;
  bool training_ = true;
};

}  // namespace nn
}  // namespace resuformer

#endif  // RESUFORMER_NN_MODULE_H_
