#ifndef RESUFORMER_TENSOR_TENSOR_H_
#define RESUFORMER_TENSOR_TENSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace resuformer {

/// Shared storage + autograd metadata behind a Tensor handle.
/// Not part of the public API; use Tensor.
struct TensorImpl {
  ~TensorImpl();  // returns arena-acquired data to the TensorArena

  std::vector<int> shape;
  std::vector<float> data;
  std::vector<float> grad;  // size() elements once EnsureGrad() ran
  bool requires_grad = false;
  // True when `data` was drawn from the TensorArena free lists; balances
  // the arena's outstanding-buffer count on destruction.
  bool data_from_arena = false;

  // External storage mode (mmap'd RFP3 checkpoints): when set, `data` is
  // empty and every element access routes through `external_data`, whose
  // backing memory is pinned by `external_owner` (typically the munmap
  // deleter of a whole checkpoint mapping shared by all parameters). The
  // mapping is MAP_PRIVATE with PROT_READ|PROT_WRITE, so reads share one
  // physical copy across processes and a write (an optimizer step) faults
  // in a private copy-on-write page instead of crashing.
  float* external_data = nullptr;
  std::shared_ptr<void> external_owner;

  float* data_ptr() {
    return external_data != nullptr ? external_data : data.data();
  }
  const float* data_ptr() const {
    return external_data != nullptr ? external_data : data.data();
  }

  // Reverse-mode autograd: when this node was produced by an op, parents
  // holds its inputs and backward_fn accumulates into their grad buffers.
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void()> backward_fn;
  // Set once backward_fn has run; read by the debug graph validator
  // (autograd_internal::ValidateGraph) to reject double backward through
  // closures whose captured scratch may have been recycled.
  bool backward_consumed = false;

  int64_t size() const {
    int64_t n = 1;
    for (int d : shape) n *= d;
    return n;
  }
  void EnsureGrad() {
    if (static_cast<int64_t>(grad.size()) != size()) {
      grad.assign(static_cast<size_t>(size()), 0.0f);
    }
  }
};

/// \brief Row-major float32 tensor with dynamic reverse-mode autograd.
///
/// Tensor is a cheap value-semantics handle (shared_ptr to TensorImpl).
/// Supported ranks are 1 and 2 — everything in this library is expressed as
/// matrices [rows, cols] or vectors [n]. Operations live in tensor/ops.h;
/// calling Backward() on a scalar result propagates gradients to every
/// reachable tensor with requires_grad set.
class Tensor {
 public:
  /// Null handle; defined() is false.
  Tensor() = default;

  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  /// Factory: zero-filled tensor with the given shape.
  [[nodiscard]] static Tensor Zeros(std::vector<int> shape, bool requires_grad = false);

  /// Factory: all elements set to `value`.
  [[nodiscard]] static Tensor Full(std::vector<int> shape, float value,
                     bool requires_grad = false);

  /// Factory: takes ownership of `data` (size must match shape product).
  [[nodiscard]] static Tensor FromData(std::vector<int> shape, std::vector<float> data,
                         bool requires_grad = false);

  /// Factory: i.i.d. Gaussian entries with the given stddev.
  [[nodiscard]] static Tensor Randn(std::vector<int> shape, Rng* rng, float stddev = 1.0f,
                      bool requires_grad = false);

  /// Factory: i.i.d. uniform entries in [lo, hi).
  [[nodiscard]] static Tensor Uniform(std::vector<int> shape, Rng* rng, float lo, float hi,
                        bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }

  const std::vector<int>& shape() const;
  int rank() const;
  /// Dimension extent; dim(0) is rows for rank-2 tensors.
  int dim(int axis) const;
  /// Total number of elements.
  int64_t size() const;
  /// Rows/cols accessors for rank-2 tensors (rank-1 is treated as one row).
  int rows() const;
  int cols() const;

  float* data();
  const float* data() const;
  float* grad();
  const float* grad() const;

  /// Element access for rank-2 (r, c) and rank-1 (i) tensors.
  float& at(int r, int c);
  float at(int r, int c) const;
  float& at(int i);
  float at(int i) const;

  bool requires_grad() const;
  /// Marks this tensor as a leaf that accumulates gradient.
  void set_requires_grad(bool requires_grad);
  void ZeroGrad();

  /// Runs reverse-mode autodiff from this (scalar) tensor: topologically
  /// sorts the graph and invokes each node's backward function.
  void Backward();

  /// Detached copy sharing no autograd history (data is copied).
  [[nodiscard]] Tensor Detach() const;

  /// Switches this tensor to external storage: element data now lives at
  /// `ptr` (size() floats, 4-byte aligned), kept alive by `owner`. The
  /// previous heap buffer is returned to the arena. Used by the RFP3
  /// mmap loader to point parameters at checkpoint pages (zero-copy).
  void AttachExternalStorage(float* ptr, std::shared_ptr<void> owner);

  /// True when this tensor's elements live in external (mmap'd) storage.
  bool has_external_storage() const;

  /// Scalar value of a 1-element tensor.
  float item() const;

  std::string ShapeString() const;

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// RAII guard disabling graph construction (inference mode). While one is
/// alive, ops produce tensors with no parents/backward_fn, which keeps
/// evaluation fast and memory flat.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True when graph construction is currently enabled.
  static bool GradEnabled();

 private:
  bool previous_;
};

}  // namespace resuformer

#endif  // RESUFORMER_TENSOR_TENSOR_H_
