// Layer abstraction for the feed-forward DNN substrate.
//
// The paper models a trained DNN as G = g_n ∘ ... ∘ g_1 with fixed
// parameters. Each Layer here is one g_k. Besides the concrete forward
// pass, every layer implements two *abstract transformers* — one for the
// interval (box) domain and one for the zonotope domain — which is what
// lets the monitor construction compute the perturbation estimate of
// Definition 1 with either bound engine.
//
// Layers fix their input shape at construction time so that the abstract
// transformers can operate on flat vectors (row-major CHW order for
// convolutional layers).
//
// Every layer has two concrete paths. The per-sample forward()/backward()
// is the oracle. The batched kernels run over neuron-major FeatureBatches
// (dim × n, sample index innermost — the BoxBatch orientation) and are
// bit-identical to it: each output keeps the oracle's accumulation order,
// and parameter gradients accumulate sample by sample in order 0..n-1.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "absint/box_kernels.hpp"
#include "absint/interval.hpp"
#include "absint/zonotope.hpp"
#include "core/feature_batch.hpp"
#include "tensor/tensor.hpp"

namespace ranm {

class Rng;

/// One transformation g_k of the network. Inference, the abstract
/// transformers and the shape queries are const and reentrant; only
/// training writes (forward_train() keeps its input for backward()).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Short human-readable identifier, e.g. "Dense(64->32)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Shape of the input this layer was constructed for.
  [[nodiscard]] virtual Shape input_shape() const = 0;
  /// Shape this layer produces.
  [[nodiscard]] virtual Shape output_shape() const = 0;
  /// Flattened input dimension.
  [[nodiscard]] std::size_t input_size() const {
    return shape_numel(input_shape());
  }
  /// Flattened output dimension.
  [[nodiscard]] std::size_t output_size() const {
    return shape_numel(output_shape());
  }

  /// Concrete forward pass (inference).
  [[nodiscard]] virtual Tensor forward(const Tensor& x) const = 0;

  /// Training forward pass: forward(x), keeping x for backward().
  [[nodiscard]] Tensor forward_train(Tensor x) {
    Tensor y = forward(x);
    last_in_ = std::move(x);
    return y;
  }

  /// Gradient of the loss w.r.t. this layer's input, given the gradient
  /// w.r.t. its output. Accumulates parameter gradients (+=). Must be
  /// called after forward_train() on the same sample.
  [[nodiscard]] virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Batched inference: column i of `out` becomes forward(column i of
  /// `in`), bit for bit. `in` has input_size() rows; `out` is reset to
  /// output_size() × in.size(). Both must be owning batches.
  virtual void forward_batch(const FeatureBatch& in,
                             FeatureBatch& out) const = 0;

  /// Batched backward over the layer's input batch `in` and the output
  /// gradient `grad_out` (output_size() × n). Accumulates the parameter
  /// gradients (+=) sample by sample in order 0..n-1, exactly as n
  /// forward_train()/backward() calls would, and writes the input gradient
  /// into *grad_in (reset to input_size() × n) unless grad_in is null —
  /// the first layer's input gradient is discarded.
  virtual void backward_batch(const FeatureBatch& in,
                              const FeatureBatch& grad_out,
                              FeatureBatch* grad_in) = 0;

  /// Sound interval transfer function: the returned box contains
  /// g_k(x) for every x in the input box.
  [[nodiscard]] virtual IntervalVector propagate(
      const IntervalVector& in) const = 0;

  /// Sound zonotope transfer function.
  [[nodiscard]] virtual Zonotope propagate(const Zonotope& in) const = 0;

  /// Sound batched interval transfer: column i of the result contains
  /// g_k(x) for every x in column i of `in`, and contains the scalar
  /// propagate() box of that column. Layers map this onto one of the
  /// batched box kernels (absint/box_kernels.hpp); Flatten is the
  /// identity.
  [[nodiscard]] virtual BoxBatch propagate_batch(
      const BoxBatch& in) const = 0;

  /// Trainable parameter tensors (empty for stateless layers).
  [[nodiscard]] virtual std::vector<Tensor*> parameters() { return {}; }
  /// Gradient accumulators matching parameters() element-wise.
  [[nodiscard]] virtual std::vector<Tensor*> gradients() { return {}; }

  /// Re-randomises parameters with a scheme appropriate for the layer
  /// (He-normal for ReLU-family weight layers). No-op if parameterless.
  virtual void init_params(Rng& /*rng*/) {}

 protected:
  /// Checks forward_batch's input and resets `out`; returns n.
  std::size_t begin_forward_batch(const FeatureBatch& in,
                                  FeatureBatch& out) const {
    if (in.dimension() != input_size()) {
      throw std::invalid_argument(name() + ": batch input size mismatch");
    }
    out.reset(output_size(), in.size());
    return in.size();
  }
  /// Checks backward_batch's operands and resets *grad_in (if any);
  /// returns n.
  std::size_t begin_backward_batch(const FeatureBatch& in,
                                   const FeatureBatch& grad_out,
                                   FeatureBatch* grad_in) const {
    if (in.dimension() != input_size() ||
        grad_out.dimension() != output_size() ||
        grad_out.size() != in.size()) {
      throw std::invalid_argument(name() + ": batch gradient size mismatch");
    }
    if (grad_in != nullptr) grad_in->reset(input_size(), in.size());
    return in.size();
  }

  /// The input of the last forward_train(); throws std::logic_error if none.
  [[nodiscard]] const Tensor& cached_input() const {
    if (last_in_.empty()) {
      throw std::logic_error(name() + ": backward before forward");
    }
    return last_in_;
  }

 private:
  Tensor last_in_;
};

}  // namespace ranm
