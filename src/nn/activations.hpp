// Elementwise activation layers: ReLU, LeakyReLU, Sigmoid, Tanh.
#pragma once

#include "nn/layer.hpp"

namespace ranm {

/// Common base for shape-preserving elementwise activations. `Self`
/// supplies its scalar rule — a small value type with f(v) and the
/// derivative df(v, y) at y = f(v), returned by Self::rule() — so every
/// pass, per sample or batched, is one inlined kernel per concrete class
/// over the same expression. The kernels copy the rule into a local, so
/// no store can alias its parameters.
template <class Self>
class Activation : public Layer {
 public:
  [[nodiscard]] Shape input_shape() const override { return shape_; }
  [[nodiscard]] Shape output_shape() const override { return shape_; }
  [[nodiscard]] Tensor forward(const Tensor& x) const override;
  /// Recomputes f at the cached input rather than caching the output.
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  void forward_batch(const FeatureBatch& in,
                     FeatureBatch& out) const override;
  void backward_batch(const FeatureBatch& in, const FeatureBatch& grad_out,
                      FeatureBatch* grad_in) override;

 private:
  friend Self;
  explicit Activation(Shape shape);

  [[nodiscard]] auto self_rule() const noexcept {
    return static_cast<const Self&>(*this).rule();
  }

  Shape shape_;
};

/// Rectified linear unit: max(0, x).
class ReLU final : public Activation<ReLU> {
 public:
  explicit ReLU(Shape shape) : Activation(std::move(shape)) {}
  [[nodiscard]] std::string name() const override { return "ReLU"; }
  [[nodiscard]] IntervalVector propagate(
      const IntervalVector& in) const override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  [[nodiscard]] BoxBatch propagate_batch(const BoxBatch& in) const override;

  /// The scalar rule (defined with the kernels in activations.cpp).
  struct Rule {
    [[nodiscard]] static float f(float v) noexcept;
    [[nodiscard]] static float df(float v, float y) noexcept;
  };
  [[nodiscard]] Rule rule() const noexcept { return {}; }
};

/// Leaky rectified linear unit: x > 0 ? x : alpha * x.
class LeakyReLU final : public Activation<LeakyReLU> {
 public:
  LeakyReLU(Shape shape, float alpha = 0.01F);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] float alpha() const noexcept { return alpha_; }
  [[nodiscard]] IntervalVector propagate(
      const IntervalVector& in) const override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  [[nodiscard]] BoxBatch propagate_batch(const BoxBatch& in) const override;

  /// The scalar rule (defined with the kernels in activations.cpp).
  struct Rule {
    float alpha;
    [[nodiscard]] float f(float v) const noexcept;
    [[nodiscard]] float df(float v, float y) const noexcept;
  };
  [[nodiscard]] Rule rule() const noexcept { return {alpha_}; }

 private:
  float alpha_;
};

/// Logistic sigmoid: 1 / (1 + exp(-x)).
class Sigmoid final : public Activation<Sigmoid> {
 public:
  explicit Sigmoid(Shape shape) : Activation(std::move(shape)) {}
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }
  [[nodiscard]] IntervalVector propagate(
      const IntervalVector& in) const override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  [[nodiscard]] BoxBatch propagate_batch(const BoxBatch& in) const override;

  /// The scalar rule (defined with the kernels in activations.cpp).
  struct Rule {
    [[nodiscard]] static float f(float v) noexcept;
    [[nodiscard]] static float df(float v, float y) noexcept;
  };
  [[nodiscard]] Rule rule() const noexcept { return {}; }
};

/// Hyperbolic tangent.
class Tanh final : public Activation<Tanh> {
 public:
  explicit Tanh(Shape shape) : Activation(std::move(shape)) {}
  [[nodiscard]] std::string name() const override { return "Tanh"; }
  [[nodiscard]] IntervalVector propagate(
      const IntervalVector& in) const override;
  [[nodiscard]] Zonotope propagate(const Zonotope& in) const override;
  [[nodiscard]] BoxBatch propagate_batch(const BoxBatch& in) const override;

  /// The scalar rule (defined with the kernels in activations.cpp).
  struct Rule {
    [[nodiscard]] static float f(float v) noexcept;
    [[nodiscard]] static float df(float v, float y) noexcept;
  };
  [[nodiscard]] Rule rule() const noexcept { return {}; }
};

// The kernels are instantiated once, in activations.cpp.
extern template class Activation<ReLU>;
extern template class Activation<LeakyReLU>;
extern template class Activation<Sigmoid>;
extern template class Activation<Tanh>;

}  // namespace ranm
