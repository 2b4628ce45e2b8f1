#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/blend.hpp"

namespace ranm {

template <class Self>
Activation<Self>::Activation(Shape shape) : shape_(std::move(shape)) {
  if (shape_numel(shape_) == 0) {
    throw std::invalid_argument("Activation: empty shape");
  }
}

template <class Self>
Tensor Activation<Self>::forward(const Tensor& x) const {
  if (x.numel() != shape_numel(shape_)) {
    throw std::invalid_argument(name() + ": input size mismatch");
  }
  const auto r = self_rule();
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = r.f(y[i]);
  return y;
}

template <class Self>
Tensor Activation<Self>::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input();
  if (grad_out.numel() != x.numel()) {
    throw std::invalid_argument(name() + ": gradient size mismatch");
  }
  const auto r = self_rule();
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i) g[i] *= r.df(x[i], r.f(x[i]));
  return g;
}

template <class Self>
void Activation<Self>::forward_batch(const FeatureBatch& in,
                                     FeatureBatch& out) const {
  (void)begin_forward_batch(in, out);
  const auto r = self_rule();
  const std::span<const float> x = in.storage();
  const std::span<float> y = out.storage();
  for (std::size_t k = 0; k < x.size(); ++k) y[k] = r.f(x[k]);
}

template <class Self>
void Activation<Self>::backward_batch(const FeatureBatch& in,
                                      const FeatureBatch& grad_out,
                                      FeatureBatch* grad_in) {
  (void)begin_backward_batch(in, grad_out, grad_in);
  if (grad_in == nullptr) return;  // no parameters
  const std::span<const float> x = in.storage();
  const std::span<const float> g = grad_out.storage();
  const std::span<float> gi = grad_in->storage();
  const auto r = self_rule();
  for (std::size_t k = 0; k < x.size(); ++k) {
    gi[k] = g[k] * r.df(x[k], r.f(x[k]));
  }
}

template class Activation<ReLU>;
template class Activation<LeakyReLU>;
template class Activation<Sigmoid>;
template class Activation<Tanh>;

// ---- ReLU -----------------------------------------------------------------

float ReLU::Rule::f(float v) noexcept { return v > 0.0F ? v : 0.0F; }
float ReLU::Rule::df(float v, float /*y*/) noexcept {
  return blend(v > 0.0F, 1.0F, 0.0F);
}

IntervalVector ReLU::propagate(const IntervalVector& in) const {
  IntervalVector out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i].relu();
  return out;
}

Zonotope ReLU::propagate(const Zonotope& in) const { return in.relu(); }

BoxBatch ReLU::propagate_batch(const BoxBatch& in) const {
  return box_relu(in);
}

// ---- LeakyReLU ------------------------------------------------------------

LeakyReLU::LeakyReLU(Shape shape, float alpha)
    : Activation(std::move(shape)), alpha_(alpha) {
  if (alpha < 0.0F || alpha >= 1.0F) {
    throw std::invalid_argument("LeakyReLU: alpha must be in [0, 1)");
  }
}

std::string LeakyReLU::name() const {
  return "LeakyReLU(" + std::to_string(alpha_) + ")";
}

float LeakyReLU::Rule::f(float v) const noexcept {
  return blend(v > 0.0F, v, alpha * v);
}
float LeakyReLU::Rule::df(float v, float /*y*/) const noexcept {
  return blend(v > 0.0F, 1.0F, alpha);
}

IntervalVector LeakyReLU::propagate(const IntervalVector& in) const {
  IntervalVector out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = in[i].leaky_relu(alpha_);
  }
  return out;
}

Zonotope LeakyReLU::propagate(const Zonotope& in) const {
  return in.leaky_relu(alpha_);
}

BoxBatch LeakyReLU::propagate_batch(const BoxBatch& in) const {
  return box_leaky_relu(alpha_, in);
}

// ---- Sigmoid ----------------------------------------------------------------

float Sigmoid::Rule::f(float v) noexcept {
  return 1.0F / (1.0F + std::exp(-v));
}
float Sigmoid::Rule::df(float /*v*/, float y) noexcept {
  return y * (1.0F - y);
}

IntervalVector Sigmoid::propagate(const IntervalVector& in) const {
  IntervalVector out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i].sigmoid();
  return out;
}

Zonotope Sigmoid::propagate(const Zonotope& in) const {
  return in.monotone_via_box(
      +[](const Interval& iv) { return iv.sigmoid(); });
}

BoxBatch Sigmoid::propagate_batch(const BoxBatch& in) const {
  // Same scalar expression as Interval::sigmoid's endpoints.
  return box_monotone(&Sigmoid::Rule::f, in);
}

// ---- Tanh -----------------------------------------------------------------

float Tanh::Rule::f(float v) noexcept { return std::tanh(v); }
float Tanh::Rule::df(float /*v*/, float y) noexcept { return 1.0F - y * y; }

IntervalVector Tanh::propagate(const IntervalVector& in) const {
  IntervalVector out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i].tanh_();
  return out;
}

Zonotope Tanh::propagate(const Zonotope& in) const {
  return in.monotone_via_box(+[](const Interval& iv) { return iv.tanh_(); });
}

BoxBatch Tanh::propagate_batch(const BoxBatch& in) const {
  return box_monotone(&Tanh::Rule::f, in);
}

}  // namespace ranm
