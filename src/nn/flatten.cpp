#include "nn/flatten.hpp"

#include <algorithm>
#include <stdexcept>

namespace ranm {

Flatten::Flatten(Shape in_shape) : in_shape_(std::move(in_shape)) {
  if (shape_numel(in_shape_) == 0) {
    throw std::invalid_argument("Flatten: empty shape");
  }
}

Tensor Flatten::forward(const Tensor& x) const {
  if (x.numel() != input_size()) {
    throw std::invalid_argument("Flatten: input size mismatch");
  }
  return x.reshaped({x.numel()});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  if (grad_out.numel() != input_size()) {
    throw std::invalid_argument("Flatten: gradient size mismatch");
  }
  return grad_out.reshaped(in_shape_);
}

void Flatten::forward_batch(const FeatureBatch& in, FeatureBatch& out) const {
  (void)begin_forward_batch(in, out);
  std::ranges::copy(in.storage(), out.storage().begin());
}

void Flatten::backward_batch(const FeatureBatch& in,
                             const FeatureBatch& grad_out,
                             FeatureBatch* grad_in) {
  (void)begin_backward_batch(in, grad_out, grad_in);
  if (grad_in != nullptr) {
    std::ranges::copy(grad_out.storage(), grad_in->storage().begin());
  }
}

IntervalVector Flatten::propagate(const IntervalVector& in) const {
  return in;
}

Zonotope Flatten::propagate(const Zonotope& in) const { return in; }

BoxBatch Flatten::propagate_batch(const BoxBatch& in) const {
  return in;  // identity on data; BoxBatch is already flat
}

}  // namespace ranm
