// Small dense linear-algebra helpers on rank-2 tensors: the products
// Dense's per-sample forward and backward oracle is written in.
#pragma once

#include "tensor/tensor.hpp"

namespace ranm {

/// Matrix-vector product y = A * x; A is (m x k), x is rank-1 of length k.
[[nodiscard]] Tensor matvec(const Tensor& a, const Tensor& x);

/// Transposed matrix-vector product y = A^T * x; A is (m x k), x length m.
[[nodiscard]] Tensor matvec_t(const Tensor& a, const Tensor& x);

/// Outer product M = x y^T; result is (len(x) x len(y)).
[[nodiscard]] Tensor outer(const Tensor& x, const Tensor& y);

}  // namespace ranm
