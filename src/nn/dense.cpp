#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "nn/blend.hpp"
#include "tensor/linalg.hpp"
#include "util/rng.hpp"

namespace ranm {

Dense::Dense(std::size_t in, std::size_t out)
    : in_(in),
      out_(out),
      w_({out, in}),
      b_({out}),
      gw_({out, in}),
      gb_({out}) {
  if (in == 0 || out == 0) {
    throw std::invalid_argument("Dense: zero dimension");
  }
}

std::string Dense::name() const {
  return "Dense(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

Tensor Dense::forward(const Tensor& x) const {
  if (x.numel() != in_) {
    throw std::invalid_argument(name() + ": input has " +
                                std::to_string(x.numel()) + " elements");
  }
  Tensor y = x.rank() == 1 ? matvec(w_, x) : matvec(w_, x.reshaped({in_}));
  y += b_;
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  if (grad_out.numel() != out_) {
    throw std::invalid_argument(name() + ": gradient size mismatch");
  }
  const Tensor& x = cached_input();
  const Tensor g = grad_out.rank() == 1 ? grad_out : grad_out.reshaped({out_});
  gw_ += x.rank() == 1 ? outer(g, x) : outer(g, x.reshaped({in_}));
  gb_ += g;
  return matvec_t(w_, g);
}

namespace {

/// Rows [r0, r0 + R) x columns [i0, i0 + B) of y = W x + b: each output
/// is matvec's double sum in input order, rounded to float, plus the float
/// bias. The R * B independent accumulators stay in registers and hide
/// the add latency that bounds a single matvec row.
template <std::size_t R, std::size_t B>
void affine_tile(const float* w, const float* b, std::size_t in,
                 const float* x, float* y, std::size_t n, std::size_t r0,
                 std::size_t i0) noexcept {
  double acc[R][B] = {};
  for (std::size_t p = 0; p < in; ++p) {
    const float* xp = x + p * n + i0;
    for (std::size_t q = 0; q < R; ++q) {
      const double wv = w[(r0 + q) * in + p];
      for (std::size_t t = 0; t < B; ++t) acc[q][t] += wv * xp[t];
    }
  }
  for (std::size_t q = 0; q < R; ++q) {
    float* yr = y + (r0 + q) * n + i0;
    for (std::size_t t = 0; t < B; ++t) {
      yr[t] = static_cast<float>(acc[q][t]) + b[r0 + q];
    }
  }
}

/// Every row of columns [i0, i0 + B), in tiles of 8 / B rows.
template <std::size_t B>
void affine_columns(const float* w, const float* b, std::size_t in,
                    std::size_t out, const float* x, float* y,
                    std::size_t n, std::size_t i0) noexcept {
  constexpr std::size_t R = 8 / B;
  std::size_t r = 0;
  for (; r + R <= out; r += R) affine_tile<R, B>(w, b, in, x, y, n, r, i0);
  for (; r < out; ++r) affine_tile<1, B>(w, b, in, x, y, n, r, i0);
}

}  // namespace

void Dense::forward_batch(const FeatureBatch& in, FeatureBatch& out) const {
  const std::size_t n = begin_forward_batch(in, out);
  const float* x = in.storage().data();
  float* y = out.storage().data();
  const float* w = w_.data();
  const float* b = b_.data();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) affine_columns<8>(w, b, in_, out_, x, y, n, i);
  for (; i + 4 <= n; i += 4) affine_columns<4>(w, b, in_, out_, x, y, n, i);
  for (; i < n; ++i) affine_columns<1>(w, b, in_, out_, x, y, n, i);
}

void Dense::backward_batch(const FeatureBatch& in,
                           const FeatureBatch& grad_out,
                           FeatureBatch* grad_in) {
  const std::size_t n = begin_backward_batch(in, grad_out, grad_in);
  const float* x = in.storage().data();
  const float* g = grad_out.storage().data();
  // gw_ += g x^T and gb_ += g one sample at a time, as backward() adds
  // its outer product: a sample-major copy of the input makes each
  // sample's row of the product contiguous.
  std::vector<float> xt(n * in_);
  for (std::size_t p = 0; p < in_; ++p) {
    for (std::size_t i = 0; i < n; ++i) xt[i * in_ + p] = x[p * n + i];
  }
  for (std::size_t r = 0; r < out_; ++r) {
    float* gw = gw_.data() + r * in_;
    for (std::size_t i = 0; i < n; ++i) {
      const float gv = g[r * n + i];
      const float* xi = xt.data() + i * in_;
      for (std::size_t p = 0; p < in_; ++p) gw[p] += gv * xi[p];
      gb_[r] += gv;
    }
  }
  if (grad_in == nullptr) return;
  // grad_in = W^T g per column, vectorized over the batch: each element
  // takes matvec_t's sequence, rows ascending, zero gradients skipped.
  float* gi = grad_in->storage().data();
  for (std::size_t r = 0; r < out_; ++r) {
    const float* go = g + r * n;
    const float* row = w_.data() + r * in_;
    for (std::size_t p = 0; p < in_; ++p) {
      const float wv = row[p];
      float* dst = gi + p * n;
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = blend(go[i] != 0.0F, dst[i] + go[i] * wv, dst[i]);
      }
    }
  }
}

IntervalVector Dense::propagate(const IntervalVector& in) const {
  if (in.size() != in_) {
    throw std::invalid_argument(name() + ": interval input size mismatch");
  }
  IntervalVector out(out_);
  for (std::size_t r = 0; r < out_; ++r) {
    // Centre/radius form avoids 2x min/max per term.
    double c = b_[r], rad = 0.0;
    const float* row = w_.data() + r * in_;
    for (std::size_t j = 0; j < in_; ++j) {
      c += double(row[j]) * in[j].center();
      rad += std::fabs(double(row[j])) * in[j].radius();
    }
    out[r] = Interval::make_unchecked(round_down(c - rad), round_up(c + rad));
  }
  return out;
}

Zonotope Dense::propagate(const Zonotope& in) const {
  if (in.dim() != in_) {
    throw std::invalid_argument(name() + ": zonotope input size mismatch");
  }
  return in.affine(w_.span(), out_, b_.span());
}

BoxBatch Dense::propagate_batch(const BoxBatch& in) const {
  return box_affine(w_.span(), out_, in_, b_.span(), in);
}

void Dense::init_params(Rng& rng) {
  const float stddev = std::sqrt(2.0F / static_cast<float>(in_));
  for (std::size_t i = 0; i < w_.numel(); ++i) {
    w_[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  b_.zero();
}

}  // namespace ranm
