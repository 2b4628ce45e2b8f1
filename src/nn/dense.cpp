#include "nn/dense.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "nn/blend.hpp"
#include "nn/simd.hpp"
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
/// bias. The R * B independent accumulators (two columns per vector when
/// B is even) stay in registers and hide the add latency that bounds a
/// single matvec row.
template <std::size_t R, std::size_t B>
void affine_tile(const float* w, const float* b, std::size_t in,
                 const float* x, float* y, std::size_t n, std::size_t r0,
                 std::size_t i0) noexcept {
  constexpr bool kPairs = B % 2 == 0;
  static_assert(B == 1 || B % 4 == 0, "pairs are stored four at a time");
  constexpr std::size_t V = kPairs ? B / 2 : B;
  using Acc = std::conditional_t<kPairs, simd::f64x2, double>;
  Acc acc[R][V] = {};
  for (std::size_t p = 0; p < in; ++p) {
    const float* xp = x + p * n + i0;
    for (std::size_t q = 0; q < R; ++q) {
      const double wv = w[(r0 + q) * in + p];
      for (std::size_t v = 0; v < V; ++v) {
        if constexpr (kPairs) {
          acc[q][v] += wv * simd::load2_widened(xp + 2 * v);
        } else {
          acc[q][v] += wv * xp[v];
        }
      }
    }
  }
  for (std::size_t q = 0; q < R; ++q) {
    float* yr = y + (r0 + q) * n + i0;
    if constexpr (kPairs) {
      for (std::size_t v = 0; v < V; v += 2) {
        simd::store4_narrowed(yr + 2 * v, acc[q][v], acc[q][v + 1],
                              b[r0 + q]);
      }
    } else {
      for (std::size_t v = 0; v < V; ++v) {
        yr[v] = static_cast<float>(acc[q][v]) + b[r0 + q];
      }
    }
  }
}

/// Every row of columns [i0, i0 + B), in tiles of 24 / B rows (twelve
/// two-lane accumulators), or of 8 rows for a single column.
template <std::size_t B>
void affine_columns(const float* w, const float* b, std::size_t in,
                    std::size_t out, const float* x, float* y,
                    std::size_t n, std::size_t i0) noexcept {
  constexpr std::size_t R = B == 1 ? 8 : 24 / B;
  std::size_t r = 0;
  for (; r + R <= out; r += R) affine_tile<R, B>(w, b, in, x, y, n, r, i0);
  for (; r < out; ++r) affine_tile<1, B>(w, b, in, x, y, n, r, i0);
}

/// Columns [p0, p0 + P) of one weight-gradient row gw += g_i * x_i over
/// samples i in order, the P sums held in registers. `xt` is the
/// sample-major input.
template <std::size_t P>
void outer_block(const float* g, const float* xt, std::size_t in,
                 std::size_t n, float* gw, std::size_t p0) noexcept {
  float acc[P];
  for (std::size_t t = 0; t < P; ++t) acc[t] = gw[p0 + t];
  for (std::size_t i = 0; i < n; ++i) {
    const float gv = g[i];
    const float* xi = xt + i * in + p0;
    for (std::size_t t = 0; t < P; ++t) acc[t] += gv * xi[t];
  }
  for (std::size_t t = 0; t < P; ++t) gw[p0 + t] = acc[t];
}

/// Inputs [p0, p0 + P) of sample i's grad_in = W^T g: each element takes
/// matvec_t's sequence from +0, rows ascending, the P sums held in
/// registers. kSkipZeros skips zero gradients with a -0.0F term; a
/// sample without any (the usual case) needs no mask.
template <std::size_t P, bool kSkipZeros>
void input_grad_block(const float* w, std::size_t in, std::size_t out,
                      const float* g, float* gi, std::size_t n,
                      std::size_t i, std::size_t p0) noexcept {
  float acc[P] = {};
  for (std::size_t r = 0; r < out; ++r) {
    const float gv = g[r * n + i];
    const std::uint32_t keep = lane_mask(gv != 0.0F);
    const float* wr = w + r * in + p0;
    for (std::size_t t = 0; t < P; ++t) {
      if constexpr (kSkipZeros) {
        acc[t] += masked_term(keep, gv * wr[t]);
      } else {
        acc[t] += gv * wr[t];
      }
    }
  }
  for (std::size_t t = 0; t < P; ++t) gi[(p0 + t) * n + i] = acc[t];
}

/// Sample i's whole input gradient, in blocks of 32 inputs.
template <bool kSkipZeros>
void input_grad_sample(const float* w, std::size_t in, std::size_t out,
                       const float* g, float* gi, std::size_t n,
                       std::size_t i) noexcept {
  std::size_t p = 0;
  for (; p + 32 <= in; p += 32) {
    input_grad_block<32, kSkipZeros>(w, in, out, g, gi, n, i, p);
  }
  for (; p < in; ++p) {
    input_grad_block<1, kSkipZeros>(w, in, out, g, gi, n, i, p);
  }
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
    const float* gr = g + r * n;
    float* gw = gw_.data() + r * in_;
    std::size_t p = 0;
    for (; p + 32 <= in_; p += 32) {
      outer_block<32>(gr, xt.data(), in_, n, gw, p);
    }
    for (; p < in_; ++p) outer_block<1>(gr, xt.data(), in_, n, gw, p);
    for (std::size_t i = 0; i < n; ++i) gb_[r] += gr[i];
  }
  if (grad_in == nullptr) return;
  float* gi = grad_in->storage().data();
  for (std::size_t i = 0; i < n; ++i) {
    bool any_zero = false;
    for (std::size_t r = 0; r < out_; ++r) any_zero |= g[r * n + i] == 0.0F;
    if (any_zero) {
      input_grad_sample<true>(w_.data(), in_, out_, g, gi, n, i);
    } else {
      input_grad_sample<false>(w_.data(), in_, out_, g, gi, n, i);
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
