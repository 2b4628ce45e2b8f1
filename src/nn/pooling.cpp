#include "nn/pooling.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "nn/simd.hpp"

namespace ranm {

Pooling::Pooling(const Config& cfg) : cfg_(cfg), oh_(0), ow_(0) {
  if (cfg.channels == 0 || cfg.window == 0 || cfg.stride == 0) {
    throw std::invalid_argument("Pooling: zero-sized configuration");
  }
  if (cfg.in_height < cfg.window || cfg.in_width < cfg.window) {
    throw std::invalid_argument("Pooling: window larger than input");
  }
  oh_ = (cfg.in_height - cfg.window) / cfg.stride + 1;
  ow_ = (cfg.in_width - cfg.window) / cfg.stride + 1;
}

Shape Pooling::input_shape() const {
  return {cfg_.channels, cfg_.in_height, cfg_.in_width};
}

Shape Pooling::output_shape() const { return {cfg_.channels, oh_, ow_}; }

Pool2DGeometry Pooling::geometry() const noexcept {
  Pool2DGeometry g;
  g.channels = cfg_.channels;
  g.in_height = cfg_.in_height;
  g.in_width = cfg_.in_width;
  g.out_height = oh_;
  g.out_width = ow_;
  g.window = cfg_.window;
  g.stride = cfg_.stride;
  return g;
}

// ---- MaxPool2D --------------------------------------------------------------

std::string MaxPool2D::name() const {
  return "MaxPool2D(k=" + std::to_string(cfg_.window) +
         ", s=" + std::to_string(cfg_.stride) + ")";
}

float MaxPool2D::window_max(const float* in, std::size_t step,
                            std::size_t ch, std::size_t oy, std::size_t ox,
                            std::size_t& index) const noexcept {
  float best = -std::numeric_limits<float>::infinity();
  std::size_t best_idx =
      (ch * cfg_.in_height + oy * cfg_.stride) * cfg_.in_width +
      ox * cfg_.stride;
  for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
    for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
      const std::size_t iy = oy * cfg_.stride + ky;
      const std::size_t ix = ox * cfg_.stride + kx;
      const std::size_t idx = (ch * cfg_.in_height + iy) * cfg_.in_width + ix;
      // Select form: branch-free on data-dependent comparisons.
      const float v = in[idx * step];
      const bool better = v > best;
      best = better ? v : best;
      best_idx = better ? idx : best_idx;
    }
  }
  index = best_idx;
  return best;
}

Tensor MaxPool2D::forward(const Tensor& x) const {
  if (x.numel() != input_size()) {
    throw std::invalid_argument(name() + ": input size mismatch");
  }
  const float* in = x.data();
  Tensor y(output_shape());
  for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        std::size_t idx = 0;
        y[(ch * oh_ + oy) * ow_ + ox] = window_max(in, 1, ch, oy, ox, idx);
      }
    }
  }
  return y;
}

Tensor MaxPool2D::backward(const Tensor& grad_out) {
  const float* in = cached_input().data();
  if (grad_out.numel() != output_size()) {
    throw std::invalid_argument(name() + ": gradient size mismatch");
  }
  Tensor grad_in(input_shape());
  for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        std::size_t idx = 0;
        (void)window_max(in, 1, ch, oy, ox, idx);
        grad_in[idx] += grad_out[(ch * oh_ + oy) * ow_ + ox];
      }
    }
  }
  return grad_in;
}

void MaxPool2D::forward_batch(const FeatureBatch& in,
                              FeatureBatch& out) const {
  const std::size_t n = begin_forward_batch(in, out);
  const float* x = in.storage().data();
  float* y = out.storage().data();
  // window_max's strict-> scan in select form: `v > best ? v : best`
  // keeps the first maximum, skips NaN and vectorizes over the batch.
  for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        float* best = y + ((ch * oh_ + oy) * ow_ + ox) * n;
        std::fill(best, best + n, -std::numeric_limits<float>::infinity());
        for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
          for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
            const std::size_t iy = oy * cfg_.stride + ky;
            const std::size_t ix = ox * cfg_.stride + kx;
            const float* v =
                x + ((ch * cfg_.in_height + iy) * cfg_.in_width + ix) * n;
            for (std::size_t i = 0; i < n; ++i) {
              best[i] = v[i] > best[i] ? v[i] : best[i];
            }
          }
        }
      }
    }
  }
}

namespace {

/// Per window of a max pool, the first strict maximum of samples
/// [i0, i0 + 4) as window_max finds it (the first element when nothing
/// beats -inf), then the gradient added there and -0.0F (no change) at
/// the window's other elements, so overlapping windows add in backward()'s
/// (ch, oy, ox) order. `offsets[k]` is the offset of window element k's
/// batch row from the first element's.
void max_pool_backward_lanes(
    const float* x, const float* go, float* gi,
    const std::vector<std::size_t>& offsets) noexcept {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  simd::f32x4 best = {kNegInf, kNegInf, kNegInf, kNegInf};
  simd::u32x4 arg = {};
  for (std::uint32_t k = 0; k < offsets.size(); ++k) {
    const simd::f32x4 v = simd::load4(x + offsets[k]);
    const auto better = std::bit_cast<simd::u32x4>(v > best);
    best = std::bit_cast<simd::f32x4>(
        (std::bit_cast<simd::u32x4>(v) & better) |
        (std::bit_cast<simd::u32x4>(best) & ~better));
    arg = (better & k) | (arg & ~better);
  }
  const auto g = std::bit_cast<simd::u32x4>(simd::load4(go));
  for (std::uint32_t k = 0; k < offsets.size(); ++k) {
    float* dst = gi + offsets[k];
    const auto keep = std::bit_cast<simd::u32x4>(arg == k);
    const simd::u32x4 term = (g & keep) | (~keep & 0x80000000U);
    simd::store4(dst, simd::load4(dst) + std::bit_cast<simd::f32x4>(term));
  }
}

}  // namespace

void MaxPool2D::backward_batch(const FeatureBatch& in,
                               const FeatureBatch& grad_out,
                               FeatureBatch* grad_in) {
  const std::size_t n = begin_backward_batch(in, grad_out, grad_in);
  if (grad_in == nullptr) return;  // no parameters
  const float* x = in.storage().data();
  const float* g = grad_out.storage().data();
  float* gi = grad_in->storage().data();
  std::vector<std::size_t> offsets;
  for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
    for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
      offsets.push_back((ky * cfg_.in_width + kx) * n);
    }
  }
  for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const std::size_t first =
            (ch * cfg_.in_height + oy * cfg_.stride) * cfg_.in_width +
            ox * cfg_.stride;
        const std::size_t out = (ch * oh_ + oy) * ow_ + ox;
        std::size_t i = 0;
        for (; i + 4 <= n; i += 4) {
          max_pool_backward_lanes(x + first * n + i, g + out * n + i,
                                  gi + first * n + i, offsets);
        }
        for (; i < n; ++i) {
          std::size_t idx = 0;
          (void)window_max(x + i, n, ch, oy, ox, idx);
          gi[idx * n + i] += g[out * n + i];
        }
      }
    }
  }
}

IntervalVector MaxPool2D::propagate(const IntervalVector& in) const {
  if (in.size() != input_size()) {
    throw std::invalid_argument(name() + ": interval input size mismatch");
  }
  IntervalVector out(output_size());
  for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        Interval acc = Interval::make_unchecked(
            -std::numeric_limits<float>::infinity(),
            -std::numeric_limits<float>::infinity());
        for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
          for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
            const std::size_t iy = oy * cfg_.stride + ky;
            const std::size_t ix = ox * cfg_.stride + kx;
            acc = acc.max_with(
                in[(ch * cfg_.in_height + iy) * cfg_.in_width + ix]);
          }
        }
        out[(ch * oh_ + oy) * ow_ + ox] = acc;
      }
    }
  }
  return out;
}

Zonotope MaxPool2D::propagate(const Zonotope& in) const {
  // Max is not affine; soundly coarsen to the bounding box and pool that.
  return Zonotope::from_box(propagate(in.to_box()));
}

BoxBatch MaxPool2D::propagate_batch(const BoxBatch& in) const {
  return box_max_pool(geometry(), in);
}

// ---- AvgPool2D --------------------------------------------------------------

std::string AvgPool2D::name() const {
  return "AvgPool2D(k=" + std::to_string(cfg_.window) +
         ", s=" + std::to_string(cfg_.stride) + ")";
}

void AvgPool2D::linear_apply(const float* in, float* out) const noexcept {
  const float inv = 1.0F / static_cast<float>(cfg_.window * cfg_.window);
  for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        double acc = 0.0;
        for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
          for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
            const std::size_t iy = oy * cfg_.stride + ky;
            const std::size_t ix = ox * cfg_.stride + kx;
            acc += in[(ch * cfg_.in_height + iy) * cfg_.in_width + ix];
          }
        }
        out[(ch * oh_ + oy) * ow_ + ox] = static_cast<float>(acc) * inv;
      }
    }
  }
}

Tensor AvgPool2D::forward(const Tensor& x) const {
  if (x.numel() != input_size()) {
    throw std::invalid_argument(name() + ": input size mismatch");
  }
  Tensor y(output_shape());
  linear_apply(x.data(), y.data());
  return y;
}

Tensor AvgPool2D::backward(const Tensor& grad_out) {
  if (grad_out.numel() != output_size()) {
    throw std::invalid_argument(name() + ": gradient size mismatch");
  }
  const float inv = 1.0F / static_cast<float>(cfg_.window * cfg_.window);
  Tensor grad_in(input_shape());
  for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const float g = grad_out[(ch * oh_ + oy) * ow_ + ox] * inv;
        for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
          for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
            const std::size_t iy = oy * cfg_.stride + ky;
            const std::size_t ix = ox * cfg_.stride + kx;
            grad_in[(ch * cfg_.in_height + iy) * cfg_.in_width + ix] += g;
          }
        }
      }
    }
  }
  return grad_in;
}

void AvgPool2D::forward_batch(const FeatureBatch& in,
                              FeatureBatch& out) const {
  const std::size_t n = begin_forward_batch(in, out);
  const float* x = in.storage().data();
  float* y = out.storage().data();
  const float inv = 1.0F / static_cast<float>(cfg_.window * cfg_.window);
  std::vector<double> acc(n);
  for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
          for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
            const std::size_t iy = oy * cfg_.stride + ky;
            const std::size_t ix = ox * cfg_.stride + kx;
            const float* v =
                x + ((ch * cfg_.in_height + iy) * cfg_.in_width + ix) * n;
            for (std::size_t i = 0; i < n; ++i) acc[i] += v[i];
          }
        }
        float* dst = y + ((ch * oh_ + oy) * ow_ + ox) * n;
        for (std::size_t i = 0; i < n; ++i) {
          dst[i] = static_cast<float>(acc[i]) * inv;
        }
      }
    }
  }
}

void AvgPool2D::backward_batch(const FeatureBatch& in,
                               const FeatureBatch& grad_out,
                               FeatureBatch* grad_in) {
  const std::size_t n = begin_backward_batch(in, grad_out, grad_in);
  if (grad_in == nullptr) return;  // no parameters
  const float* g = grad_out.storage().data();
  float* gi = grad_in->storage().data();
  const float inv = 1.0F / static_cast<float>(cfg_.window * cfg_.window);
  for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const float* go = g + ((ch * oh_ + oy) * ow_ + ox) * n;
        for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
          for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
            const std::size_t iy = oy * cfg_.stride + ky;
            const std::size_t ix = ox * cfg_.stride + kx;
            float* dst =
                gi + ((ch * cfg_.in_height + iy) * cfg_.in_width + ix) * n;
            for (std::size_t i = 0; i < n; ++i) dst[i] += go[i] * inv;
          }
        }
      }
    }
  }
}

IntervalVector AvgPool2D::propagate(const IntervalVector& in) const {
  if (in.size() != input_size()) {
    throw std::invalid_argument(name() + ": interval input size mismatch");
  }
  const double inv = 1.0 / double(cfg_.window * cfg_.window);
  IntervalVector out(output_size());
  for (std::size_t ch = 0; ch < cfg_.channels; ++ch) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        double lo = 0.0, hi = 0.0;
        for (std::size_t ky = 0; ky < cfg_.window; ++ky) {
          for (std::size_t kx = 0; kx < cfg_.window; ++kx) {
            const std::size_t iy = oy * cfg_.stride + ky;
            const std::size_t ix = ox * cfg_.stride + kx;
            const Interval& iv =
                in[(ch * cfg_.in_height + iy) * cfg_.in_width + ix];
            lo += iv.lo;
            hi += iv.hi;
          }
        }
        out[(ch * oh_ + oy) * ow_ + ox] = Interval::make_unchecked(
            round_down(lo * inv), round_up(hi * inv));
      }
    }
  }
  return out;
}

BoxBatch AvgPool2D::propagate_batch(const BoxBatch& in) const {
  return box_avg_pool(geometry(), in);
}

Zonotope AvgPool2D::propagate(const Zonotope& in) const {
  if (in.dim() != input_size()) {
    throw std::invalid_argument(name() + ": zonotope input size mismatch");
  }
  const std::size_t od = output_size();
  std::vector<float> center(od);
  linear_apply(in.center().data(), center.data());
  const std::size_t ng = in.num_generators();
  std::vector<float> gens(ng * od);
  for (std::size_t i = 0; i < ng; ++i) {
    linear_apply(in.generator(i).data(), gens.data() + i * od);
  }
  return Zonotope(std::move(center), std::move(gens));
}

}  // namespace ranm
