#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/blend.hpp"
#include "util/rng.hpp"

namespace ranm {

Conv2D::Conv2D(const Config& cfg)
    : cfg_(cfg),
      oh_(0),
      ow_(0),
      w_({cfg.out_channels, cfg.in_channels, cfg.kernel_h, cfg.kernel_w}),
      b_({cfg.out_channels}),
      gw_({cfg.out_channels, cfg.in_channels, cfg.kernel_h, cfg.kernel_w}),
      gb_({cfg.out_channels}) {
  if (cfg.in_channels == 0 || cfg.out_channels == 0 || cfg.kernel_h == 0 ||
      cfg.kernel_w == 0 || cfg.stride == 0) {
    throw std::invalid_argument("Conv2D: zero-sized configuration");
  }
  const std::size_t padded_h = cfg.in_height + 2 * cfg.padding;
  const std::size_t padded_w = cfg.in_width + 2 * cfg.padding;
  if (padded_h < cfg.kernel_h || padded_w < cfg.kernel_w) {
    throw std::invalid_argument("Conv2D: kernel larger than padded input");
  }
  oh_ = (padded_h - cfg.kernel_h) / cfg.stride + 1;
  ow_ = (padded_w - cfg.kernel_w) / cfg.stride + 1;
}

std::string Conv2D::name() const {
  return "Conv2D(" + std::to_string(cfg_.in_channels) + "x" +
         std::to_string(cfg_.in_height) + "x" + std::to_string(cfg_.in_width) +
         "->" + std::to_string(cfg_.out_channels) + "x" + std::to_string(oh_) +
         "x" + std::to_string(ow_) + ", k=" + std::to_string(cfg_.kernel_h) +
         "x" + std::to_string(cfg_.kernel_w) +
         ", s=" + std::to_string(cfg_.stride) +
         ", p=" + std::to_string(cfg_.padding) + ")";
}

Shape Conv2D::input_shape() const {
  return {cfg_.in_channels, cfg_.in_height, cfg_.in_width};
}

Shape Conv2D::output_shape() const { return {cfg_.out_channels, oh_, ow_}; }

void Conv2D::linear_apply(const float* in, float* out) const noexcept {
  const auto& c = cfg_;
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(c.padding);
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        double acc = 0.0;
        for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
          for (std::size_t ky = 0; ky < c.kernel_h; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * c.stride + ky) - pad;
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(c.in_height)) {
              continue;
            }
            for (std::size_t kx = 0; kx < c.kernel_w; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * c.stride + kx) - pad;
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(c.in_width)) {
                continue;
              }
              const float wv =
                  w_[((oc * c.in_channels + ic) * c.kernel_h + ky) *
                         c.kernel_w +
                     kx];
              acc += double(wv) *
                     in[(ic * c.in_height + std::size_t(iy)) * c.in_width +
                        std::size_t(ix)];
            }
          }
        }
        out[(oc * oh_ + oy) * ow_ + ox] = static_cast<float>(acc);
      }
    }
  }
}

Tensor Conv2D::forward(const Tensor& x) const {
  if (x.numel() != input_size()) {
    throw std::invalid_argument(name() + ": input size mismatch");
  }
  Tensor y(output_shape());
  linear_apply(x.data(), y.data());
  for (std::size_t oc = 0; oc < cfg_.out_channels; ++oc) {
    float* plane = y.data() + oc * oh_ * ow_;
    for (std::size_t i = 0; i < oh_ * ow_; ++i) plane[i] += b_[oc];
  }
  return y;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  const float* in = cached_input().data();
  if (grad_out.numel() != output_size()) {
    throw std::invalid_argument(name() + ": gradient size mismatch");
  }
  const auto& c = cfg_;
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(c.padding);
  Tensor grad_in(input_shape());
  const float* g = grad_out.data();
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const float gv = g[(oc * oh_ + oy) * ow_ + ox];
        if (gv == 0.0F) continue;
        gb_[oc] += gv;
        for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
          for (std::size_t ky = 0; ky < c.kernel_h; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * c.stride + ky) - pad;
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(c.in_height)) {
              continue;
            }
            for (std::size_t kx = 0; kx < c.kernel_w; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * c.stride + kx) - pad;
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(c.in_width)) {
                continue;
              }
              const std::size_t widx =
                  ((oc * c.in_channels + ic) * c.kernel_h + ky) * c.kernel_w +
                  kx;
              const std::size_t iidx =
                  (ic * c.in_height + std::size_t(iy)) * c.in_width +
                  std::size_t(ix);
              gw_[widx] += gv * in[iidx];
              grad_in[iidx] += gv * w_[widx];
            }
          }
        }
      }
    }
  }
  return grad_in;
}

namespace {

/// Kernel offsets [lo, hi) along one axis whose input coordinate
/// o * stride + k - padding lies inside [0, extent).
struct TapRange {
  std::size_t lo, hi;
};

TapRange tap_range(std::size_t o, std::size_t stride, std::size_t padding,
                   std::size_t kernel, std::size_t extent) noexcept {
  const std::size_t start = o * stride;  // padded coordinate of offset 0
  const std::size_t lo =
      start < padding ? std::min(kernel, padding - start) : 0;
  const std::size_t hi = start >= extent + padding
                             ? 0
                             : std::min(kernel, extent + padding - start);
  return {lo, std::max(lo, hi)};
}

}  // namespace

void Conv2D::forward_batch(const FeatureBatch& in, FeatureBatch& out) const {
  const std::size_t n = begin_forward_batch(in, out);
  if (n == 0) return;
  const auto& c = cfg_;
  const float* x = in.storage().data();
  float* y = out.storage().data();
  // One output image row (oc, oy, ·) across the batch, accumulated tap by
  // tap in linear_apply's (ic, ky, kx) order; out-of-image taps are
  // skipped by clipping each tap's ox range.
  std::vector<double> acc(ow_ * n);
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
        for (std::size_t ky = 0; ky < c.kernel_h; ++ky) {
          const std::size_t iy_pad = oy * c.stride + ky;
          if (iy_pad < c.padding || iy_pad - c.padding >= c.in_height) {
            continue;
          }
          const float* line =
              x + (ic * c.in_height + (iy_pad - c.padding)) * c.in_width * n;
          for (std::size_t kx = 0; kx < c.kernel_w; ++kx) {
            // ox is in range when 0 <= ox * stride + kx - padding < width.
            if (kx >= c.in_width + c.padding) continue;
            const std::size_t lo =
                kx >= c.padding ? 0
                                : (c.padding - kx + c.stride - 1) / c.stride;
            const std::size_t hi = std::min(
                ow_, (c.in_width + c.padding - 1 - kx) / c.stride + 1);
            if (lo >= hi) continue;
            const double wv =
                w_[((oc * c.in_channels + ic) * c.kernel_h + ky) *
                       c.kernel_w +
                   kx];
            if (c.stride == 1) {
              // Adjacent ox read adjacent input columns: one flat run.
              const float* src = line + (lo + kx - c.padding) * n;
              double* dst = acc.data() + lo * n;
              const std::size_t len = (hi - lo) * n;
              for (std::size_t t = 0; t < len; ++t) dst[t] += wv * src[t];
            } else {
              for (std::size_t ox = lo; ox < hi; ++ox) {
                const float* src =
                    line + (ox * c.stride + kx - c.padding) * n;
                double* dst = acc.data() + ox * n;
                for (std::size_t i = 0; i < n; ++i) dst[i] += wv * src[i];
              }
            }
          }
        }
      }
      float* dst = y + (oc * oh_ + oy) * ow_ * n;
      const float bias = b_[oc];
      for (std::size_t t = 0; t < ow_ * n; ++t) {
        dst[t] = static_cast<float>(acc[t]) + bias;
      }
    }
  }
}

void Conv2D::backward_batch(const FeatureBatch& in,
                            const FeatureBatch& grad_out,
                            FeatureBatch* grad_in) {
  const std::size_t n = begin_backward_batch(in, grad_out, grad_in);
  const auto& c = cfg_;
  const float* x = in.storage().data();
  const float* g = grad_out.storage().data();
  const std::size_t positions = oh_ * ow_;
  const std::size_t taps = c.in_channels * c.kernel_h * c.kernel_w;
  // Parameter gradients. Every output channel's weight at tap t takes the
  // same input value, so the accumulators are kept tap-major,
  // gwt[t * lanes + oc], and one position updates all channels at once.
  // Each element still takes backward()'s sequence: samples in order,
  // positions in order, zero gradients skipped (the blend keeps the old
  // value), out-of-image taps never touched. lanes pads the channels to
  // whole vectors; padded lanes see gradient 0 and stay untouched.
  const std::size_t lanes = (c.out_channels + 3) / 4 * 4;
  std::vector<float> gwt(taps * lanes), gbt(lanes);
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    gbt[oc] = gb_[oc];
    for (std::size_t t = 0; t < taps; ++t) {
      gwt[t * lanes + oc] = gw_[oc * taps + t];
    }
  }
  std::vector<float> xs(input_size()), gs(positions * lanes);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < xs.size(); ++j) xs[j] = x[j * n + i];
    for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
      for (std::size_t pos = 0; pos < positions; ++pos) {
        gs[pos * lanes + oc] = g[(oc * positions + pos) * n + i];
      }
    }
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      const TapRange ky_range =
          tap_range(oy, c.stride, c.padding, c.kernel_h, c.in_height);
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const TapRange kx_range =
            tap_range(ox, c.stride, c.padding, c.kernel_w, c.in_width);
        const float* gv = gs.data() + (oy * ow_ + ox) * lanes;
        for (std::size_t oc = 0; oc < lanes; ++oc) {
          gbt[oc] = blend(gv[oc] != 0.0F, gbt[oc] + gv[oc], gbt[oc]);
        }
        for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
          for (std::size_t ky = ky_range.lo; ky < ky_range.hi; ++ky) {
            const std::size_t iy = oy * c.stride + ky - c.padding;
            for (std::size_t kx = kx_range.lo; kx < kx_range.hi; ++kx) {
              const std::size_t ix = ox * c.stride + kx - c.padding;
              const float xv = xs[(ic * c.in_height + iy) * c.in_width + ix];
              float* acc =
                  gwt.data() +
                  ((ic * c.kernel_h + ky) * c.kernel_w + kx) * lanes;
              for (std::size_t oc = 0; oc < lanes; ++oc) {
                acc[oc] = blend(gv[oc] != 0.0F, acc[oc] + gv[oc] * xv,
                                acc[oc]);
              }
            }
          }
        }
      }
    }
  }
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    gb_[oc] = gbt[oc];
    for (std::size_t t = 0; t < taps; ++t) {
      gw_[oc * taps + t] = gwt[t * lanes + oc];
    }
  }
  if (grad_in == nullptr) return;

  // Input gradient, vectorized over the batch: each element takes
  // backward()'s (oc, oy, ox, ic, ky, kx) sequence, zero gradients
  // skipped.
  float* gi = grad_in->storage().data();
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      const TapRange ky_range =
          tap_range(oy, c.stride, c.padding, c.kernel_h, c.in_height);
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const TapRange kx_range =
            tap_range(ox, c.stride, c.padding, c.kernel_w, c.in_width);
        const float* go = g + ((oc * oh_ + oy) * ow_ + ox) * n;
        for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
          for (std::size_t ky = ky_range.lo; ky < ky_range.hi; ++ky) {
            const std::size_t iy = oy * c.stride + ky - c.padding;
            for (std::size_t kx = kx_range.lo; kx < kx_range.hi; ++kx) {
              const std::size_t ix = ox * c.stride + kx - c.padding;
              const float wv =
                  w_[((oc * c.in_channels + ic) * c.kernel_h + ky) *
                         c.kernel_w +
                     kx];
              float* dst =
                  gi + ((ic * c.in_height + iy) * c.in_width + ix) * n;
              for (std::size_t i = 0; i < n; ++i) {
                dst[i] = blend(go[i] != 0.0F, dst[i] + go[i] * wv, dst[i]);
              }
            }
          }
        }
      }
    }
  }
}

IntervalVector Conv2D::propagate(const IntervalVector& in) const {
  if (in.size() != input_size()) {
    throw std::invalid_argument(name() + ": interval input size mismatch");
  }
  // Centre/radius form: centre goes through the affine map (with bias),
  // radius through |W|. Zero padding contributes (0, 0).
  std::vector<float> cen(in.size()), rad(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    cen[i] = in[i].center();
    rad[i] = in[i].radius();
  }
  const auto& c = cfg_;
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(c.padding);
  IntervalVector out(output_size());
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        double acc_c = b_[oc];
        double acc_r = 0.0;
        for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
          for (std::size_t ky = 0; ky < c.kernel_h; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * c.stride + ky) - pad;
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(c.in_height)) {
              continue;
            }
            for (std::size_t kx = 0; kx < c.kernel_w; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * c.stride + kx) - pad;
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(c.in_width)) {
                continue;
              }
              const float wv =
                  w_[((oc * c.in_channels + ic) * c.kernel_h + ky) *
                         c.kernel_w +
                     kx];
              const std::size_t iidx =
                  (ic * c.in_height + std::size_t(iy)) * c.in_width +
                  std::size_t(ix);
              acc_c += double(wv) * cen[iidx];
              acc_r += std::fabs(double(wv)) * rad[iidx];
            }
          }
        }
        out[(oc * oh_ + oy) * ow_ + ox] = Interval::make_unchecked(
            round_down(acc_c - acc_r), round_up(acc_c + acc_r));
      }
    }
  }
  return out;
}

Zonotope Conv2D::propagate(const Zonotope& in) const {
  if (in.dim() != input_size()) {
    throw std::invalid_argument(name() + ": zonotope input size mismatch");
  }
  const std::size_t od = output_size();
  std::vector<float> center(od);
  linear_apply(in.center().data(), center.data());
  for (std::size_t oc = 0; oc < cfg_.out_channels; ++oc) {
    for (std::size_t i = 0; i < oh_ * ow_; ++i) {
      center[oc * oh_ * ow_ + i] += b_[oc];
    }
  }
  const std::size_t ng = in.num_generators();
  std::vector<float> gens(ng * od);
  for (std::size_t i = 0; i < ng; ++i) {
    linear_apply(in.generator(i).data(), gens.data() + i * od);
  }
  return Zonotope(std::move(center), std::move(gens));
}

BoxBatch Conv2D::propagate_batch(const BoxBatch& in) const {
  Conv2DGeometry g;
  g.in_channels = cfg_.in_channels;
  g.in_height = cfg_.in_height;
  g.in_width = cfg_.in_width;
  g.out_channels = cfg_.out_channels;
  g.out_height = oh_;
  g.out_width = ow_;
  g.kernel_h = cfg_.kernel_h;
  g.kernel_w = cfg_.kernel_w;
  g.stride = cfg_.stride;
  g.padding = cfg_.padding;
  return box_conv2d(g, w_.span(), b_.span(), in);
}

void Conv2D::init_params(Rng& rng) {
  const float fan_in = static_cast<float>(cfg_.in_channels * cfg_.kernel_h *
                                          cfg_.kernel_w);
  const float stddev = std::sqrt(2.0F / fan_in);
  for (std::size_t i = 0; i < w_.numel(); ++i) {
    w_[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  b_.zero();
}

}  // namespace ranm
