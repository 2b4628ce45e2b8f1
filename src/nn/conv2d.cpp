#include "nn/conv2d.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "nn/blend.hpp"
#include "nn/simd.hpp"
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

/// Output channels per register tile of forward_batch.
constexpr std::size_t kConvBlock = 6;

/// Output position (oy, ox) of channels [oc0, oc0 + OCB) for samples
/// [i0, i0 + B): each sum runs over linear_apply's (ic, ky, kx) taps in
/// order, out-of-image taps skipped, in double and held in registers (two
/// samples per vector when B is even). Every input is widened once and
/// used by all OCB channels; `wd` holds the weights as double pairs,
/// tap-major.
template <std::size_t OCB, std::size_t B>
void conv_tile(const Conv2D::Config& c, std::size_t oh, std::size_t ow,
               const simd::f64x2* wd, const float* b, const float* x,
               float* y, std::size_t n, std::size_t oc0, std::size_t oy,
               std::size_t ox, std::size_t i0, TapRange ky_range,
               TapRange kx_range) noexcept {
  constexpr bool kPairs = B % 2 == 0;
  static_assert(B == 1 || B % 4 == 0, "pairs are stored four at a time");
  constexpr std::size_t V = kPairs ? B / 2 : B;
  using Acc = std::conditional_t<kPairs, simd::f64x2, double>;
  Acc acc[OCB][V] = {};
  for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
    for (std::size_t ky = ky_range.lo; ky < ky_range.hi; ++ky) {
      const std::size_t iy = oy * c.stride + ky - c.padding;
      const float* line = x + (ic * c.in_height + iy) * c.in_width * n + i0;
      const std::size_t row = (ic * c.kernel_h + ky) * c.kernel_w;
      for (std::size_t kx = kx_range.lo; kx < kx_range.hi; ++kx) {
        const float* src = line + (ox * c.stride + kx - c.padding) * n;
        const simd::f64x2* wt = wd + (row + kx) * c.out_channels + oc0;
        Acc xv[V];
        for (std::size_t v = 0; v < V; ++v) {
          if constexpr (kPairs) {
            xv[v] = simd::load2_widened(src + 2 * v);
          } else {
            xv[v] = src[v];
          }
        }
        for (std::size_t o = 0; o < OCB; ++o) {
          for (std::size_t v = 0; v < V; ++v) {
            if constexpr (kPairs) {
              acc[o][v] += wt[o] * xv[v];
            } else {
              acc[o][v] += wt[o][0] * xv[v];
            }
          }
        }
      }
    }
  }
  for (std::size_t o = 0; o < OCB; ++o) {
    float* dst = y + (((oc0 + o) * oh + oy) * ow + ox) * n + i0;
    if constexpr (kPairs) {
      for (std::size_t v = 0; v < V; v += 2) {
        simd::store4_narrowed(dst + 2 * v, acc[o][v], acc[o][v + 1],
                              b[oc0 + o]);
      }
    } else {
      for (std::size_t v = 0; v < V; ++v) {
        dst[v] = static_cast<float>(acc[o][v]) + b[oc0 + o];
      }
    }
  }
}

/// One nonzero output gradient of one sample: its position and value.
struct GradEntry {
  std::uint32_t pos;
  float g;
};

/// For each of S samples, writes its nonzero gradients over `positions`
/// (v[pos * n + i] for sample i) with their positions, in order, to
/// out + i * positions, and their count to counts[i]. Branch-free: every
/// value is stored, and a sample's slot advances past nonzero values only.
/// -0.0F counts as zero and NaN as nonzero, as `gv == 0.0F` decides in
/// backward().
template <std::size_t S>
void compact_nonzero(const float* v, std::size_t n, std::size_t positions,
                     GradEntry* out, std::uint32_t* counts) noexcept {
  std::uint32_t k[S] = {};
  for (std::size_t pos = 0; pos < positions; ++pos) {
    for (std::size_t i = 0; i < S; ++i) {
      const float gv = v[pos * n + i];
      out[i * positions + k[i]] = {static_cast<std::uint32_t>(pos), gv};
      k[i] += (std::bit_cast<std::uint32_t>(gv) << 1) != 0;
    }
  }
  for (std::size_t i = 0; i < S; ++i) counts[i] = k[i];
}

/// Lanes of one weight-gradient group: four consecutive kx taps of one
/// (ic, ky) kernel row.
constexpr std::size_t kLanes = 4;

/// Adds K groups of one output channel's weight gradient, and its bias
/// gradient, over every sample's nonzero entries in (sample, position)
/// order. `window[pos]` is the offset of the window at pos in a padded
/// image and `group[q]` group q's offset inside the window; lane l of
/// `masks + (pos * K + q) * kLanes` clears the lanes whose tap lies
/// outside the image (or past the kernel) at pos. Kept out of line so
/// that its loop has the registers to itself.
template <std::size_t K>
[[gnu::noinline]] void accumulate_taps(
    const GradEntry* entries, const std::uint32_t* counts, std::size_t n,
    std::size_t positions, const float* xpad, std::size_t image,
    const std::size_t* window, const std::size_t* group,
    const std::uint32_t* masks, float* acc, float& bias) noexcept {
  float a[K][kLanes];
  std::size_t off[K];
  for (std::size_t q = 0; q < K; ++q) {
    off[q] = group[q];
    for (std::size_t l = 0; l < kLanes; ++l) a[q][l] = acc[q * kLanes + l];
  }
  float bsum = bias;
  for (std::size_t i = 0; i < n; ++i) {
    const GradEntry* e = entries + i * positions;
    const float* xi = xpad + i * image;
    for (std::size_t k = 0; k < counts[i]; ++k) {
      const float gv = e[k].g;
      const float* win = xi + window[e[k].pos];
      const std::uint32_t* m = masks + e[k].pos * K * kLanes;
      bsum += gv;
      for (std::size_t q = 0; q < K; ++q) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          a[q][l] += masked_term(m[q * kLanes + l], gv * win[off[q] + l]);
        }
      }
    }
  }
  bias = bsum;
  for (std::size_t q = 0; q < K; ++q) {
    for (std::size_t l = 0; l < kLanes; ++l) acc[q * kLanes + l] = a[q][l];
  }
}

}  // namespace

void Conv2D::forward_batch(const FeatureBatch& in, FeatureBatch& out) const {
  const std::size_t n = begin_forward_batch(in, out);
  const auto& c = cfg_;
  const float* x = in.storage().data();
  float* y = out.storage().data();
  // Each weight as a double pair, tap-major: wd[t * out_channels + oc].
  const std::size_t taps = c.in_channels * c.kernel_h * c.kernel_w;
  std::vector<simd::f64x2> wd(taps * c.out_channels);
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    for (std::size_t t = 0; t < taps; ++t) {
      const double wv = w_[oc * taps + t];
      wd[t * c.out_channels + oc] = simd::f64x2{wv, wv};
    }
  }
  const auto columns = [&](auto tile, auto single, std::size_t i0) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      const TapRange ky_range =
          tap_range(oy, c.stride, c.padding, c.kernel_h, c.in_height);
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const TapRange kx_range =
            tap_range(ox, c.stride, c.padding, c.kernel_w, c.in_width);
        std::size_t oc = 0;
        for (; oc + kConvBlock <= c.out_channels; oc += kConvBlock) {
          tile(c, oh_, ow_, wd.data(), b_.data(), x, y, n, oc, oy, ox, i0,
               ky_range, kx_range);
        }
        for (; oc < c.out_channels; ++oc) {
          single(c, oh_, ow_, wd.data(), b_.data(), x, y, n, oc, oy, ox, i0,
                 ky_range, kx_range);
        }
      }
    }
  };
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    columns(conv_tile<kConvBlock, 4>, conv_tile<1, 4>, i);
  }
  for (; i < n; ++i) columns(conv_tile<kConvBlock, 1>, conv_tile<1, 1>, i);
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

  // Parameter gradients, in groups of kLanes kx taps: group (ic, ky,
  // chunk) covers taps kx = chunk * kLanes + l of kernel row (ic, ky).
  // Each sample's input is zero-padded so that a window's kernel row is
  // one contiguous run of the padded image.
  const std::size_t chunks = (c.kernel_w + kLanes - 1) / kLanes;
  const std::size_t groups = c.in_channels * c.kernel_h * chunks;
  const std::size_t ph = c.in_height + 2 * c.padding;
  const std::size_t pw =
      c.in_width + 2 * c.padding + chunks * kLanes - c.kernel_w;
  const std::size_t image = c.in_channels * ph * pw;
  std::vector<float> xpad(n * image);
  for (std::size_t ic = 0; ic < c.in_channels; ++ic) {
    for (std::size_t iy = 0; iy < c.in_height; ++iy) {
      for (std::size_t ix = 0; ix < c.in_width; ++ix) {
        const float* src = x + ((ic * c.in_height + iy) * c.in_width + ix) * n;
        float* dst =
            xpad.data() + (ic * ph + iy + c.padding) * pw + ix + c.padding;
        for (std::size_t i = 0; i < n; ++i) dst[i * image] = src[i];
      }
    }
  }
  std::vector<std::size_t> group(groups), window(positions);
  for (std::size_t gi = 0; gi < groups; ++gi) {
    const std::size_t row = gi / chunks;  // ic * kernel_h + ky
    group[gi] = (row / c.kernel_h * ph + row % c.kernel_h) * pw +
                gi % chunks * kLanes;
  }
  // A pass adds up to kLanes groups g0.. in registers. Its masks start at
  // masks[positions * g0 * kLanes]: for each position, k groups of lanes,
  // set where the lane's tap (ky, kx) lies inside the image.
  std::vector<std::uint32_t> masks(positions * groups * kLanes);
  for (std::size_t oy = 0; oy < oh_; ++oy) {
    const TapRange ky_range =
        tap_range(oy, c.stride, c.padding, c.kernel_h, c.in_height);
    for (std::size_t ox = 0; ox < ow_; ++ox) {
      const TapRange kx_range =
          tap_range(ox, c.stride, c.padding, c.kernel_w, c.in_width);
      const std::size_t pos = oy * ow_ + ox;
      window[pos] = oy * c.stride * pw + ox * c.stride;
      for (std::size_t gi = 0; gi < groups; ++gi) {
        const std::size_t g0 = gi / kLanes * kLanes;
        const std::size_t k = std::min(kLanes, groups - g0);
        const std::size_t ky = gi / chunks % c.kernel_h;
        const std::size_t kx0 = gi % chunks * kLanes;
        std::uint32_t* m = masks.data() + positions * g0 * kLanes +
                           (pos * k + gi - g0) * kLanes;
        for (std::size_t l = 0; l < kLanes; ++l) {
          m[l] = lane_mask(ky >= ky_range.lo && ky < ky_range.hi &&
                           kx0 + l >= kx_range.lo && kx0 + l < kx_range.hi);
        }
      }
    }
  }
  // backward() skips zero output gradients, and behind a max pool three
  // in four are zero, so each (channel, sample) first compacts its
  // nonzero (position, gradient) pairs, branch-free. Then every lane
  // takes backward()'s sequence: samples in order, nonzero gradients in
  // position order, out-of-image taps skipped (a -0.0F term).
  std::vector<GradEntry> entries(n * positions);
  std::vector<std::uint32_t> counts(n);
  std::vector<float> acc(groups * kLanes);
  for (std::size_t oc = 0; oc < c.out_channels; ++oc) {
    const float* go = g + oc * positions * n;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      compact_nonzero<4>(go + i, n, positions,
                         entries.data() + i * positions, counts.data() + i);
    }
    for (; i < n; ++i) {
      compact_nonzero<1>(go + i, n, positions,
                         entries.data() + i * positions, counts.data() + i);
    }
    float* gw = gw_.data() + oc * taps;
    std::fill(acc.begin(), acc.end(), 0.0F);
    for (std::size_t gi = 0; gi < groups; ++gi) {
      const std::size_t row = gi / chunks, kx0 = gi % chunks * kLanes;
      for (std::size_t l = 0; l < kLanes && kx0 + l < c.kernel_w; ++l) {
        acc[gi * kLanes + l] = gw[row * c.kernel_w + kx0 + l];
      }
    }
    float bias = gb_[oc];
    for (std::size_t g0 = 0; g0 < groups; g0 += kLanes) {
      // Up to four groups per pass keep their sums in registers; only the
      // first pass's bias sum is kept.
      float pass_bias = bias;
      const auto pass = [&](auto kernel) {
        kernel(entries.data(), counts.data(), n, positions, xpad.data(),
               image, window.data(), group.data() + g0,
               masks.data() + positions * g0 * kLanes,
               acc.data() + g0 * kLanes, pass_bias);
      };
      switch (std::min(kLanes, groups - g0)) {
        case 1:
          pass(accumulate_taps<1>);
          break;
        case 2:
          pass(accumulate_taps<2>);
          break;
        case 3:
          pass(accumulate_taps<3>);
          break;
        default:
          pass(accumulate_taps<4>);
          break;
      }
      if (g0 == 0) gb_[oc] = pass_bias;
    }
    for (std::size_t gi = 0; gi < groups; ++gi) {
      const std::size_t row = gi / chunks, kx0 = gi % chunks * kLanes;
      for (std::size_t l = 0; l < kLanes && kx0 + l < c.kernel_w; ++l) {
        gw[row * c.kernel_w + kx0 + l] = acc[gi * kLanes + l];
      }
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
