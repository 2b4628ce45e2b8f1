// Batched box-domain kernels: shape checks, then neuron-major sweeps with
// the batch dimension innermost. Per sample the accumulation order and
// expressions match the scalar Layer::propagate(IntervalVector) transfer
// functions (double accumulators, ascending term order, round_down/round_up
// at the narrowing cast), so bounds never tighten relative to that path:
// on targets without FP contraction they are bit-identical.
#include "absint/box_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace ranm {
namespace {

void check_dim(const BoxBatch& in, std::size_t expected, const char* what) {
  if (in.dimension() != expected) {
    throw std::invalid_argument(std::string(what) + ": input dimension " +
                                std::to_string(in.dimension()) +
                                " does not match expected " +
                                std::to_string(expected));
  }
}

/// The last window along one axis must fit the input extent, or the
/// kernels read past the row: (out - 1) * stride + window <= in.
void check_pool_fits(const Pool2DGeometry& g, const char* what) {
  if ((g.out_height - 1) * g.stride + g.window > g.in_height ||
      (g.out_width - 1) * g.stride + g.window > g.in_width) {
    throw std::invalid_argument(std::string(what) +
                                ": pooling window overruns the input "
                                "extent");
  }
}

/// Stages the centre/radius form of a whole batch once: cen/rad are dim × n
/// row-major, computed with the same float expressions as
/// Interval::center()/radius() so downstream accumulation sees the exact
/// values the scalar path derives per sample.
void stage_center_radius(const BoxBatch& in, std::vector<float>& cen,
                         std::vector<float>& rad) {
  const std::size_t n = in.size();
  cen.resize(in.dimension() * n);
  rad.resize(in.dimension() * n);
  for (std::size_t j = 0; j < in.dimension(); ++j) {
    const float* lo = in.lo_row(j).data();
    const float* hi = in.hi_row(j).data();
    float* cj = cen.data() + j * n;
    float* rj = rad.data() + j * n;
    for (std::size_t i = 0; i < n; ++i) {
      cj[i] = 0.5F * (lo[i] + hi[i]);
      rj[i] = 0.5F * (hi[i] - lo[i]);
    }
  }
}

/// Narrows the double centre/radius accumulators of one output row to the
/// outward-rounded float bounds.
void emit_bounds(const double* acc_c, const double* acc_r, float* lo,
                 float* hi, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    lo[i] = round_down(acc_c[i] - acc_r[i]);
    hi[i] = round_up(acc_c[i] + acc_r[i]);
  }
}

}  // namespace

BoxBatch box_affine(std::span<const float> w, std::size_t rows,
                    std::size_t cols, std::span<const float> bias,
                    const BoxBatch& in) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("box_affine: zero dimension");
  }
  if (w.size() != rows * cols) {
    throw std::invalid_argument("box_affine: weight size " +
                                std::to_string(w.size()) + " != rows*cols");
  }
  if (bias.size() != rows) {
    throw std::invalid_argument("box_affine: bias size mismatch");
  }
  check_dim(in, cols, "box_affine");
  const std::size_t n = in.size();
  BoxBatch out(rows, n);
  if (n == 0) return out;
  std::vector<float> cen, rad;
  stage_center_radius(in, cen, rad);
  std::vector<double> acc_c(n), acc_r(n);
  for (std::size_t r = 0; r < rows; ++r) {
    std::fill(acc_c.begin(), acc_c.end(), double(bias[r]));
    std::fill(acc_r.begin(), acc_r.end(), 0.0);
    const float* wrow = w.data() + r * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      const double wv = double(wrow[j]);
      const double aw = std::fabs(wv);
      const float* cj = cen.data() + j * n;
      const float* rj = rad.data() + j * n;
      for (std::size_t i = 0; i < n; ++i) {
        acc_c[i] += wv * double(cj[i]);
        acc_r[i] += aw * double(rj[i]);
      }
    }
    emit_bounds(acc_c.data(), acc_r.data(), out.lo_row(r).data(),
                out.hi_row(r).data(), n);
  }
  return out;
}

BoxBatch box_conv2d(const Conv2DGeometry& g, std::span<const float> w,
                    std::span<const float> bias, const BoxBatch& in) {
  if (g.input_size() == 0 || g.output_size() == 0 || g.stride == 0) {
    throw std::invalid_argument("box_conv2d: empty geometry");
  }
  if (w.size() != g.out_channels * g.in_channels * g.kernel_h * g.kernel_w) {
    throw std::invalid_argument("box_conv2d: weight size mismatch");
  }
  if (bias.size() != g.out_channels) {
    throw std::invalid_argument("box_conv2d: bias size mismatch");
  }
  check_dim(in, g.input_size(), "box_conv2d");
  const std::size_t n = in.size();
  BoxBatch out(g.output_size(), n);
  if (n == 0) return out;
  std::vector<float> cen, rad;
  stage_center_radius(in, cen, rad);
  std::vector<double> acc_c(n), acc_r(n);
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(g.padding);
  for (std::size_t oc = 0; oc < g.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < g.out_height; ++oy) {
      for (std::size_t ox = 0; ox < g.out_width; ++ox) {
        std::fill(acc_c.begin(), acc_c.end(), double(bias[oc]));
        std::fill(acc_r.begin(), acc_r.end(), 0.0);
        for (std::size_t ic = 0; ic < g.in_channels; ++ic) {
          for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride + ky) - pad;
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_height)) {
              continue;
            }
            for (std::size_t kx = 0; kx < g.kernel_w; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * g.stride + kx) - pad;
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_width)) {
                continue;
              }
              const double wv =
                  double(w[((oc * g.in_channels + ic) * g.kernel_h + ky) *
                               g.kernel_w +
                           kx]);
              const double aw = std::fabs(wv);
              const std::size_t iidx =
                  (ic * g.in_height + std::size_t(iy)) * g.in_width +
                  std::size_t(ix);
              const float* cj = cen.data() + iidx * n;
              const float* rj = rad.data() + iidx * n;
              for (std::size_t i = 0; i < n; ++i) {
                acc_c[i] += wv * double(cj[i]);
                acc_r[i] += aw * double(rj[i]);
              }
            }
          }
        }
        const std::size_t oidx = (oc * g.out_height + oy) * g.out_width + ox;
        emit_bounds(acc_c.data(), acc_r.data(), out.lo_row(oidx).data(),
                    out.hi_row(oidx).data(), n);
      }
    }
  }
  return out;
}

BoxBatch box_max_pool(const Pool2DGeometry& g, const BoxBatch& in) {
  if (g.input_size() == 0 || g.output_size() == 0 || g.window == 0 ||
      g.stride == 0) {
    throw std::invalid_argument("box_max_pool: empty geometry");
  }
  check_pool_fits(g, "box_max_pool");
  check_dim(in, g.input_size(), "box_max_pool");
  const std::size_t n = in.size();
  BoxBatch out(g.output_size(), n);
  for (std::size_t ch = 0; ch < g.channels; ++ch) {
    for (std::size_t oy = 0; oy < g.out_height; ++oy) {
      for (std::size_t ox = 0; ox < g.out_width; ++ox) {
        const std::size_t oidx = (ch * g.out_height + oy) * g.out_width + ox;
        float* lo = out.lo_row(oidx).data();
        float* hi = out.hi_row(oidx).data();
        std::fill(lo, lo + n, -std::numeric_limits<float>::infinity());
        std::fill(hi, hi + n, -std::numeric_limits<float>::infinity());
        for (std::size_t ky = 0; ky < g.window; ++ky) {
          for (std::size_t kx = 0; kx < g.window; ++kx) {
            const std::size_t iy = oy * g.stride + ky;
            const std::size_t ix = ox * g.stride + kx;
            const std::size_t idx = (ch * g.in_height + iy) * g.in_width + ix;
            const float* ilo = in.lo_row(idx).data();
            const float* ihi = in.hi_row(idx).data();
            for (std::size_t i = 0; i < n; ++i) {
              lo[i] = std::max(lo[i], ilo[i]);
              hi[i] = std::max(hi[i], ihi[i]);
            }
          }
        }
      }
    }
  }
  return out;
}

BoxBatch box_avg_pool(const Pool2DGeometry& g, const BoxBatch& in) {
  if (g.input_size() == 0 || g.output_size() == 0 || g.window == 0 ||
      g.stride == 0) {
    throw std::invalid_argument("box_avg_pool: empty geometry");
  }
  check_pool_fits(g, "box_avg_pool");
  check_dim(in, g.input_size(), "box_avg_pool");
  const std::size_t n = in.size();
  const double inv = 1.0 / double(g.window * g.window);
  BoxBatch out(g.output_size(), n);
  if (n == 0) return out;
  std::vector<double> acc_lo(n), acc_hi(n);
  for (std::size_t ch = 0; ch < g.channels; ++ch) {
    for (std::size_t oy = 0; oy < g.out_height; ++oy) {
      for (std::size_t ox = 0; ox < g.out_width; ++ox) {
        std::fill(acc_lo.begin(), acc_lo.end(), 0.0);
        std::fill(acc_hi.begin(), acc_hi.end(), 0.0);
        for (std::size_t ky = 0; ky < g.window; ++ky) {
          for (std::size_t kx = 0; kx < g.window; ++kx) {
            const std::size_t iy = oy * g.stride + ky;
            const std::size_t ix = ox * g.stride + kx;
            const std::size_t idx = (ch * g.in_height + iy) * g.in_width + ix;
            const float* ilo = in.lo_row(idx).data();
            const float* ihi = in.hi_row(idx).data();
            for (std::size_t i = 0; i < n; ++i) {
              acc_lo[i] += ilo[i];
              acc_hi[i] += ihi[i];
            }
          }
        }
        const std::size_t oidx = (ch * g.out_height + oy) * g.out_width + ox;
        float* lo = out.lo_row(oidx).data();
        float* hi = out.hi_row(oidx).data();
        for (std::size_t i = 0; i < n; ++i) {
          lo[i] = round_down(acc_lo[i] * inv);
          hi[i] = round_up(acc_hi[i] * inv);
        }
      }
    }
  }
  return out;
}

BoxBatch box_relu(const BoxBatch& in) {
  BoxBatch out(in.dimension(), in.size());
  const std::span<const float> ilo = in.lower().storage();
  const std::span<const float> ihi = in.upper().storage();
  const std::span<float> olo = out.lower().storage();
  const std::span<float> ohi = out.upper().storage();
  for (std::size_t e = 0; e < ilo.size(); ++e) {
    olo[e] = std::max(0.0F, ilo[e]);
    ohi[e] = std::max(0.0F, ihi[e]);
  }
  return out;
}

BoxBatch box_leaky_relu(float alpha, const BoxBatch& in) {
  if (!(alpha >= 0.0F) || alpha >= 1.0F) {
    throw std::invalid_argument("box_leaky_relu: alpha must be in [0, 1)");
  }
  BoxBatch out(in.dimension(), in.size());
  const std::span<const float> ilo = in.lower().storage();
  const std::span<const float> ihi = in.upper().storage();
  const std::span<float> olo = out.lower().storage();
  const std::span<float> ohi = out.upper().storage();
  for (std::size_t e = 0; e < ilo.size(); ++e) {
    const float a = ilo[e] > 0.0F ? ilo[e] : alpha * ilo[e];
    const float b = ihi[e] > 0.0F ? ihi[e] : alpha * ihi[e];
    olo[e] = std::min(a, b);
    ohi[e] = std::max(a, b);
  }
  return out;
}

BoxBatch box_normalize(std::span<const float> mean,
                       std::span<const float> inv_std, const BoxBatch& in) {
  if (mean.size() != in.dimension() || inv_std.size() != in.dimension()) {
    throw std::invalid_argument("box_normalize: statistics size mismatch");
  }
  // Monotonicity (endpoints map to endpoints) requires inv_std > 0; a
  // non-positive scale would silently invert lo/hi.
  for (const float s : inv_std) {
    if (!(s > 0.0F) || !std::isfinite(s)) {
      throw std::invalid_argument(
          "box_normalize: inv_std must be positive and finite");
    }
  }
  const std::size_t n = in.size();
  BoxBatch out(in.dimension(), in.size());
  for (std::size_t j = 0; j < in.dimension(); ++j) {
    const float m = mean[j];
    const float s = inv_std[j];
    const float* ilo = in.lo_row(j).data();
    const float* ihi = in.hi_row(j).data();
    float* olo = out.lo_row(j).data();
    float* ohi = out.hi_row(j).data();
    for (std::size_t i = 0; i < n; ++i) {
      olo[i] = (ilo[i] - m) * s;
      ohi[i] = (ihi[i] - m) * s;
    }
  }
  return out;
}

BoxBatch box_monotone(float (*f)(float), const BoxBatch& in) {
  if (f == nullptr) {
    throw std::invalid_argument("box_monotone: null function");
  }
  BoxBatch out(in.dimension(), in.size());
  const std::span<const float> ilo = in.lower().storage();
  const std::span<const float> ihi = in.upper().storage();
  const std::span<float> olo = out.lower().storage();
  const std::span<float> ohi = out.upper().storage();
  for (std::size_t e = 0; e < ilo.size(); ++e) {
    olo[e] = f(ilo[e]);
    ohi[e] = f(ihi[e]);
  }
  return out;
}

}  // namespace ranm
