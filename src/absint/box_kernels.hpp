// Batched box-domain transfer kernels.
//
// The robust monitor construction (paper Definition 1, interval bound
// propagation per Gowal et al. 2018) pushes one perturbation set per
// training sample through the network's abstract transformers. These
// kernels run that propagation over whole minibatches: every layer maps
// its Layer::propagate_batch onto one of the functions below.
//
// Each kernel sweeps contiguous neuron-major BoxBatch rows with the batch
// dimension innermost and the neuron's parameters hoisted into scalars,
// so the compiler auto-vectorizes the affine/ReLU/pool hot loops across
// the batch lane.
//
// Soundness contract (every kernel):
//   * the output box of sample i must contain g(x) for every x in the
//     input box of sample i (per-sample soundness, no cross-talk);
//   * accumulation runs in double and the final narrowing to float rounds
//     outward via round_down/round_up, with the per-sample term order of
//     the scalar transfer functions in Layer::propagate(IntervalVector);
//   * relative to that scalar path (the oracle), bounds must be identical
//     or wider, never tighter — backend_diff_test enforces this.
//
// Every kernel validates shapes and parameters before touching memory and
// throws std::invalid_argument on a mismatch. All kernels are reentrant.
#pragma once

#include <cstddef>
#include <span>

#include "absint/box_batch.hpp"

namespace ranm {

/// Geometry of a 2-D convolution over flat CHW vectors (mirrors
/// Conv2D::Config plus the derived output extent).
struct Conv2DGeometry {
  std::size_t in_channels = 0;
  std::size_t in_height = 0;
  std::size_t in_width = 0;
  std::size_t out_channels = 0;
  std::size_t out_height = 0;
  std::size_t out_width = 0;
  std::size_t kernel_h = 0;
  std::size_t kernel_w = 0;
  std::size_t stride = 1;
  std::size_t padding = 0;

  [[nodiscard]] std::size_t input_size() const noexcept {
    return in_channels * in_height * in_width;
  }
  [[nodiscard]] std::size_t output_size() const noexcept {
    return out_channels * out_height * out_width;
  }
};

/// Geometry of a k x k / stride-s pooling window over flat CHW vectors.
struct Pool2DGeometry {
  std::size_t channels = 0;
  std::size_t in_height = 0;
  std::size_t in_width = 0;
  std::size_t out_height = 0;
  std::size_t out_width = 0;
  std::size_t window = 2;
  std::size_t stride = 2;

  [[nodiscard]] std::size_t input_size() const noexcept {
    return channels * in_height * in_width;
  }
  [[nodiscard]] std::size_t output_size() const noexcept {
    return channels * out_height * out_width;
  }
};

/// Dense affine map y = W x + b with W row-major (rows × cols):
/// centre/radius interval propagation with outward rounding.
[[nodiscard]] BoxBatch box_affine(std::span<const float> w, std::size_t rows,
                                  std::size_t cols,
                                  std::span<const float> bias,
                                  const BoxBatch& in);

/// Convolution over CHW boxes; zero padding contributes [0, 0].
[[nodiscard]] BoxBatch box_conv2d(const Conv2DGeometry& g,
                                  std::span<const float> w,
                                  std::span<const float> bias,
                                  const BoxBatch& in);

/// Max pooling: elementwise interval max over each window.
[[nodiscard]] BoxBatch box_max_pool(const Pool2DGeometry& g,
                                    const BoxBatch& in);

/// Average pooling: exact affine window mean with outward rounding.
[[nodiscard]] BoxBatch box_avg_pool(const Pool2DGeometry& g,
                                    const BoxBatch& in);

/// ReLU: [max(0, lo), max(0, hi)] per element.
[[nodiscard]] BoxBatch box_relu(const BoxBatch& in);

/// LeakyReLU with slope alpha in [0, 1) on the negative side.
[[nodiscard]] BoxBatch box_leaky_relu(float alpha, const BoxBatch& in);

/// Fixed elementwise normalisation: (x - mean_j) * inv_std_j with
/// inv_std_j > 0 (monotone, endpoints map to endpoints — the same
/// scalar expression as the concrete path).
[[nodiscard]] BoxBatch box_normalize(std::span<const float> mean,
                                     std::span<const float> inv_std,
                                     const BoxBatch& in);

/// Monotone non-decreasing elementwise function (sigmoid, tanh):
/// [f(lo), f(hi)] per element.
[[nodiscard]] BoxBatch box_monotone(float (*f)(float), const BoxBatch& in);

}  // namespace ranm
