// Engine-vs-oracle differential suite: the batched box kernels
// (Network::propagate_box_batch) are compared against the per-sample
// scalar Layer::propagate(IntervalVector) path over randomized layer
// chains (Dense / Conv2D / pooling / normalization / activations), random
// shapes, sub-range slices, and batch sizes including 0, 1, and
// non-multiples of any SIMD lane width. The contract: per element, the
// batched bounds contain the scalar bounds — identical or wider, never
// tighter. Centres mix uniform draws with boundary values (±0,
// subnormals, small integers), so the outward rounding at the zero and
// subnormal edges runs through every kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "absint/box_kernels.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "nn/normalization.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

/// Centres on the edges of float arithmetic: signed zeros, subnormals
/// (including the smallest one), the smallest normal, and exactly
/// representable integers.
constexpr float kBoundaryCenters[] = {
    0.0F, -0.0F, 1e-40F, -1e-40F,
    std::numeric_limits<float>::denorm_min(),
    -std::numeric_limits<float>::denorm_min(),
    std::numeric_limits<float>::min(),
    -std::numeric_limits<float>::min(),
    1.0F, -1.0F, 2.0F, -2.0F};

/// Uniform centres in [lo, hi], with about one entry in four replaced by
/// a boundary value.
FeatureBatch random_centers(std::size_t dim, std::size_t n, Rng& rng,
                            float lo = -2.0F, float hi = 2.0F) {
  constexpr std::size_t kNumBoundary = std::size(kBoundaryCenters);
  FeatureBatch batch(dim, n);
  for (std::size_t j = 0; j < dim; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      batch.at(j, i) = rng.uniform_f(lo, hi);
      if (rng.chance(0.25)) {
        const auto pick =
            std::size_t(rng.uniform_f(0.0F, float(kNumBoundary)));
        batch.at(j, i) = kBoundaryCenters[std::min(pick, kNumBoundary - 1)];
      }
    }
  }
  return batch;
}

/// Mixed conv chain: Normalization -> Conv2D(padded) -> LeakyReLU ->
/// MaxPool -> Flatten -> Dense -> Sigmoid.
Network make_conv_chain(Rng& rng) {
  const Shape img{2, 9, 9};
  std::vector<float> mean(shape_numel(img)), inv_std(shape_numel(img));
  for (std::size_t i = 0; i < mean.size(); ++i) {
    mean[i] = rng.uniform_f(-0.5F, 0.5F);
    inv_std[i] = rng.uniform_f(0.5F, 2.0F);
  }
  Network net;
  net.emplace<Normalization>(img, std::move(mean), std::move(inv_std));
  net.emplace<Conv2D>(Conv2D::Config{2, 9, 9, 4, 3, 3, 1, 1});
  net.emplace<LeakyReLU>(Shape{4, 9, 9}, 0.05F);
  net.emplace<MaxPool2D>(Pooling::Config{4, 9, 9, 3, 2});
  net.emplace<Flatten>(Shape{4, 4, 4});
  net.emplace<Dense>(64, 10);
  net.emplace<Sigmoid>(Shape{10});
  net.init_params(rng);
  return net;
}

/// Strided conv + ReLU + AvgPool + Flatten + Dense + Tanh.
Network make_avgpool_chain(Rng& rng) {
  Network net;
  net.emplace<Conv2D>(Conv2D::Config{1, 8, 8, 3, 3, 3, 2, 0});
  net.emplace<ReLU>(Shape{3, 3, 3});
  net.emplace<AvgPool2D>(Pooling::Config{3, 3, 3, 2, 1});
  net.emplace<Flatten>(Shape{3, 2, 2});
  net.emplace<Dense>(12, 5);
  net.emplace<Tanh>(Shape{5});
  net.init_params(rng);
  return net;
}

/// Per-element contract for layers l..k: the batched bounds contain the
/// scalar propagate_box bounds of every column, and stay numerically
/// indistinguishable from them (same arithmetic, only the loop nest
/// differs).
void expect_contains_scalar(const Network& net, std::size_t l,
                            std::size_t k, const BoxBatch& in,
                            const BoxBatch& batched) {
  ASSERT_EQ(batched.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const IntervalVector scalar = net.propagate_box(l, k, in.box(i));
    ASSERT_EQ(scalar.size(), batched.dimension());
    for (std::size_t j = 0; j < scalar.size(); ++j) {
      EXPECT_LE(batched.lo(j, i), scalar[j].lo)
          << "lower bound tightened inward at neuron " << j << ", sample "
          << i;
      EXPECT_GE(batched.hi(j, i), scalar[j].hi)
          << "upper bound tightened inward at neuron " << j << ", sample "
          << i;
      EXPECT_LE(batched.lo(j, i), batched.hi(j, i)) << "inverted bound";
      const float slack =
          1e-4F * (1.0F + std::fabs(scalar[j].lo) + std::fabs(scalar[j].hi));
      EXPECT_NEAR(batched.lo(j, i), scalar[j].lo, slack);
      EXPECT_NEAR(batched.hi(j, i), scalar[j].hi, slack);
    }
  }
}

/// Runs the whole chain (layers 1..k) and the slice starting at its middle
/// layer over every batch size and delta.
void run_differential(const Network& net, Rng& rng) {
  const std::size_t k = net.num_layers();
  const std::size_t mid = 1 + k / 2;
  // Batch sizes around every boundary: empty, single sample, odd sizes
  // that are not a multiple of any SIMD lane width, and one full chunk.
  const std::size_t batch_sizes[] = {0, 1, 3, 7, 17, 33};
  const float deltas[] = {0.0F, 0.02F, 0.4F};
  for (const std::size_t l : {std::size_t(1), mid}) {
    const std::size_t in_dim = net.layer(l).input_size();
    for (const std::size_t n : batch_sizes) {
      for (const float delta : deltas) {
        const BoxBatch in =
            BoxBatch::linf_ball(random_centers(in_dim, n, rng), delta);
        expect_contains_scalar(net, l, k, in,
                               net.propagate_box_batch(l, k, in));
      }
    }
  }
}

TEST(BackendDiff, RandomMlpChains) {
  for (int seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    // Random widths, including width-1 bottlenecks.
    std::vector<std::size_t> dims{1 + std::size_t(rng.uniform_f(0, 11))};
    const int depth = 2 + int(rng.uniform_f(0, 3));
    for (int d = 0; d < depth; ++d) {
      dims.push_back(1 + std::size_t(rng.uniform_f(0, 14)));
    }
    const Network net = make_mlp(dims, rng);
    run_differential(net, rng);
  }
}

TEST(BackendDiff, ConvNormPoolChain) {
  Rng rng(99);
  const Network net = make_conv_chain(rng);
  run_differential(net, rng);
}

TEST(BackendDiff, StridedConvAvgPoolChain) {
  Rng rng(123);
  const Network net = make_avgpool_chain(rng);
  run_differential(net, rng);
}

TEST(BackendDiff, SeedConvnet) {
  Rng rng(7);
  const Network net = make_small_convnet(8, 8, 3, 16, 4, rng);
  run_differential(net, rng);
}

TEST(BackendDiff, SubRangePropagation) {
  // Propagating a slice l..k (not starting at layer 1) hits the same
  // kernels with an intermediate-layer input distribution; every start
  // layer of the MLP is covered, and so is a slice ending early.
  Rng rng(11);
  const Network net = make_mlp({6, 12, 9, 5}, rng);
  const std::size_t k = net.num_layers();
  for (std::size_t l = 1; l <= k; ++l) {
    const std::size_t in_dim = net.layer(l).input_size();
    const BoxBatch in =
        BoxBatch::linf_ball(random_centers(in_dim, 13, rng), 0.1F);
    expect_contains_scalar(net, l, k, in, net.propagate_box_batch(l, k, in));
    expect_contains_scalar(net, l, l, in, net.propagate_box_batch(l, l, in));
  }
}

TEST(BackendDiff, DimensionMismatchThrows) {
  Rng rng(5);
  const Network net = make_mlp({6, 4, 3}, rng);
  const BoxBatch wrong =
      BoxBatch::linf_ball(random_centers(5, 2, rng), 0.1F);
  EXPECT_THROW((void)net.propagate_box_batch(1, net.num_layers(), wrong),
               std::invalid_argument);
  // The scalar oracle rejects the same input.
  EXPECT_THROW((void)net.propagate_box(1, net.num_layers(), wrong.box(0)),
               std::invalid_argument);
}

TEST(BackendDiff, BackendValidatesKernelPreconditions) {
  // The box kernels are callable on their own: an inconsistent pooling
  // geometry (window overrunning the input extent), a non-positive
  // inv_std, an out-of-range slope or a mis-sized weight matrix must be
  // rejected before any kernel touches memory.
  Rng rng(9);
  const BoxBatch in = BoxBatch::linf_ball(random_centers(16, 2, rng), 0.1F);
  Pool2DGeometry bad;
  bad.channels = 1;
  bad.in_height = 4;
  bad.in_width = 4;
  bad.out_height = 4;  // (4-1)*2 + 2 = 8 > 4: overruns the input
  bad.out_width = 4;
  bad.window = 2;
  bad.stride = 2;
  const std::vector<float> mean(16, 0.0F);
  const std::vector<float> neg_std(16, -1.0F);
  EXPECT_THROW((void)box_max_pool(bad, in), std::invalid_argument);
  EXPECT_THROW((void)box_avg_pool(bad, in), std::invalid_argument);
  EXPECT_THROW((void)box_normalize(mean, neg_std, in), std::invalid_argument);
  EXPECT_THROW((void)box_leaky_relu(1.0F, in), std::invalid_argument);
  const std::vector<float> w(4 * 15, 0.5F), bias(4, 0.0F);
  EXPECT_THROW((void)box_affine(w, 4, 15, bias, in), std::invalid_argument);
}

TEST(BackendDiff, BoxBatchContainsRejectsNaN) {
  Rng rng(8);
  const BoxBatch box = BoxBatch::linf_ball(random_centers(3, 2, rng), 0.5F);
  std::vector<float> inside{box.lo(0, 0), box.lo(1, 0), box.lo(2, 0)};
  EXPECT_TRUE(box.contains(0, inside));
  inside[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(box.contains(0, inside));
}

TEST(BackendDiff, LinfBallRejectsBadDelta) {
  Rng rng(6);
  const FeatureBatch centers = random_centers(4, 3, rng);
  EXPECT_THROW(BoxBatch::linf_ball(centers, -0.1F), std::invalid_argument);
  EXPECT_THROW(
      BoxBatch::linf_ball(centers, std::numeric_limits<float>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(
      BoxBatch::linf_ball(centers, std::numeric_limits<float>::infinity()),
      std::invalid_argument);
}

}  // namespace
}  // namespace ranm
