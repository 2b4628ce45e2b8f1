// Differential tests: every layer's batched kernels against its
// per-sample oracle. forward_batch must reproduce forward() column by
// column, and backward_batch must reproduce n forward_train()/backward()
// calls — the same parameter gradients and the same input gradients —
// byte for byte, on inputs and gradients that mix ordinary values with
// NaN, ±inf, subnormals and ±0 (NaN results must be NaN; their sign and
// payload are not compared, see expect_same_bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/normalization.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

/// Draws an ordinary value most of the time and an IEEE edge case
/// otherwise.
float draw(Rng& rng) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            kInf,
                            -kInf,
                            std::numeric_limits<float>::denorm_min(),
                            -3.0e-39F,
                            0.0F,
                            -0.0F};
  if (rng.uniform_f(0.0F, 1.0F) < 0.15F) {
    return specials[rng.next_u64() % std::size(specials)];
  }
  return rng.uniform_f(-2.0F, 2.0F);
}

Tensor draw_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = draw(rng);
  return t;
}

/// Byte-for-byte equality of every non-NaN value (so ±0, subnormals and
/// ±inf must match exactly), and NaN exactly where the oracle has NaN.
/// The sign and payload of a NaN are left open: when both operands of an
/// addition are NaN (say inf - inf met by a NaN input), IEEE 754 does not
/// say which one propagates, and the compiler may commute a + b.
void expect_same_bytes(std::span<const float> expected,
                       std::span<const float> actual,
                       const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t j = 0; j < expected.size(); ++j) {
    if (std::isnan(expected[j])) {
      EXPECT_TRUE(std::isnan(actual[j]))
          << what << " element " << j << ": expected NaN, got " << actual[j];
      continue;
    }
    EXPECT_EQ(std::memcmp(&expected[j], &actual[j], sizeof(float)), 0)
        << what << " element " << j << ": expected " << expected[j]
        << ", got " << actual[j];
  }
}

struct LayerCase {
  std::string name;
  /// Builds the layer with deterministic parameters and zero gradients.
  std::function<std::unique_ptr<Layer>()> make;
};

std::unique_ptr<Layer> conv(std::size_t in_c, std::size_t h, std::size_t w,
                            std::size_t out_c, std::size_t kh,
                            std::size_t kw, std::size_t stride,
                            std::size_t padding, bool special_weights) {
  Conv2D::Config cfg;
  cfg.in_channels = in_c;
  cfg.in_height = h;
  cfg.in_width = w;
  cfg.out_channels = out_c;
  cfg.kernel_h = kh;
  cfg.kernel_w = kw;
  cfg.stride = stride;
  cfg.padding = padding;
  auto layer = std::make_unique<Conv2D>(cfg);
  Rng rng(11);
  layer->init_params(rng);
  for (std::size_t i = 0; i < layer->bias().numel(); ++i) {
    layer->bias()[i] = rng.uniform_f(-0.5F, 0.5F);
  }
  if (special_weights) {
    layer->weights()[0] = std::numeric_limits<float>::infinity();
    layer->weights()[1] = -0.0F;
    layer->weights()[2] = std::numeric_limits<float>::denorm_min();
  }
  return layer;
}

std::unique_ptr<Layer> dense(std::size_t in, std::size_t out,
                             bool special_weights) {
  auto layer = std::make_unique<Dense>(in, out);
  Rng rng(12);
  layer->init_params(rng);
  for (std::size_t i = 0; i < out; ++i) {
    layer->bias()[i] = rng.uniform_f(-0.5F, 0.5F);
  }
  if (special_weights) {
    layer->weights()[3] = -std::numeric_limits<float>::infinity();
    layer->weights()[in + 1] = 0.0F;
    layer->weights()[2 * in] = std::numeric_limits<float>::quiet_NaN();
  }
  return layer;
}

Pooling::Config pool_config(std::size_t channels, std::size_t h,
                            std::size_t w, std::size_t window,
                            std::size_t stride) {
  Pooling::Config cfg;
  cfg.channels = channels;
  cfg.in_height = h;
  cfg.in_width = w;
  cfg.window = window;
  cfg.stride = stride;
  return cfg;
}

const std::vector<LayerCase>& layer_cases() {
  static const std::vector<LayerCase> cases = {
      {"conv_s1_p0", [] { return conv(1, 6, 7, 3, 3, 3, 1, 0, false); }},
      {"conv_s1_p1_c2", [] { return conv(2, 6, 5, 3, 3, 3, 1, 1, false); }},
      {"conv_s2_p0_c3", [] { return conv(3, 7, 7, 2, 3, 3, 2, 0, false); }},
      {"conv_s2_p1_c2", [] { return conv(2, 8, 6, 4, 3, 2, 2, 1, false); }},
      {"conv_special_w", [] { return conv(2, 5, 5, 2, 3, 3, 1, 1, true); }},
      {"dense", [] { return dense(13, 7, false); }},
      {"dense_special_w", [] { return dense(9, 4, true); }},
      {"relu", [] { return std::make_unique<ReLU>(Shape{2, 3, 4}); }},
      {"leaky_relu",
       [] { return std::make_unique<LeakyReLU>(Shape{2, 3, 4}, 0.1F); }},
      {"sigmoid", [] { return std::make_unique<Sigmoid>(Shape{11}); }},
      {"tanh", [] { return std::make_unique<Tanh>(Shape{11}); }},
      {"maxpool",
       [] { return std::make_unique<MaxPool2D>(pool_config(2, 6, 6, 2, 2)); }},
      {"maxpool_overlap",
       [] { return std::make_unique<MaxPool2D>(pool_config(2, 5, 5, 3, 1)); }},
      {"avgpool",
       [] { return std::make_unique<AvgPool2D>(pool_config(2, 6, 6, 2, 2)); }},
      {"avgpool_overlap",
       [] { return std::make_unique<AvgPool2D>(pool_config(2, 5, 5, 3, 1)); }},
      {"flatten", [] { return std::make_unique<Flatten>(Shape{2, 3, 4}); }},
      {"normalization",
       [] {
         return std::make_unique<Normalization>(
             Shape{5}, std::vector<float>{0.5F, -1.0F, 0.0F, 2.0F, 0.25F},
             std::vector<float>{2.0F, 0.5F, 1.0F, 3.0F, 1e-3F});
       }},
  };
  return cases;
}

FeatureBatch pack(const std::vector<Tensor>& samples, std::size_t dim) {
  FeatureBatch batch(dim, samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    batch.set_sample(i, samples[i].span());
  }
  return batch;
}

void expect_same_gradients(Layer& expected, Layer& actual,
                           const std::string& what) {
  const auto eg = expected.gradients();
  const auto ag = actual.gradients();
  ASSERT_EQ(eg.size(), ag.size());
  for (std::size_t p = 0; p < eg.size(); ++p) {
    expect_same_bytes(eg[p]->span(), ag[p]->span(),
                      what + " parameter gradient " + std::to_string(p));
  }
}

class LayerBatch : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t>> {};

/// Runs forward_batch and two rounds of backward_batch (with and without
/// an input gradient) on `xs`/`gs` and compares them with the per-sample
/// oracle.
void expect_matches_oracle(const LayerCase& c, const std::vector<Tensor>& xs,
                           const std::vector<Tensor>& gs) {
  const std::size_t n = xs.size();
  auto oracle = c.make();
  auto batched = c.make();
  auto no_input_grad = c.make();
  const std::size_t in_dim = oracle->input_size();
  const std::size_t out_dim = oracle->output_size();
  const FeatureBatch in = pack(xs, in_dim);
  const FeatureBatch grad_out = pack(gs, out_dim);

  FeatureBatch out;
  batched->forward_batch(in, out);
  ASSERT_EQ(out.dimension(), out_dim);
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    expect_same_bytes(oracle->forward(xs[i]).span(), out.sample(i),
                      "forward sample " + std::to_string(i));
  }

  // Two rounds, so the second accumulates onto non-zero gradients.
  for (int round = 0; round < 2; ++round) {
    const std::string what = "round " + std::to_string(round);
    std::vector<Tensor> grad_in_oracle;
    for (std::size_t i = 0; i < n; ++i) {
      (void)oracle->forward_train(xs[i]);
      grad_in_oracle.push_back(oracle->backward(gs[i]));
    }
    FeatureBatch grad_in;
    batched->backward_batch(in, grad_out, &grad_in);
    no_input_grad->backward_batch(in, grad_out, nullptr);
    ASSERT_EQ(grad_in.dimension(), in_dim);
    ASSERT_EQ(grad_in.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      expect_same_bytes(grad_in_oracle[i].span(), grad_in.sample(i),
                        what + " input gradient sample " + std::to_string(i));
    }
    expect_same_gradients(*oracle, *batched, what);
    expect_same_gradients(*oracle, *no_input_grad, what + " (no input grad)");
  }
}

TEST_P(LayerBatch, MatchesPerSampleOracle) {
  const LayerCase& c = layer_cases()[std::get<0>(GetParam())];
  const std::size_t n = std::get<1>(GetParam());
  const auto probe = c.make();
  Rng rng(1000 + n);
  std::vector<Tensor> xs, gs;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(draw_tensor(probe->input_shape(), rng));
    gs.push_back(draw_tensor(probe->output_shape(), rng));
  }
  expect_matches_oracle(c, xs, gs);
}

/// Output gradients as the batched kernels meet them behind a max pool or
/// a ReLU: at least three in four are ±0. Sample 0 is all zero; feature
/// row 0 (channel 0 of a CHW gradient) is zero in every sample; odd
/// samples of a CHW gradient have one nonzero per 2x2 block, the pattern
/// a 2x2 max pool routes; the rest keep one entry in five. Nonzero
/// entries are drawn (edge cases included) and one in twenty is NaN.
std::vector<Tensor> sparse_gradients(const Shape& shape, std::size_t n,
                                     Rng& rng) {
  const auto nonzero = [&rng] {
    return rng.uniform_f(0.0F, 1.0F) < 0.05F
               ? std::numeric_limits<float>::quiet_NaN()
               : draw(rng);
  };
  const bool chw = shape.size() == 3 && shape[1] >= 2 && shape[2] >= 2;
  const std::size_t row0 = chw ? shape[1] * shape[2] : 1;
  std::vector<Tensor> gs;
  for (std::size_t i = 0; i < n; ++i) {
    Tensor g(shape);
    for (std::size_t j = 0; j < g.numel(); ++j) {
      g[j] = rng.next_u64() % 2 == 0 ? 0.0F : -0.0F;
    }
    if (i > 0 && chw && i % 2 == 1) {
      const std::size_t h = shape[1], w = shape[2];
      for (std::size_t ch = 0; ch < shape[0]; ++ch) {
        for (std::size_t y = 0; y + 1 < h; y += 2) {
          for (std::size_t x = 0; x + 1 < w; x += 2) {
            const std::size_t pick = rng.next_u64() % 4;
            g[(ch * h + y + pick / 2) * w + x + pick % 2] = nonzero();
          }
        }
      }
    } else if (i > 0) {
      for (std::size_t j = 0; j < g.numel(); ++j) {
        if (rng.uniform_f(0.0F, 1.0F) < 0.2F) g[j] = nonzero();
      }
    }
    for (std::size_t j = 0; j < std::min(row0, g.numel()); ++j) g[j] = 0.0F;
    gs.push_back(std::move(g));
  }
  return gs;
}

// Kernels that compact nonzero gradients or skip zeros must still match
// the oracle when most of them are zero, and on inputs whose first 3x3
// window is all NaN (sample 1) or all -inf (sample 2), where a max pool
// routes the gradient to the window's first element.
TEST_P(LayerBatch, SparseGradientsMatchOracle) {
  const LayerCase& c = layer_cases()[std::get<0>(GetParam())];
  const std::size_t n = std::get<1>(GetParam());
  const auto probe = c.make();
  const Shape in_shape = probe->input_shape();
  Rng rng(2000 + n);
  std::vector<Tensor> xs;
  for (std::size_t i = 0; i < n; ++i) {
    Tensor x = draw_tensor(in_shape, rng);
    if ((i == 1 || i == 2) && in_shape.size() == 3) {
      const float fill = i == 1 ? std::numeric_limits<float>::quiet_NaN()
                                : -std::numeric_limits<float>::infinity();
      for (std::size_t y = 0; y < std::min<std::size_t>(3, in_shape[1]);
           ++y) {
        for (std::size_t x0 = 0; x0 < std::min<std::size_t>(3, in_shape[2]);
             ++x0) {
          x[y * in_shape[2] + x0] = fill;
        }
      }
    }
    xs.push_back(std::move(x));
  }
  const std::vector<Tensor> gs =
      sparse_gradients(probe->output_shape(), n, rng);
  std::size_t zeros = 0, total = 0;
  for (const Tensor& g : gs) {
    for (const float v : g.span()) zeros += v == 0.0F;
    total += g.numel();
  }
  EXPECT_GE(4 * zeros, 3 * total) << "generator must keep 75% zeros";
  expect_matches_oracle(c, xs, gs);
}

TEST_P(LayerBatch, RejectsMismatchedBatches) {
  const LayerCase& c = layer_cases()[std::get<0>(GetParam())];
  const std::size_t n = std::get<1>(GetParam());
  auto layer = c.make();
  const FeatureBatch wrong(layer->input_size() + 1, n);
  FeatureBatch out;
  EXPECT_THROW(layer->forward_batch(wrong, out), std::invalid_argument);
  const FeatureBatch in(layer->input_size(), n);
  const FeatureBatch short_grad(layer->output_size(), n + 1);
  EXPECT_THROW(layer->backward_batch(in, short_grad, nullptr),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Layers, LayerBatch,
    ::testing::Combine(::testing::Range<std::size_t>(0, layer_cases().size()),
                       ::testing::Values<std::size_t>(0, 1, 7, 16, 33)),
    [](const ::testing::TestParamInfo<LayerBatch::ParamType>& param) {
      return layer_cases()[std::get<0>(param.param)].name + "_n" +
             std::to_string(std::get<1>(param.param));
    });

}  // namespace
}  // namespace ranm
