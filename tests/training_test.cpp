#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace ranm {
namespace {

TEST(Loss, MSEValueAndGradient) {
  MSELoss loss;
  const auto r =
      loss.evaluate(Tensor::vector({1.0F, 2.0F}), Tensor::vector({0.0F, 4.0F}));
  EXPECT_FLOAT_EQ(r.value, (1.0F + 4.0F) / 2.0F);
  EXPECT_FLOAT_EQ(r.grad[0], 2.0F * 1.0F / 2.0F);
  EXPECT_FLOAT_EQ(r.grad[1], 2.0F * -2.0F / 2.0F);
  EXPECT_THROW((void)loss.evaluate(Tensor::vector({1.0F}),
                                   Tensor::vector({1.0F, 2.0F})),
               std::invalid_argument);
}

TEST(Loss, SoftmaxNormalises) {
  Tensor p = softmax(Tensor::vector({1.0F, 2.0F, 3.0F}));
  EXPECT_NEAR(p.sum(), 1.0F, 1e-5F);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(Loss, SoftmaxStableForLargeLogits) {
  Tensor p = softmax(Tensor::vector({1000.0F, 1000.0F}));
  EXPECT_NEAR(p[0], 0.5F, 1e-5F);
}

TEST(Loss, CrossEntropyGradientSumsToZero) {
  SoftmaxCrossEntropyLoss loss;
  Tensor target({1});
  target[0] = 2.0F;
  const auto r = loss.evaluate(Tensor::vector({0.1F, -0.2F, 0.5F}), target);
  EXPECT_GT(r.value, 0.0F);
  EXPECT_NEAR(r.grad.sum(), 0.0F, 1e-5F);
  EXPECT_LT(r.grad[2], 0.0F);  // true class pushes logit up
}

TEST(Loss, CrossEntropyRejectsBadClass) {
  SoftmaxCrossEntropyLoss loss;
  Tensor target({1});
  target[0] = 9.0F;
  EXPECT_THROW((void)loss.evaluate(Tensor::vector({0.0F, 1.0F}), target),
               std::invalid_argument);
}

TEST(Optimizer, ValidatesBinding) {
  Tensor p({2}), g({3});
  EXPECT_THROW(SGD({&p}, {&g}, SGD::Config{}), std::invalid_argument);
  EXPECT_THROW(SGD({&p}, {}, SGD::Config{}), std::invalid_argument);
}

TEST(Optimizer, SGDStepMovesAgainstGradient) {
  Tensor p = Tensor::vector({1.0F, -1.0F});
  Tensor g = Tensor::vector({0.5F, -0.5F});
  SGD::Config cfg;
  cfg.learning_rate = 0.1F;
  cfg.momentum = 0.0F;
  SGD opt({&p}, {&g}, cfg);
  opt.step();
  EXPECT_FLOAT_EQ(p[0], 1.0F - 0.05F);
  EXPECT_FLOAT_EQ(p[1], -1.0F + 0.05F);
  // Gradients are cleared after the step.
  EXPECT_EQ(g.norm2(), 0.0F);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimise f(p) = ||p - target||^2 with explicit gradients.
  Tensor p = Tensor::vector({5.0F, -3.0F});
  Tensor g({2});
  const Tensor target = Tensor::vector({1.0F, 2.0F});
  Adam::Config cfg;
  cfg.learning_rate = 0.05F;
  Adam opt({&p}, {&g}, cfg);
  for (int it = 0; it < 2000; ++it) {
    for (std::size_t i = 0; i < 2; ++i) g[i] = 2.0F * (p[i] - target[i]);
    opt.step();
  }
  EXPECT_NEAR(p[0], 1.0F, 1e-2F);
  EXPECT_NEAR(p[1], 2.0F, 1e-2F);
}

// The scalar update loops SGD and Adam ran before their loops were
// vectorized, kept as the oracle: every element must take exactly this
// sequence of float operations. This file builds with -ffp-contract=off,
// as the library does, so no product is fused into an FMA here either.
void sgd_reference(std::vector<float>& param, std::vector<float>& vel,
                   const std::vector<float>& grad, const SGD::Config& cfg) {
  for (std::size_t j = 0; j < param.size(); ++j) {
    const float g = grad[j] + cfg.weight_decay * param[j];
    vel[j] = cfg.momentum * vel[j] - cfg.learning_rate * g;
    param[j] += vel[j];
  }
}

void adam_reference(std::vector<float>& param, std::vector<float>& m,
                    std::vector<float>& v, const std::vector<float>& grad,
                    const Adam::Config& cfg, std::size_t step) {
  const auto t = static_cast<float>(step);
  const float bc1 = 1.0F - std::pow(cfg.beta1, t);
  const float bc2 = 1.0F - std::pow(cfg.beta2, t);
  for (std::size_t j = 0; j < param.size(); ++j) {
    const float g = grad[j] + cfg.weight_decay * param[j];
    m[j] = cfg.beta1 * m[j] + (1.0F - cfg.beta1) * g;
    v[j] = cfg.beta2 * v[j] + (1.0F - cfg.beta2) * g * g;
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    param[j] -= cfg.learning_rate * mhat / (std::sqrt(vhat) + cfg.epsilon);
  }
}

/// A gradient that is mostly ordinary but also ±0, subnormal or huge;
/// element 3 of `nan_step` is NaN.
std::vector<float> optimizer_gradient(std::size_t size, Rng& rng,
                                      std::size_t step,
                                      std::size_t nan_step) {
  const float specials[] = {0.0F,    -0.0F,   1.0e-45F, -3.0e-39F,
                            3.0e38F, -1.0e30F, 6.5e4F};
  std::vector<float> g(size);
  for (float& x : g) {
    x = rng.uniform_f(0.0F, 1.0F) < 0.3F
            ? specials[rng.next_u64() % std::size(specials)]
            : rng.uniform_f(-2.0F, 2.0F);
  }
  if (step == nan_step) g[3] = std::numeric_limits<float>::quiet_NaN();
  return g;
}

/// Byte equality, except that a NaN only has to meet a NaN: which of two
/// NaN operands an addition returns is left open by IEEE 754.
void expect_same_floats(const std::vector<float>& expected,
                        std::span<const float> actual,
                        const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t j = 0; j < expected.size(); ++j) {
    if (std::isnan(expected[j])) {
      EXPECT_TRUE(std::isnan(actual[j])) << what << " element " << j;
    } else {
      EXPECT_EQ(std::memcmp(&expected[j], &actual[j], sizeof(float)), 0)
          << what << " element " << j << ": " << expected[j] << " vs "
          << actual[j];
    }
  }
}

// Sizes 37 and 5 leave remainders after any vector width of 4 or 8.
constexpr std::size_t kOptimizerSizes[] = {37, 5};
constexpr std::size_t kOptimizerSteps = 60;

class OptimizerOracle : public ::testing::TestWithParam<float> {};

TEST_P(OptimizerOracle, SgdMatchesScalarLoop) {
  SGD::Config cfg;
  cfg.learning_rate = 0.05F;
  cfg.momentum = 0.9F;
  cfg.weight_decay = GetParam();
  Rng rng(31);
  std::vector<Tensor> params, grads;
  std::vector<std::vector<float>> ref_param, ref_vel;
  for (const std::size_t size : kOptimizerSizes) {
    params.push_back(Tensor::random_uniform({size}, rng));
    grads.emplace_back(Shape{size});
    ref_param.emplace_back(params.back().span().begin(),
                           params.back().span().end());
    ref_vel.emplace_back(size, 0.0F);
  }
  SGD opt({&params[0], &params[1]}, {&grads[0], &grads[1]}, cfg);
  for (std::size_t step = 1; step <= kOptimizerSteps; ++step) {
    for (std::size_t k = 0; k < params.size(); ++k) {
      const auto g = optimizer_gradient(params[k].numel(), rng, step, 30);
      std::copy(g.begin(), g.end(), grads[k].span().begin());
      sgd_reference(ref_param[k], ref_vel[k], g, cfg);
    }
    opt.step();
    for (std::size_t k = 0; k < params.size(); ++k) {
      expect_same_floats(ref_param[k], params[k].span(),
                         "step " + std::to_string(step) + " tensor " +
                             std::to_string(k));
      EXPECT_EQ(grads[k].norm2(), 0.0F);
    }
  }
}

TEST_P(OptimizerOracle, AdamMatchesScalarLoop) {
  Adam::Config cfg;
  cfg.learning_rate = 1e-2F;
  cfg.weight_decay = GetParam();
  Rng rng(32);
  std::vector<Tensor> params, grads;
  std::vector<std::vector<float>> ref_param, ref_m, ref_v;
  for (const std::size_t size : kOptimizerSizes) {
    params.push_back(Tensor::random_uniform({size}, rng));
    grads.emplace_back(Shape{size});
    ref_param.emplace_back(params.back().span().begin(),
                           params.back().span().end());
    ref_m.emplace_back(size, 0.0F);
    ref_v.emplace_back(size, 0.0F);
  }
  Adam opt({&params[0], &params[1]}, {&grads[0], &grads[1]}, cfg);
  for (std::size_t step = 1; step <= kOptimizerSteps; ++step) {
    for (std::size_t k = 0; k < params.size(); ++k) {
      const auto g = optimizer_gradient(params[k].numel(), rng, step, 40);
      std::copy(g.begin(), g.end(), grads[k].span().begin());
      adam_reference(ref_param[k], ref_m[k], ref_v[k], g, cfg, step);
    }
    opt.step();
    for (std::size_t k = 0; k < params.size(); ++k) {
      expect_same_floats(ref_param[k], params[k].span(),
                         "step " + std::to_string(step) + " tensor " +
                             std::to_string(k));
      EXPECT_EQ(grads[k].norm2(), 0.0F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WeightDecay, OptimizerOracle,
                         ::testing::Values(0.0F, 1e-2F),
                         [](const ::testing::TestParamInfo<float>& param) {
                           return param.param == 0.0F ? "no_decay"
                                                      : "decay";
                         });

TEST(Trainer, LossDecreasesOnRegression) {
  Rng rng(1);
  Network net = make_mlp({3, 16, 2}, rng);
  // Learn a fixed affine map.
  std::vector<Tensor> inputs, targets;
  for (int i = 0; i < 128; ++i) {
    Tensor x = Tensor::random_uniform({3}, rng);
    Tensor y({2});
    y[0] = x[0] + 0.5F * x[1];
    y[1] = -x[2];
    inputs.push_back(std::move(x));
    targets.push_back(std::move(y));
  }
  Adam::Config adam_cfg;
  adam_cfg.learning_rate = 5e-3F;
  Adam opt(net.parameters(), net.gradients(), adam_cfg);
  MSELoss loss;
  TrainConfig cfg;
  cfg.epochs = 40;
  cfg.batch_size = 16;
  const auto history = train(net, opt, loss, inputs, targets, cfg, rng);
  ASSERT_EQ(history.size(), 40U);
  EXPECT_LT(history.back().mean_loss, 0.25F * history.front().mean_loss);
  EXPECT_LT(evaluate_loss(net, loss, inputs, targets), 0.05F);
}

TEST(Trainer, OverfitsTinyClassificationSet) {
  Rng rng(2);
  Network net = make_mlp({4, 24, 3}, rng);
  std::vector<Tensor> inputs, targets;
  for (int i = 0; i < 12; ++i) {
    inputs.push_back(Tensor::random_uniform({4}, rng));
    Tensor t({1});
    t[0] = float(i % 3);
    targets.push_back(std::move(t));
  }
  Adam::Config adam_cfg;
  adam_cfg.learning_rate = 1e-2F;
  Adam opt(net.parameters(), net.gradients(), adam_cfg);
  SoftmaxCrossEntropyLoss loss;
  TrainConfig cfg;
  cfg.epochs = 300;
  cfg.batch_size = 4;
  (void)train(net, opt, loss, inputs, targets, cfg, rng);
  EXPECT_EQ(evaluate_accuracy(net, inputs, targets), 1.0F);
}

TEST(Trainer, EpochCallbackFires) {
  Rng rng(3);
  Network net = make_mlp({2, 4, 1}, rng);
  std::vector<Tensor> inputs{Tensor::vector({0.0F, 1.0F})};
  std::vector<Tensor> targets{Tensor::vector({1.0F})};
  SGD opt(net.parameters(), net.gradients(), SGD::Config{});
  MSELoss loss;
  TrainConfig cfg;
  cfg.epochs = 5;
  int calls = 0;
  cfg.on_epoch = [&](const EpochStats& s) {
    EXPECT_EQ(s.epoch, std::size_t(calls));
    ++calls;
  };
  (void)train(net, opt, loss, inputs, targets, cfg, rng);
  EXPECT_EQ(calls, 5);
}

TEST(Trainer, RejectsBadInput) {
  Rng rng(4);
  Network net = make_mlp({2, 2}, rng);
  SGD opt(net.parameters(), net.gradients(), SGD::Config{});
  MSELoss loss;
  TrainConfig cfg;
  std::vector<Tensor> one{Tensor::vector({0.0F, 0.0F})};
  std::vector<Tensor> none;
  EXPECT_THROW((void)train(net, opt, loss, one, none, cfg, rng),
               std::invalid_argument);
  EXPECT_THROW((void)train(net, opt, loss, none, none, cfg, rng),
               std::invalid_argument);
  cfg.batch_size = 0;
  std::vector<Tensor> t{Tensor::vector({1.0F, 0.0F})};
  EXPECT_THROW((void)train(net, opt, loss, one, t, cfg, rng),
               std::invalid_argument);
}

/// The per-sample loop train() ran before its batched kernels, kept as
/// the oracle: one Network::forward()/backward() per sample and an
/// optimizer step every batch_size samples and at the end of the epoch.
std::vector<EpochStats> train_per_sample(Network& net, Optimizer& optimizer,
                                         const Loss& loss,
                                         const std::vector<Tensor>& inputs,
                                         const std::vector<Tensor>& targets,
                                         const TrainConfig& cfg, Rng& rng) {
  std::vector<EpochStats> history;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto order = rng.permutation(inputs.size());
    double epoch_loss = 0.0;
    std::size_t batch_count = 0;
    net.zero_gradients();
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const std::size_t idx = order[pos];
      const Tensor pred = net.forward(inputs[idx]);
      LossResult lr = loss.evaluate(pred, targets[idx]);
      epoch_loss += lr.value;
      lr.grad *= 1.0F / static_cast<float>(cfg.batch_size);
      (void)net.backward(lr.grad);
      ++batch_count;
      if (batch_count == cfg.batch_size || pos + 1 == order.size()) {
        optimizer.step();
        batch_count = 0;
      }
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss =
        static_cast<float>(epoch_loss / double(inputs.size()));
    history.push_back(stats);
  }
  return history;
}

bool same_bytes(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

enum class CaseNet : std::uint32_t { kConvnet, kMlp };

Network make_case_net(CaseNet kind, Rng& rng) {
  return kind == CaseNet::kConvnet ? make_small_convnet(8, 8, 3, 6, 4, rng)
                                   : make_mlp({5, 12, 7, 4}, rng);
}

// gtest names each case by a byte dump of this struct, so every byte must be
// defined and none may be an address (a pointer made the names vary from
// process to process). `name_tag` keeps the leading bytes these cases have
// always been listed under.
struct TrainCase {
  std::uint32_t name_tag;
  CaseNet net;
  char name[62];
  bool classification;
  bool adam;
};
static_assert(sizeof(TrainCase) == 72 &&
                  std::has_unique_object_representations_v<TrainCase>,
              "TrainCase must have no padding");

class TrainerBitIdentity : public ::testing::TestWithParam<TrainCase> {};

// train()'s batched kernels must leave exactly the parameters and the
// epoch losses of the per-sample loop: 37 samples in minibatches of 16
// end every epoch on a ragged batch of 5.
TEST_P(TrainerBitIdentity, MatchesPerSampleLoop) {
  const TrainCase& c = GetParam();
  Rng data_rng(21);
  Network probe = make_case_net(c.net, data_rng);
  const Shape in_shape = probe.input_shape();
  const std::size_t out_dim = shape_numel(probe.output_shape());
  std::vector<Tensor> inputs, targets;
  for (std::size_t i = 0; i < 37; ++i) {
    inputs.push_back(Tensor::random_uniform(in_shape, data_rng));
    if (c.classification) {
      targets.push_back(Tensor({1}, float(i % out_dim)));
    } else {
      targets.push_back(Tensor::random_uniform({out_dim}, data_rng));
    }
  }
  const auto run = [&](bool batched) {
    Rng rng(5);
    Network net = make_case_net(c.net, rng);
    std::unique_ptr<Optimizer> opt;
    if (c.adam) {
      Adam::Config cfg;
      cfg.learning_rate = 1e-2F;
      opt = std::make_unique<Adam>(net.parameters(), net.gradients(), cfg);
    } else {
      SGD::Config cfg;
      cfg.learning_rate = 5e-2F;
      cfg.momentum = 0.9F;
      opt = std::make_unique<SGD>(net.parameters(), net.gradients(), cfg);
    }
    const MSELoss mse;
    const SoftmaxCrossEntropyLoss ce;
    const Loss& loss = c.classification ? static_cast<const Loss&>(ce) : mse;
    TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 16;
    auto history =
        batched ? train(net, *opt, loss, inputs, targets, cfg, rng)
                : train_per_sample(net, *opt, loss, inputs, targets, cfg, rng);
    return std::make_pair(std::move(net), std::move(history));
  };
  auto [batched_net, batched_history] = run(true);
  auto [oracle_net, oracle_history] = run(false);

  ASSERT_EQ(batched_history.size(), oracle_history.size());
  for (std::size_t e = 0; e < oracle_history.size(); ++e) {
    EXPECT_EQ(batched_history[e].epoch, oracle_history[e].epoch);
    EXPECT_TRUE(same_bytes({&oracle_history[e].mean_loss, 1},
                           {&batched_history[e].mean_loss, 1}))
        << "epoch " << e << ": " << oracle_history[e].mean_loss << " vs "
        << batched_history[e].mean_loss;
  }
  const auto expected = oracle_net.parameters();
  const auto actual = batched_net.parameters();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t p = 0; p < expected.size(); ++p) {
    EXPECT_TRUE(same_bytes(expected[p]->span(), actual[p]->span()))
        << "parameter tensor " << p;
  }
}

constexpr std::uint32_t kTrainNameTag = 0xA3CC3AD0U;

INSTANTIATE_TEST_SUITE_P(
    Cases, TrainerBitIdentity,
    ::testing::Values(TrainCase{kTrainNameTag, CaseNet::kConvnet,
                                "convnet_ce_adam", true, true},
                      TrainCase{kTrainNameTag, CaseNet::kConvnet,
                                "convnet_mse_sgd", false, false},
                      TrainCase{kTrainNameTag, CaseNet::kMlp, "mlp_ce_sgd",
                                true, false},
                      TrainCase{kTrainNameTag, CaseNet::kMlp, "mlp_mse_adam",
                                false, true}),
    [](const ::testing::TestParamInfo<TrainCase>& param) {
      return std::string(param.param.name);
    });

std::vector<float> all_gradients(Network& net) {
  std::vector<float> out;
  for (Tensor* g : net.gradients()) {
    out.insert(out.end(), g->span().begin(), g->span().end());
  }
  return out;
}

TEST(Trainer, EvaluateLossMatchesPerSampleAndLeavesTrainingStateAlone) {
  Rng rng(8);
  Network net = make_small_convnet(8, 8, 2, 5, 3, rng);
  std::vector<Tensor> inputs, targets;
  for (std::size_t i = 0; i < 300; ++i) {  // more than one 256-chunk
    inputs.push_back(Tensor::random_uniform({1, 8, 8}, rng));
    targets.push_back(Tensor({1}, float(i % 3)));
  }
  const SoftmaxCrossEntropyLoss loss;
  double acc = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    acc += loss.evaluate(net.forward_to(net.num_layers(), inputs[i]),
                         targets[i])
               .value;
  }
  const float expected = static_cast<float>(acc / double(inputs.size()));

  // Between a training forward and its backward, evaluate_loss must not
  // disturb the cached inputs the backward pass reads.
  const Tensor grad = Tensor::random_uniform({3}, rng);
  (void)net.forward(inputs[0]);
  const float actual = evaluate_loss(net, loss, inputs, targets);
  (void)net.backward(grad);
  const std::vector<float> with_eval = all_gradients(net);
  net.zero_gradients();
  (void)net.forward(inputs[0]);
  (void)net.backward(grad);
  const std::vector<float> without_eval = all_gradients(net);

  EXPECT_TRUE(same_bytes({&expected, 1}, {&actual, 1}))
      << expected << " vs " << actual;
  EXPECT_TRUE(same_bytes(with_eval, without_eval));
}

}  // namespace
}  // namespace ranm
