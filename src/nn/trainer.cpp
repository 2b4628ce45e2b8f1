#include "nn/trainer.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "nn/optimizer.hpp"

namespace ranm {
namespace {

/// Samples per batched forward pass in the evaluation helpers.
constexpr std::size_t kEvalChunk = 256;

}  // namespace

std::vector<EpochStats> train(Network& net, Optimizer& optimizer,
                              const Loss& loss,
                              const std::vector<Tensor>& inputs,
                              const std::vector<Tensor>& targets,
                              const TrainConfig& cfg, Rng& rng) {
  if (inputs.size() != targets.size()) {
    throw std::invalid_argument("train: inputs/targets size mismatch");
  }
  if (inputs.empty()) throw std::invalid_argument("train: empty dataset");
  if (cfg.batch_size == 0) {
    throw std::invalid_argument("train: zero batch size");
  }

  // acts[l] is the input batch of layer l + 1; acts[L] the predictions.
  const std::size_t num_layers = net.num_layers();
  std::vector<FeatureBatch> acts(num_layers + 1);
  FeatureBatch grad, grad_next;
  Tensor pred(net.output_shape());
  const float scale = 1.0F / static_cast<float>(cfg.batch_size);

  std::vector<EpochStats> history;
  history.reserve(cfg.epochs);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto order = rng.permutation(inputs.size());
    double epoch_loss = 0.0;
    net.zero_gradients();
    // One minibatch per optimizer step, in permutation order; the last
    // one may be short but keeps the 1/batch_size scale.
    for (std::size_t start = 0; start < order.size();
         start += cfg.batch_size) {
      const std::size_t n = std::min(cfg.batch_size, order.size() - start);
      acts[0].reset(net.layer(1).input_size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        acts[0].set_sample(i, inputs[order[start + i]].span());
      }
      for (std::size_t l = 0; l < num_layers; ++l) {
        net.layer(l + 1).forward_batch(acts[l], acts[l + 1]);
      }
      grad.reset(acts[num_layers].dimension(), n);
      for (std::size_t i = 0; i < n; ++i) {
        acts[num_layers].copy_sample(i, pred.span());
        LossResult lr = loss.evaluate(pred, targets[order[start + i]]);
        epoch_loss += lr.value;
        lr.grad *= scale;
        grad.set_sample(i, lr.grad.span());
      }
      for (std::size_t l = num_layers; l-- > 0;) {
        net.layer(l + 1).backward_batch(acts[l], grad,
                                        l == 0 ? nullptr : &grad_next);
        std::swap(grad, grad_next);
      }
      optimizer.step();  // also zeroes the gradient accumulators
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss =
        static_cast<float>(epoch_loss / double(inputs.size()));
    if (cfg.on_epoch) cfg.on_epoch(stats);
    history.push_back(stats);
  }
  return history;
}

float evaluate_loss(const Network& net, const Loss& loss,
                    const std::vector<Tensor>& inputs,
                    const std::vector<Tensor>& targets) {
  if (inputs.size() != targets.size() || inputs.empty()) {
    throw std::invalid_argument("evaluate_loss: bad dataset");
  }
  double acc = 0.0;
  Tensor pred(net.output_shape());
  for (std::size_t start = 0; start < inputs.size(); start += kEvalChunk) {
    const std::size_t n = std::min(kEvalChunk, inputs.size() - start);
    const FeatureBatch preds =
        net.forward_batch({inputs.data() + start, n});
    for (std::size_t i = 0; i < n; ++i) {
      preds.copy_sample(i, pred.span());
      acc += loss.evaluate(pred, targets[start + i]).value;
    }
  }
  return static_cast<float>(acc / double(inputs.size()));
}

float evaluate_accuracy(const Network& net, const std::vector<Tensor>& inputs,
                        const std::vector<Tensor>& targets) {
  if (inputs.size() != targets.size() || inputs.empty()) {
    throw std::invalid_argument("evaluate_accuracy: bad dataset");
  }
  // Batched forward pass; argmax runs class-major over the batch rows.
  std::size_t correct = 0;
  std::vector<float> best;
  std::vector<std::size_t> best_idx;
  for (std::size_t start = 0; start < inputs.size(); start += kEvalChunk) {
    const std::size_t n = std::min(kEvalChunk, inputs.size() - start);
    const FeatureBatch preds =
        net.forward_batch({inputs.data() + start, n});
    best.assign(n, -std::numeric_limits<float>::infinity());
    best_idx.assign(n, 0);
    for (std::size_t c = 0; c < preds.dimension(); ++c) {
      const auto row = preds.neuron(c);
      for (std::size_t i = 0; i < n; ++i) {
        if (row[i] > best[i]) {
          best[i] = row[i];
          best_idx[i] = c;
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (best_idx[i] == static_cast<std::size_t>(targets[start + i][0])) {
        ++correct;
      }
    }
  }
  return static_cast<float>(correct) / static_cast<float>(inputs.size());
}

}  // namespace ranm
