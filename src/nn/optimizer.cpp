#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace ranm {

Optimizer::Optimizer(std::vector<Tensor*> params, std::vector<Tensor*> grads)
    : params_(std::move(params)), grads_(std::move(grads)) {
  if (params_.size() != grads_.size()) {
    throw std::invalid_argument("Optimizer: params/grads count mismatch");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i] || !grads_[i]) {
      throw std::invalid_argument("Optimizer: null tensor pointer");
    }
    if (params_[i]->shape() != grads_[i]->shape()) {
      throw std::invalid_argument("Optimizer: param/grad shape mismatch");
    }
  }
}

void Optimizer::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    update(i, *params_[i], *grads_[i]);
    grads_[i]->zero();
  }
}

SGD::SGD(std::vector<Tensor*> params, std::vector<Tensor*> grads,
         const Config& cfg)
    : Optimizer(std::move(params), std::move(grads)), cfg_(cfg) {
  velocity_.reserve(params_.size());
  for (Tensor* p : params_) velocity_.emplace_back(p->shape());
}

void SGD::update(std::size_t i, Tensor& param, const Tensor& grad) {
  // Locals, so that the stores through p cannot alias the configuration
  // and the loop vectorizes; each element keeps its sequence of operations.
  const float lr = cfg_.learning_rate, momentum = cfg_.momentum,
              decay = cfg_.weight_decay;
  float* p = param.data();
  float* vel = velocity_[i].data();
  const float* gr = grad.data();
  for (std::size_t j = 0; j < param.numel(); ++j) {
    const float g = gr[j] + decay * p[j];
    vel[j] = momentum * vel[j] - lr * g;
    p[j] += vel[j];
  }
}

Adam::Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads,
           const Config& cfg)
    : Optimizer(std::move(params), std::move(grads)), cfg_(cfg) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Tensor* p : params_) {
    m_.emplace_back(p->shape());
    v_.emplace_back(p->shape());
  }
}

void Adam::update(std::size_t i, Tensor& param, const Tensor& grad) {
  // One global timestep per step() call: bump when the first parameter of
  // the round is updated.
  if (i == 0 || t_ == 0) ++t_;
  const auto t = static_cast<float>(t_);
  const float bc1 = 1.0F - std::pow(cfg_.beta1, t);
  const float bc2 = 1.0F - std::pow(cfg_.beta2, t);
  const float lr = cfg_.learning_rate, beta1 = cfg_.beta1,
              beta2 = cfg_.beta2, eps = cfg_.epsilon,
              decay = cfg_.weight_decay;
  float* p = param.data();
  float* m = m_[i].data();
  float* v = v_[i].data();
  const float* gr = grad.data();
  for (std::size_t j = 0; j < param.numel(); ++j) {
    const float g = gr[j] + decay * p[j];
    m[j] = beta1 * m[j] + (1.0F - beta1) * g;
    v[j] = beta2 * v[j] + (1.0F - beta2) * g * g;
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    p[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace ranm
