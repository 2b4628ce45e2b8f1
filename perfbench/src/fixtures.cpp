#include "fixtures.hpp"

#include <sstream>
#include <stdexcept>

#include "compile/lower.hpp"
#include "core/monitor_builder.hpp"
#include "io/serialize.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"

namespace perfbench {

using ranm::Tensor;

namespace {

std::string save_net(ranm::Network& net) {
  std::ostringstream out(std::ios::binary);
  ranm::save_network(out, net);
  return out.str();
}

std::string save_monitor(const ranm::Monitor& monitor) {
  std::ostringstream out(std::ios::binary);
  ranm::save_any_monitor(out, monitor);
  return out.str();
}

/// Starts a daemon and waits for its first answered query.
std::unique_ptr<Daemon> start_daemon(const RunConfig& config,
                                     const std::string& name,
                                     std::size_t layer, const Tensor& probe) {
  auto daemon = std::make_unique<Daemon>(
      config.serve_bin, name + "_net.bin", name + "_monitor.bin", layer,
      kServeWorkers, name + ".sock", name + "_serve.log");
  daemon->wait_ready(60.0);
  WireClient client(daemon->socket_path());
  std::vector<std::uint8_t> warns;
  if (client.query({&probe, 1}, warns, 30.0) != Outcome::kOk) {
    throw std::runtime_error(name + " daemon did not answer its first query");
  }
  return daemon;
}

}  // namespace

ranm::Network copy_network(const std::string& net_bytes) {
  std::istringstream in(net_bytes, std::ios::binary);
  return ranm::load_network(in);
}

std::unique_ptr<Deployment> set_up(const RunConfig& config) {
  auto d = std::make_unique<Deployment>();
  const Clock::time_point start = Clock::now();

  // Digit convnet: data generation and training (fixed seeds).
  DigitModel& dm = d->digits;
  dm.setup = ranm::make_digit_setup(ranm::DigitLabConfig{});
  const Clock::time_point trained = Clock::now();

  // Its robust 2-bit interval monitor, lowered and written.
  ranm::MonitorBuilder digit_builder(dm.setup.net, DigitModel::kLayer);
  const ranm::NeuronStats stats =
      digit_builder.collect_stats(dm.setup.train.inputs, /*keep_samples=*/true);
  dm.interval_spec = ranm::ThresholdSpec::from_percentiles(stats, 2);
  dm.onoff_spec = ranm::ThresholdSpec::from_means(stats);
  dm.monitor = std::make_unique<ranm::IntervalMonitor>(*dm.interval_spec);
  digit_builder.build_robust(*dm.monitor, dm.setup.train.inputs, dm.spec());
  dm.compiled = std::make_unique<ranm::compile::CompiledMonitor>(
      ranm::compile::compile_monitor(*dm.monitor));
  dm.net_bytes = save_net(dm.setup.net);
  dm.compiled_bytes = save_monitor(*dm.compiled);
  write_file("frames_net.bin", dm.net_bytes);
  write_file("frames_monitor.bin", dm.compiled_bytes);

  // Serving MLP (the bench_serving fixture) and its robust monitor.
  MlpModel& mm = d->mlp;
  ranm::Rng rng(123);
  mm.net = ranm::make_mlp({16, 64, 32, 8}, rng);
  mm.train.reserve(MlpModel::kTrainInputs);
  for (std::size_t i = 0; i < MlpModel::kTrainInputs; ++i) {
    mm.train.push_back(Tensor::random_uniform({16}, rng));
  }
  ranm::MonitorBuilder mlp_builder(mm.net, MlpModel::kLayer);
  const ranm::NeuronStats mlp_stats =
      mlp_builder.collect_stats(mm.train, /*keep_samples=*/true);
  mm.monitor = std::make_unique<ranm::IntervalMonitor>(
      ranm::ThresholdSpec::from_percentiles(mlp_stats, 2));
  mlp_builder.build_robust(
      *mm.monitor, mm.train,
      ranm::PerturbationSpec{0, MlpModel::kDelta, ranm::BoundDomain::kBox});
  mm.net_bytes = save_net(mm.net);
  mm.monitor_bytes = save_monitor(*mm.monitor);
  write_file("adapt_net.bin", mm.net_bytes);
  write_file("adapt_monitor.bin", mm.monitor_bytes);
  const Clock::time_point built = Clock::now();

  d->frames_daemon = start_daemon(config, "frames", DigitModel::kLayer,
                                  dm.setup.test.inputs.front());
  d->adapt_daemon =
      start_daemon(config, "adapt", MlpModel::kLayer, mm.train.front());
  const Clock::time_point served = Clock::now();

  d->train_seconds = seconds_between(start, trained);
  d->artifact_seconds = seconds_between(trained, built);
  d->daemon_seconds = seconds_between(built, served);
  d->seconds = seconds_between(start, served);
  return d;
}

}  // namespace perfbench
