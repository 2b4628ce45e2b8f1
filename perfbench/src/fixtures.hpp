// The deployment every phase runs against, and its set-up.
//
// Set-up is what an operator pays before the first answer: generate the
// training data and train the digit convnet, build its robust interval
// monitor, lower it, write both artifacts; build the serving MLP's robust
// monitor and write it; start one `ranm_serve` per model and wait for its
// first reply. The fixed training seeds below define the artifacts, so
// their BDD node counts are constants of the code under test. The run's
// --seed only shapes the traffic (phases.hpp).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "compile/compiled_monitor.hpp"
#include "core/interval_monitor.hpp"
#include "core/perturbation_estimator.hpp"
#include "core/threshold_spec.hpp"
#include "eval/experiment.hpp"

namespace perfbench {

/// The digit camera model: trained convnet, monitor at layer 6 (the
/// LeakyReLU after the hidden Dense, 32 neurons).
struct DigitModel {
  static constexpr std::size_t kLayer = 6;
  /// Robust construction of the frames and robust_build monitors.
  static constexpr float kDelta = 0.01F;

  ranm::DigitLabSetup setup;
  std::optional<ranm::ThresholdSpec> interval_spec;  // 2-bit percentiles
  std::optional<ranm::ThresholdSpec> onoff_spec;     // per-neuron means
  std::unique_ptr<ranm::IntervalMonitor> monitor;    // robust source
  std::unique_ptr<ranm::compile::CompiledMonitor> compiled;
  std::string net_bytes;
  std::string compiled_bytes;

  [[nodiscard]] ranm::PerturbationSpec spec() const {
    return ranm::PerturbationSpec{0, kDelta, ranm::BoundDomain::kBox};
  }
};

/// The serving MLP 16->64->32->8 with its monitor at layer 4 (the ReLU
/// after the second Dense, 32 neurons), trained on nothing: its weights
/// come from a fixed seed, its monitor from 256 fixed inputs.
struct MlpModel {
  static constexpr std::size_t kLayer = 4;
  /// Gives the ~63k-node monitor the workload is sized for (Δ = 0.02
  /// stores 470k nodes and makes each swap take about a second).
  static constexpr float kDelta = 0.015F;
  static constexpr std::size_t kTrainInputs = 256;

  ranm::Network net;
  std::vector<ranm::Tensor> train;
  std::unique_ptr<ranm::IntervalMonitor> monitor;  // robust source
  std::string net_bytes;
  std::string monitor_bytes;
};

/// One complete set-up: both models, their artifacts on disk and both
/// daemons answering.
struct Deployment {
  DigitModel digits;
  MlpModel mlp;
  std::unique_ptr<Daemon> frames_daemon;  // compiled digit monitor
  std::unique_ptr<Daemon> adapt_daemon;   // uncompiled MLP monitor
  double seconds = 0.0;                   // the whole set-up
  double train_seconds = 0.0;             // data generation and training
  double artifact_seconds = 0.0;          // builds, lowering, writes
  double daemon_seconds = 0.0;            // start until the first reply
};

/// Daemon replicas of both serving deployments.
constexpr std::size_t kServeWorkers = 2;

/// Runs one set-up in the current directory.
[[nodiscard]] std::unique_ptr<Deployment> set_up(const RunConfig& config);

/// Copies a network through its serialiser (Network is move-only and
/// its forward pass keeps per-layer caches).
[[nodiscard]] ranm::Network copy_network(const std::string& net_bytes);

}  // namespace perfbench
