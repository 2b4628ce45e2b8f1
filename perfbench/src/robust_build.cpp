// robust_build: the offline artifact pipeline a monitor engineer waits on.
//
// One iteration is what `ranm_cli build --robust` + `compile` do for two
// monitors of the digit convnet: MonitorBuilder::build_robust for the
// on-off and the 2-bit interval monitor (800 training inputs, Δ = 0.01),
// compile_monitor for both, and save_any_monitor of all four artifacts to
// disk. The serving path is not used.
#include <time.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "compile/lower.hpp"
#include "core/monitor_builder.hpp"
#include "core/onoff_monitor.hpp"
#include "data/perturb.hpp"
#include "io/serialize.hpp"
#include "phases.hpp"
#include "util/rng.hpp"

namespace perfbench {

using ranm::Tensor;

namespace {

/// Training inputs whose Δ-ball corners are checked per run.
constexpr std::size_t kLemmaInputs = 48;
constexpr std::size_t kCornersPerInput = 4;
/// Seeded probe images for the save/load round trip.
constexpr std::size_t kRoundTripProbes = 256;

constexpr const char* kArtifactNames[] = {
    "build_onoff.bin", "build_interval.bin", "build_onoff_compiled.bin",
    "build_interval_compiled.bin"};

}  // namespace

struct BuildArtifacts {
  std::unique_ptr<ranm::OnOffMonitor> onoff;
  std::unique_ptr<ranm::IntervalMonitor> interval;
  std::unique_ptr<ranm::compile::CompiledMonitor> onoff_compiled;
  std::unique_ptr<ranm::compile::CompiledMonitor> interval_compiled;

  [[nodiscard]] const ranm::Monitor& at(std::size_t i) const {
    switch (i) {
      case 0:
        return *onoff;
      case 1:
        return *interval;
      case 2:
        return *onoff_compiled;
      default:
        return *interval_compiled;
    }
  }
};

namespace {

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// One pipeline iteration; returns its wall time, `cpu_s` its CPU time.
double build_once(DigitModel& model, BuildArtifacts& out, double& cpu_s) {
  ranm::MonitorBuilder builder(model.setup.net, DigitModel::kLayer);
  const Clock::time_point start = Clock::now();
  const double cpu0 = thread_cpu_s();
  out.onoff = std::make_unique<ranm::OnOffMonitor>(*model.onoff_spec);
  builder.build_robust(*out.onoff, model.setup.train.inputs, model.spec());
  out.interval = std::make_unique<ranm::IntervalMonitor>(*model.interval_spec);
  builder.build_robust(*out.interval, model.setup.train.inputs, model.spec());
  out.onoff_compiled = std::make_unique<ranm::compile::CompiledMonitor>(
      ranm::compile::compile_monitor(*out.onoff));
  out.interval_compiled = std::make_unique<ranm::compile::CompiledMonitor>(
      ranm::compile::compile_monitor(*out.interval));
  for (std::size_t i = 0; i < 4; ++i) {
    std::ofstream file(kArtifactNames[i], std::ios::binary | std::ios::trunc);
    ranm::save_any_monitor(file, out.at(i));
  }
  cpu_s = thread_cpu_s() - cpu0;
  return seconds_between(start, Clock::now());
}

std::vector<std::uint8_t> verdicts(ranm::MonitorBuilder& builder,
                                   const ranm::Monitor& monitor,
                                   std::span<const Tensor> inputs) {
  std::unique_ptr<bool[]> out(new bool[inputs.size()]);
  builder.warns_batch(monitor, inputs, {out.get(), inputs.size()});
  return std::vector<std::uint8_t>(out.get(), out.get() + inputs.size());
}

}  // namespace

void run_robust_build(Deployment& dep, std::size_t min_iterations,
                      double seconds, BuildPass& pass) {
  if (!pass.artifacts) pass.artifacts = std::make_shared<BuildArtifacts>();
  BuildArtifacts& art = *pass.artifacts;
  const Clock::time_point start = Clock::now();
  // After the minimum, stop when one more iteration of the mean length
  // would overrun `seconds`.
  const auto more = [&](std::size_t done) {
    const double elapsed = seconds_between(start, Clock::now());
    return done < min_iterations ||
           elapsed + elapsed / double(done) <= seconds;
  };
  for (std::size_t done = 0; more(done); ++done) {
    ++pass.builds.attempted;
    double cpu = 0.0;
    pass.build_s.push_back(build_once(dep.digits, art, cpu));
    pass.build_cpu_s.push_back(cpu);
    // Every iteration must store the recorded sets and write the same
    // bytes as the first one.
    bool same = art.onoff->bdd_node_count() == kOnOffNodes &&
                art.interval->bdd_node_count() == kIntervalNodes;
    std::vector<std::string> bytes;
    for (const char* name : kArtifactNames) bytes.push_back(read_file(name));
    if (pass.first_bytes.empty()) pass.first_bytes = bytes;
    same = same && bytes == pass.first_bytes;
    if (same) {
      ++pass.builds.succeeded;
    } else {
      ++pass.builds.mismatches;
    }
  }
}

void check_robust_build(const RunConfig& config, Deployment& dep,
                        const BuildPass& pass, Report& report) {
  DigitModel& model = dep.digits;
  const BuildArtifacts& art = *pass.artifacts;
  const std::vector<std::string>& first_bytes = pass.first_bytes;
  PhaseCounts checks{"robust_build.checks"};
  report.check(format("robust_build: BDD nodes interval %zu (recorded %zu), "
                      "on-off %zu (recorded %zu)",
                      art.interval->bdd_node_count(), kIntervalNodes,
                      art.onoff->bdd_node_count(), kOnOffNodes),
               art.interval->bdd_node_count() == kIntervalNodes &&
                   art.onoff->bdd_node_count() == kOnOffNodes);

  std::size_t artifact_bytes = 0;
  for (const std::string& b : first_bytes) artifact_bytes += b.size();

  // Lemma 1 spot check: a robust monitor never warns on a Δ-bounded
  // perturbation of a training input; box corners are the extreme ones.
  ranm::Rng rng(config.seed * 0xD1B54A32D192ED03ULL + 7);
  ranm::MonitorBuilder builder(model.setup.net, DigitModel::kLayer);
  const std::vector<Tensor>& train = model.setup.train.inputs;
  std::vector<Tensor> corners;
  for (std::size_t i = 0; i < kLemmaInputs; ++i) {
    const Tensor& v = train[rng.next_u64() % train.size()];
    for (std::size_t c = 0; c < kCornersPerInput; ++c) {
      corners.push_back(ranm::perturb_linf_corner(v, DigitModel::kDelta, rng));
    }
  }
  for (std::size_t m = 0; m < 4; ++m) {
    const std::vector<std::uint8_t> warns = verdicts(builder, art.at(m), corners);
    for (std::uint8_t w : warns) {
      ++checks.attempted;
      if (w == 0) {
        ++checks.succeeded;
      } else {
        ++checks.mismatches;
      }
    }
  }

  // Save/load round trip: every artifact loads back and answers a seeded
  // probe set like the in-memory source monitor.
  std::vector<Tensor> probes;
  const auto& test = model.setup.test.inputs;
  for (std::size_t i = 0; i < kRoundTripProbes; ++i) {
    if (i % 2 == 0) {
      probes.push_back(test[rng.next_u64() % test.size()]);
    } else {
      const auto& ood = model.setup.ood[rng.next_u64() % model.setup.ood.size()]
                            .second;
      probes.push_back(ood[rng.next_u64() % ood.size()]);
    }
  }
  const std::vector<std::uint8_t> onoff_ref = verdicts(builder, *art.onoff, probes);
  const std::vector<std::uint8_t> interval_ref =
      verdicts(builder, *art.interval, probes);
  for (std::size_t m = 0; m < 4; ++m) {
    ++checks.attempted;
    std::istringstream in(first_bytes[m], std::ios::binary);
    const std::unique_ptr<ranm::Monitor> loaded = ranm::load_any_monitor(in);
    const auto& ref = m % 2 == 0 ? onoff_ref : interval_ref;
    if (verdicts(builder, *loaded, probes) == ref &&
        verdicts(builder, art.at(m), probes) == ref) {
      ++checks.succeeded;
    } else {
      ++checks.mismatches;
    }
  }

  report.phase(pass.builds);
  report.phase(checks);
  report.metric("robust_build.artifact_mb", double(artifact_bytes) / 1e6, "MB",
                first_bytes.size());
  // Too unsteady on a shared machine to gate (see README): printed only.
  report.info_quantile("robust_build.build_s", pass.build_s, 0.50, "s");
  report.info("robust_build.build_cpu_s", median(pass.build_cpu_s), "s",
              pass.build_cpu_s.size());
  report.info("robust_build.interval_nodes",
              double(art.interval->bdd_node_count()), "count", 1);
  report.info("robust_build.onoff_nodes", double(art.onoff->bdd_node_count()),
              "count", 1);
}

}  // namespace perfbench
