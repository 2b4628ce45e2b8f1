// The three phases every run measures, in order: frames (camera feed
// into the compiled digit monitor), robust_build (the offline artifact
// pipeline) and adapt_swap (queries beside observe + swap on the MLP),
// plus the in-process layer replays of a traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <span>
#include <vector>

#include "bench.hpp"
#include "fixtures.hpp"

namespace perfbench {

/// Client deadline of a query; a reply later than this is a timeout.
constexpr double kQueryTimeoutS = 5.0;
/// kStats polling period of traced runs.
constexpr double kStatsPeriodS = 0.5;

// ---- frames ---------------------------------------------------------------

/// An 8-camera rig: every frame is one batch-8 query.
constexpr std::size_t kFrameBatch = 8;
/// Frames per second the open loop offers: about 30% of the saturation
/// throughput measured on the parent commit (4 vCPUs, 1,000-1,400
/// frames/s), frozen so that a faster build meets the same offered load.
/// At 60% queueing amplified the machine's noise into 2-5x run-to-run
/// swings of the frame latency.
constexpr double kFrameRatePerS = 300.0;
/// A frame answered later than this after its due time is missed (a
/// sixth of a 30 fps camera period, about four times the parent commit's
/// median frame latency of 1.25-1.38 ms at kFrameRatePerS on 4 vCPUs). A
/// serving path about 2.5 times slower loses about a quarter of the
/// on-time frames, the gate's bound. A deadline of twice the median would
/// catch a 2x slowdown, but a shared 4-vCPU guest's own speed swings up
/// to 2x between runs, and there at 3 ms the on-time share spread 0.27 of
/// its median over ten runs.
constexpr double kFrameDeadlineMs = 5.0;

/// The run's frames: seeded images in batches of kFrameBatch, with the
/// verdicts of the uncompiled source monitor as the reference.
struct FramesTraffic {
  std::vector<ranm::Tensor> images;
  std::vector<std::vector<std::uint8_t>> reference;  // per request
  [[nodiscard]] std::size_t requests() const { return reference.size(); }
  [[nodiscard]] std::span<const ranm::Tensor> request(std::size_t r) const {
    return {images.data() + (r % requests()) * kFrameBatch, kFrameBatch};
  }
};
[[nodiscard]] FramesTraffic make_frames_traffic(const RunConfig& config,
                                                DigitModel& model,
                                                Report& report);

struct FramesPass {
  PhaseCounts open{"frames.open_loop"};
  PhaseCounts saturation{"frames.saturation"};
  std::uint64_t due = 0;      // frames due in the open loop
  std::uint64_t on_time = 0;  // answered correctly within the deadline
  std::vector<double> latency_ms;        // due time -> reply, per answer
  std::vector<double> generator_late_ms;  // send time - time it could send
  // The open loop in windows of due time, the saturation window in
  // windows of completion time.
  std::vector<std::vector<double>> window_latency_ms;
  std::vector<double> window_on_time_frac;
  std::vector<double> window_samples_per_s;
  std::uint64_t saturation_samples = 0;  // answered correctly
  std::vector<double> rtt_us;  // open loop, send -> reply
  double rss_bytes = 0.0;
  DaemonBusy busy;   // over the saturation windows
  StatsPolls polls;  // over the open loops, traced runs only
};
/// One open-loop window of `open_s` and one saturation window of
/// `saturation_s`, appended to `pass`.
void run_frames(const RunConfig& config, Deployment& dep,
                const FramesTraffic& traffic, double open_s,
                double saturation_s, Tracer& tracer, FramesPass& pass);
void report_frames(const FramesPass& pass, Report& report);

// ---- robust_build ---------------------------------------------------------

/// Reachable BDD nodes of the robust monitors of the digit convnet
/// (800 training inputs, Δ = 0.01, box domain), as the parent commit
/// builds them. The sets are canonical for the fixed variable order, so
/// a build that stores the same set has the same count.
constexpr std::size_t kIntervalNodes = 116045;
constexpr std::size_t kOnOffNodes = 22879;

/// Iterations needed before the median has ten samples beyond it.
constexpr std::size_t kMinBuildIterations = 21;

struct BuildArtifacts;  // the last iteration's four monitors

struct BuildPass {
  PhaseCounts builds{"robust_build.builds"};
  std::vector<double> build_s;      // wall time per iteration
  std::vector<double> build_cpu_s;  // CPU time per iteration
  std::vector<std::string> first_bytes;  // artifacts of the first iteration
  std::shared_ptr<BuildArtifacts> artifacts;
};
/// At least `min_iterations` pipeline iterations, and more while they fit
/// in `seconds`, appended to `pass`.
void run_robust_build(Deployment& dep, std::size_t min_iterations,
                      double seconds, BuildPass& pass);
/// The Lemma 1 spot check and the save/load round trip on the last
/// iteration's artifacts; reports the phase.
void check_robust_build(const RunConfig& config, Deployment& dep,
                        const BuildPass& pass, Report& report);

// ---- adapt_swap -----------------------------------------------------------

/// Inputs streamed by one observe before each swap.
constexpr std::size_t kObserveBatch = 32;
/// Period of the observe + swap control connection.
constexpr double kSwapPeriodS = 0.2;

/// The run's adapt traffic: batch-1 queries (half of them training
/// inputs, which must never warn) and the observe batches, consumed in
/// order across passes.
struct AdaptTraffic {
  std::vector<ranm::Tensor> queries;
  std::vector<bool> must_pass;  // training inputs: never warned
  std::vector<std::vector<ranm::Tensor>> observe_batches;
  std::vector<ranm::Tensor> probes;  // final served == in-process check
  std::size_t next_batch = 0;        // first unused observe batch
};
[[nodiscard]] AdaptTraffic make_adapt_traffic(const RunConfig& config,
                                              const MlpModel& model);

struct AdaptPass {
  PhaseCounts queries{"adapt_swap.queries"};
  PhaseCounts control{"adapt_swap.observe_swap"};
  std::vector<double> latency_ms;  // query round trips
  std::vector<double> swap_ms;     // swap round trips
  std::vector<double> swap_work_ms;  // rebuild + publish, as the daemon times it
  std::vector<double> observe_ms;  // observe round trips
  // Query round trips and answered samples per window of send time.
  std::vector<std::vector<double>> window_latency_ms;
  std::vector<double> window_samples_per_s;
  std::uint64_t generation = 0;  // the last swap's
  std::uint64_t observed = 0;    // inputs staged by observe
  std::uint64_t novel = 0;       // of them, warned by the serving monitor
  double rss_bytes = 0.0;
  DaemonBusy busy;
  StatsPolls polls;  // traced runs only
};
/// `seconds` of queries beside observe + swap, appended to `pass`.
void run_adapt(const RunConfig& config, Deployment& dep,
               AdaptTraffic& traffic, double seconds, Tracer& tracer,
               AdaptPass& pass);
void report_adapt(const AdaptPass& pass, Report& report);
/// After the last swap: the daemon answers the probe set like an
/// in-process rebuild_refreshed of every staged batch.
void check_adapt_final(Deployment& dep, const AdaptTraffic& traffic,
                       Report& report);

// ---- traced run -----------------------------------------------------------

/// In-process serving cost of one request, for the round-trip overhead.
struct LayerTimes {
  double frames_query_us = 0.0;  // batch of kFrameBatch
  double adapt_query_us = 0.0;   // batch of 1
};

/// In-process replays of each phase's calls into nn, absint, core, bdd,
/// compile, io and serve, under spans; reports the per-layer metrics.
[[nodiscard]] LayerTimes trace_layers(Deployment& dep, const FramesTraffic& frames,
                  const AdaptTraffic& adapt, Report& report, Tracer& tracer);

}  // namespace perfbench
