// perfbench_loadgen — the ranm benchmark's load generator.
//
//   perfbench_loadgen --workload nominal|drift --seed N --seconds S
//                     --trace 0|1 --serve PATH/ranm_serve --work DIR
//
// One process drives every phase of a run against real `ranm_serve`
// children (see phases.hpp): set-up (three times, median reported), then
// frames, robust_build and adapt_swap in turn, twelve rounds of each. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it runs each
// served phase once with client spans, replays every layer in process
// under spans, and reports the per-layer metrics. The last stdout line is
// the JSON result; the exit status is non-zero when any check or
// operation failed.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "phases.hpp"

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 3;
/// Turns each phase takes in an untraced run. More turns sample a shared
/// machine at more points of the run: against six, twelve cut the
/// run-to-run spread of most figures by a third to a half in six
/// interleaved pairs of runs on a 4-vCPU guest.
constexpr std::size_t kRounds = 12;

[[noreturn]] void usage(const char* what) {
  std::fprintf(stderr,
               "perfbench_loadgen: %s\n"
               "usage: perfbench_loadgen --workload nominal|drift --seed N "
               "--seconds S --trace 0|1 --serve PATH --work DIR\n",
               what);
  std::exit(2);
}

struct Args {
  RunConfig config;
  std::string work_dir;
};

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      if (value == "nominal") {
        args.config.mix = Mix::kNominal;
      } else if (value == "drift") {
        args.config.mix = Mix::kDrift;
      } else {
        usage(("unknown workload " + value).c_str());
      }
      have_workload = true;
    } else if (key == "--seed") {
      args.config.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.config.seconds = std::stod(value);
      if (!(args.config.seconds > 0.0)) usage("--seconds must be positive");
    } else if (key == "--trace") {
      args.config.trace = value == "1";
    } else if (key == "--serve") {
      args.config.serve_bin = value;
    } else if (key == "--work") {
      args.work_dir = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload || args.config.serve_bin.empty() ||
      args.work_dir.empty()) {
    usage("--workload, --serve and --work are required");
  }
  return args;
}

int run(const Args& args) {
  const RunConfig& config = args.config;
  if (::chdir(args.work_dir.c_str()) != 0) {
    throw std::runtime_error("cannot enter " + args.work_dir);
  }
  Report report;
  Tracer tracer(config.trace);

  // ---- set-up, repeated; the last one serves the run.
  const std::size_t repeats = config.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  std::string first_net;
  std::string first_monitor;
  for (std::size_t r = 0; r < repeats; ++r) {
    dep.reset();  // stops the previous set-up's daemons
    dep = set_up(config);
    setup_s.push_back(dep->seconds);
    report.note(format("setup %zu: %.3f s (train %.3f, artifacts %.3f, "
                       "daemons %.3f)",
                       r + 1, dep->seconds, dep->train_seconds,
                       dep->artifact_seconds, dep->daemon_seconds));
    if (r == 0) {
      first_net = dep->digits.net_bytes;
      first_monitor = dep->digits.compiled_bytes + dep->mlp.monitor_bytes;
    }
    report.check("setup: every set-up writes the same artifacts",
                 dep->digits.net_bytes == first_net &&
                     dep->digits.compiled_bytes + dep->mlp.monitor_bytes ==
                         first_monitor);
  }
  report.check(format("setup: digit monitor stores the recorded set "
                      "(%zu BDD nodes, recorded %zu)",
                      dep->digits.monitor->bdd_node_count(), kIntervalNodes),
               dep->digits.monitor->bdd_node_count() == kIntervalNodes);
  if (config.trace) {
    report.info("setup_s", median(setup_s), "s", setup_s.size());
  } else {
    report.metric("setup_s", median(setup_s), "s", setup_s.size());
  }

  const PhaseBudget budget = phase_budget(config.seconds);
  FramesTraffic frames = make_frames_traffic(config, dep->digits, report);
  AdaptTraffic adapt = make_adapt_traffic(config, dep->mlp);

  if (!config.trace) {
    // The phases take turns in kRounds rounds, so that every phase's
    // figures sample the shared machine across the whole run.
    FramesPass fp;
    BuildPass bp;
    AdaptPass ap;
    const double share = 1.0 / double(kRounds);
    for (std::size_t r = 0; r < kRounds; ++r) {
      run_frames(config, *dep, frames, budget.frames_open * share,
                 budget.frames_saturation * share, tracer, fp);
      run_robust_build(*dep, (kMinBuildIterations + kRounds - 1) / kRounds,
                       budget.robust_build * share, bp);
      run_adapt(config, *dep, adapt, budget.adapt_swap * share, tracer, ap);
    }
    report_frames(fp, report);
    check_robust_build(config, *dep, bp, report);
    report_adapt(ap, report);
    check_adapt_final(*dep, adapt, report);
    return report.finish();
  }

  // ---- traced run: one pass of each served phase with client spans and
  // kStats polling, then the in-process replays.
  FramesPass fp;
  AdaptPass ap;
  run_frames(config, *dep, frames, budget.frames_open,
             budget.frames_saturation, tracer, fp);
  run_adapt(config, *dep, adapt, budget.adapt_swap, tracer, ap);
  check_adapt_final(*dep, adapt, report);
  report.phase(fp.open);
  report.phase(fp.saturation);
  report.phase(ap.queries);
  report.phase(ap.control);

  const LayerTimes times = trace_layers(*dep, frames, adapt, report, tracer);

  const Quantile frames_rtt = quantile(fp.rtt_us, 0.5);
  report.metric("frames.serve.rtt_overhead_us",
                frames_rtt.value - times.frames_query_us, "us",
                frames_rtt.samples);
  report.metric("frames.serve.loop_busy_frac", fp.busy.loop, "ratio", 1);
  report.metric("frames.serve.worker_busy_frac", fp.busy.worker_mean, "ratio",
                fp.busy.workers);
  report.metric("frames.serve.queue_depth_mean", fp.polls.queue_depth_mean,
                "requests", fp.polls.polls);
  report.metric("frames.serve.overloaded", double(fp.polls.last.overloaded),
                "count", fp.polls.polls);

  std::vector<double> adapt_us = ap.latency_ms;
  for (double& v : adapt_us) v *= 1e3;
  const Quantile adapt_rtt = quantile(adapt_us, 0.5);
  report.metric("adapt_swap.serve.rtt_overhead_us",
                adapt_rtt.value - times.adapt_query_us, "us",
                adapt_rtt.samples);
  report.metric("adapt_swap.serve.loop_busy_frac", ap.busy.loop, "ratio", 1);
  report.metric("adapt_swap.serve.worker_busy_frac", ap.busy.worker_mean,
                "ratio", ap.busy.workers);
  report.metric("adapt_swap.serve.queue_depth_mean", ap.polls.queue_depth_mean,
                "requests", ap.polls.polls);
  report.metric("adapt_swap.serve.overloaded",
                double(ap.polls.last.overloaded), "count", ap.polls.polls);
  report.metric("trace.spans", double(tracer.span_count()), "count", 1);
  // Per-worker lifetime counters from the last kStats poll: an idle
  // replica shows here.
  for (const auto& [phase, polls] :
       {std::pair{"frames", &fp.polls}, std::pair{"adapt_swap", &ap.polls}}) {
    for (std::size_t w = 0; w < polls->last.workers.size(); ++w) {
      report.info(format("%s.serve.worker%zu_queries", phase, w),
                  double(polls->last.workers[w].queries), "count",
                  polls->polls);
    }
  }
  tracer.write_json("trace.json");
  report.note("spans written to trace.json in the run directory");
  return report.finish();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", e.what());
    return 3;
  }
}
