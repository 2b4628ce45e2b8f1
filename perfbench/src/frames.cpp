// frames: an open-loop camera feed into the compiled digit monitor.
//
// Frames are due at a fixed rate (kFrameRatePerS), alternating over two
// connections; each is timed from its due time, so a reply that waited
// behind an earlier one carries that wait. A closed-loop saturation
// window on the same connections then gives the throughput.
#include <algorithm>
#include <memory>
#include <thread>

#include "core/monitor_builder.hpp"
#include "data/digits.hpp"
#include "phases.hpp"
#include "util/rng.hpp"

namespace perfbench {

using ranm::Tensor;

namespace {

constexpr std::size_t kConnections = 2;
constexpr std::size_t kFrameRequests = 64;

/// A connection that reconnects after a transport failure or timeout.
struct Connection {
  std::string socket;
  std::unique_ptr<WireClient> client;

  Outcome query(std::span<const Tensor> inputs,
                std::vector<std::uint8_t>& warns) {
    if (!client || !client->alive()) {
      try {
        client = std::make_unique<WireClient>(socket);
      } catch (const std::exception&) {
        return Outcome::kError;
      }
    }
    return client->query(inputs, warns, kQueryTimeoutS);
  }
};

/// Per-connection results of the open loop and the saturation window.
struct ConnResult {
  PhaseCounts open;
  PhaseCounts saturation;
  std::uint64_t due = 0;
  std::uint64_t on_time = 0;
  std::vector<double> latency_ms;
  std::vector<std::size_t> latency_window;
  std::vector<std::size_t> due_window;
  std::vector<std::size_t> on_time_window;
  std::vector<double> late_ms;
  std::uint64_t saturation_samples = 0;
  std::vector<double> done_s;  // completion offsets of correct replies
  std::vector<double> rtt_us;  // open loop, send -> reply
};

/// Frames per open-loop window (2 s); a shorter open loop is one window.
/// The median and the on-time share are taken per window, the p99 over
/// the whole run.
constexpr std::size_t kFramesPerWindow = 600;
/// Length of one saturation window; a shorter saturation phase is one
/// window.
constexpr double kSaturationWindowS = 0.5;

Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

FramesTraffic make_frames_traffic(const RunConfig& config, DigitModel& model,
                                  Report& report) {
  FramesTraffic t;
  ranm::Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 1);
  // Nominal traffic is the held-out in-distribution split alone, so its
  // warnings are the monitor's false positives. Drift traffic has the
  // composition of the repository's digit evaluation set (eval/experiment:
  // test_samples clean digits and ood_samples of each shifted variant).
  const ranm::DigitLabConfig& eval_set = model.setup.config;
  const double nominal_share =
      config.mix == Mix::kNominal
          ? 1.0
          : double(eval_set.test_samples) /
                double(eval_set.test_samples +
                       model.setup.ood.size() * eval_set.ood_samples);
  const ranm::DigitVariant shifted[] = {ranm::DigitVariant::kLetters,
                                        ranm::DigitVariant::kInverted,
                                        ranm::DigitVariant::kNoisy};
  t.images.reserve(kFrameRequests * kFrameBatch);
  for (std::size_t i = 0; i < kFrameRequests * kFrameBatch; ++i) {
    const ranm::DigitVariant variant =
        rng.uniform() < nominal_share ? ranm::DigitVariant::kNominal
                                      : shifted[rng.next_u64() % 3];
    t.images.push_back(
        ranm::render_digit(model.setup.config.digit, variant, rng));
  }

  // Reference verdicts from the uncompiled source monitor, and the
  // compiled monitor checked against it on the whole pool.
  ranm::MonitorBuilder builder(model.setup.net, DigitModel::kLayer);
  const std::size_t n = t.images.size();
  std::unique_ptr<bool[]> source(new bool[n]);
  builder.warns_batch(*model.monitor, t.images, {source.get(), n});
  std::unique_ptr<bool[]> compiled(new bool[n]);
  builder.warns_batch(*model.compiled, t.images, {compiled.get(), n});
  std::size_t warned = 0;
  bool same = true;
  for (std::size_t i = 0; i < n; ++i) {
    warned += source[i] ? 1 : 0;
    same = same && source[i] == compiled[i];
  }
  report.check("frames: compiled monitor == source monitor on the pool",
               same);
  report.note(format("frames: %zu images, %zu requests of %zu, "
                     "%.1f%% clean digits",
                     n, kFrameRequests, kFrameBatch, 100.0 * nominal_share));
  report.info("frames.warn_frac", double(warned) / double(n), "ratio", n);
  for (std::size_t r = 0; r < kFrameRequests; ++r) {
    std::vector<std::uint8_t> ref(kFrameBatch);
    for (std::size_t j = 0; j < kFrameBatch; ++j) {
      ref[j] = source[r * kFrameBatch + j] ? 1 : 0;
    }
    t.reference.push_back(std::move(ref));
  }
  return t;
}

void run_frames(const RunConfig& config, Deployment& dep,
                const FramesTraffic& traffic, double open_s,
                double saturation_s, Tracer& tracer, FramesPass& pass) {
  Daemon& daemon = *dep.frames_daemon;
  std::vector<Connection> conns(kConnections);
  for (Connection& c : conns) {
    c.socket = daemon.socket_path();
    c.client = std::make_unique<WireClient>(c.socket);
  }
  std::vector<ConnResult> results(kConnections);
  std::vector<SpanLog*> logs;
  for (std::size_t c = 0; c < kConnections; ++c) logs.push_back(tracer.new_log());

  // Warm-up, unmeasured: every request once per connection.
  for (std::size_t c = 0; c < kConnections; ++c) {
    std::vector<std::uint8_t> warns;
    for (std::size_t r = 0; r < traffic.requests(); ++r) {
      (void)conns[c].query(traffic.request(r), warns);
    }
  }

  // ---- open loop: frame i is due at t0 + i / rate on connection i % 2.
  const Clock::duration period = secs(1.0 / kFrameRatePerS);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point open_end = t0 + secs(open_s);
  const std::size_t open_windows = std::max<std::size_t>(
      1, std::size_t(open_s * kFrameRatePerS) / kFramesPerWindow);
  const double frames_per_window = open_s * kFrameRatePerS / double(open_windows);
  const auto window_of = [&](std::uint64_t i) {
    return std::min(open_windows - 1, std::size_t(double(i) / frames_per_window));
  };
  PhaseThreads threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.spawn([&, c] {
      ConnResult& res = results[c];
      std::vector<std::uint8_t> warns;
      Clock::time_point ready = t0;  // when the previous reply came back
      for (std::uint64_t i = c;; i += kConnections) {
        const Clock::time_point due = t0 + period * std::int64_t(i);
        if (due >= open_end) break;
        ++res.due;
        res.due_window.push_back(window_of(i));
        if (Clock::now() < due) std::this_thread::sleep_until(due);
        const Clock::time_point send = Clock::now();
        res.late_ms.push_back(ms_between(std::max(due, ready), send));
        Outcome outcome;
        {
          ScopedSpan span(logs[c], "frames.request", i + 1);
          outcome = conns[c].query(traffic.request(i), warns);
        }
        ready = Clock::now();
        if (outcome == Outcome::kOk) {
          res.rtt_us.push_back(ms_between(send, ready) * 1e3);
        }
        const bool ok = res.open.record(
            outcome, warns == traffic.reference[i % traffic.requests()]);
        if (outcome == Outcome::kOk) {
          const double latency = ms_between(due, ready);
          res.latency_ms.push_back(latency);
          res.latency_window.push_back(window_of(i));
          if (ok && latency <= kFrameDeadlineMs) {
            ++res.on_time;
            res.on_time_window.push_back(window_of(i));
          }
        }
      }
    });
  }
  // kStats costs the event loop real time (it describes the monitor), so
  // only traced runs poll it.
  if (config.trace) {
    pass.polls.merge(poll_stats(daemon.socket_path(), open_end, kStatsPeriodS));
  }
  threads.join();

  // ---- saturation: closed loop on the same connections.
  const DaemonCpu cpu_before = daemon.cpu();
  const Clock::time_point sat_start = Clock::now();
  const Clock::time_point sat_end = sat_start + secs(saturation_s);
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.spawn([&, c] {
      ConnResult& res = results[c];
      std::vector<std::uint8_t> warns;
      for (std::uint64_t i = c; Clock::now() < sat_end; i += kConnections) {
        const Outcome outcome = conns[c].query(traffic.request(i), warns);
        if (res.saturation.record(
                outcome, warns == traffic.reference[i % traffic.requests()])) {
          res.saturation_samples += kFrameBatch;
          res.done_s.push_back(seconds_between(sat_start, Clock::now()));
        }
      }
    });
  }
  threads.join();
  const double sat_wall = seconds_between(sat_start, Clock::now());
  pass.busy.merge(busy_between(daemon.pid(), cpu_before, daemon.cpu(),
                               sat_wall));

  const std::size_t first_open = pass.window_latency_ms.size();
  const std::size_t first_sat = pass.window_samples_per_s.size();
  const std::size_t sat_windows = std::max<std::size_t>(
      1, std::size_t(saturation_s / kSaturationWindowS));
  const double sat_window_s = saturation_s / double(sat_windows);
  std::vector<double> window_due(open_windows, 0.0);
  std::vector<double> window_on_time(open_windows, 0.0);
  pass.window_latency_ms.resize(first_open + open_windows);
  pass.window_samples_per_s.resize(first_sat + sat_windows, 0.0);
  for (const ConnResult& res : results) {
    for (std::size_t w : res.due_window) window_due[w] += 1.0;
    for (std::size_t w : res.on_time_window) window_on_time[w] += 1.0;
    for (std::size_t j = 0; j < res.latency_ms.size(); ++j) {
      pass.window_latency_ms[first_open + res.latency_window[j]].push_back(
          res.latency_ms[j]);
    }
    for (double t : res.done_s) {
      // Replies after the window's end belong to its last slice.
      const std::size_t w = std::min(sat_windows - 1, std::size_t(t / sat_window_s));
      pass.window_samples_per_s[first_sat + w] +=
          double(kFrameBatch) / sat_window_s;
    }
    pass.open.merge(res.open);
    pass.saturation.merge(res.saturation);
    pass.due += res.due;
    pass.on_time += res.on_time;
    pass.latency_ms.insert(pass.latency_ms.end(), res.latency_ms.begin(),
                           res.latency_ms.end());
    pass.generator_late_ms.insert(pass.generator_late_ms.end(),
                                  res.late_ms.begin(), res.late_ms.end());
    pass.rtt_us.insert(pass.rtt_us.end(), res.rtt_us.begin(),
                       res.rtt_us.end());
    pass.saturation_samples += res.saturation_samples;
  }
  for (std::size_t w = 0; w < open_windows; ++w) {
    pass.window_on_time_frac.push_back(
        window_due[w] > 0.0 ? window_on_time[w] / window_due[w] : 0.0);
  }
  pass.rss_bytes = std::max(pass.rss_bytes, daemon.peak_rss_bytes());
}

void report_frames(const FramesPass& pass, Report& report) {
  report.phase(pass.open);
  report.phase(pass.saturation);
  report.windowed_metric("frames.on_time_frac",
                         windowed_values(pass.window_on_time_frac, pass.due),
                         "ratio");
  report.metric("frames.daemon_rss_mb", pass.rss_bytes / 1e6, "MB", 1);
  // Too unsteady on a shared machine to gate (see README): printed only.
  report.info("frames.daemon_cpu_us_per_sample",
              pass.busy.cpu_s * 1e6 / double(pass.saturation_samples), "us",
              pass.saturation_samples);
  report.info_windowed("frames.latency_p50_ms",
                       windowed_quantile(pass.window_latency_ms, 0.50), "ms");
  report.info_quantile("frames.latency_p99_ms", pass.latency_ms, 0.99, "ms");
  report.info_windowed("frames.throughput_samples_per_s",
                       windowed_values(pass.window_samples_per_s,
                                       pass.saturation_samples),
                       "samples/s");


  report.info_quantile("frames.generator_late_p99_ms", pass.generator_late_ms,
                       0.99, "ms");
  report.info("frames.offered_rate_per_s", kFrameRatePerS, "frames/s",
              pass.due);
  report.info("frames.deadline_ms", kFrameDeadlineMs, "ms", pass.due);
  report.info("frames.saturation_loop_busy_frac", pass.busy.loop, "ratio", 1);
  report.info("frames.saturation_worker_busy_frac", pass.busy.worker_mean,
              "ratio", pass.busy.workers);
  report.info("frames.open_queue_depth_mean", pass.polls.queue_depth_mean,
              "requests", pass.polls.polls);
}

}  // namespace perfbench
