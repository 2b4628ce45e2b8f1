// adapt_swap: queries beside writes on the serving MLP.
//
// Two connections send batch-1 queries back to back; a third, every
// kSwapPeriodS, streams one observe batch of kObserveBatch inputs and then
// asks for a swap (background rebuild, per-replica adopt, publish). The
// daemon serves the uncompiled interval monitor without a generation
// store, so no disk is involved.
#include <algorithm>
#include <memory>
#include <sstream>
#include <thread>

#include "data/perturb.hpp"
#include "io/serialize.hpp"
#include "phases.hpp"
#include "serve/monitor_service.hpp"
#include "util/rng.hpp"

namespace perfbench {

using ranm::Tensor;
namespace serve = ranm::serve;

namespace {

constexpr std::size_t kQueryConnections = 2;
constexpr std::size_t kQueryPool = 512;
constexpr std::size_t kProbes = 256;
/// Observe batches prepared per run: enough for a 60 s phase.
constexpr std::size_t kObserveBatches = 320;

Tensor novel_input(ranm::Rng& rng) {
  return Tensor::random_uniform({16}, rng, -3.0F, 3.0F);
}

/// A training input moved within the monitor's Δ box: by Lemma 1 the
/// robust monitor already stores its pattern, so it is never novel.
Tensor familiar_input(const MlpModel& model, ranm::Rng& rng) {
  return ranm::perturb_linf(model.train[rng.next_u64() % model.train.size()],
                            MlpModel::kDelta, rng);
}

Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

struct QueryResult {
  PhaseCounts counts;
  std::vector<double> latency_ms;
  std::vector<std::size_t> window;  // of each latency sample
};

/// Length of one query window; a shorter phase is one window.
constexpr double kQueryWindowS = 1.0;

}  // namespace

AdaptTraffic make_adapt_traffic(const RunConfig& config,
                                const MlpModel& model) {
  AdaptTraffic t;
  ranm::Rng rng(config.seed * 0xBF58476D1CE4E5B9ULL + 3);
  for (std::size_t i = 0; i < kQueryPool; ++i) {
    const bool train = i % 2 == 0;
    t.queries.push_back(train ? model.train[rng.next_u64() % model.train.size()]
                              : novel_input(rng));
    t.must_pass.push_back(train);
  }
  // Nominal: the stream stays within Δ of the training data, so swaps
  // fold no new pattern. Drift: the stream leaves the training range, so
  // swaps grow the stored set.
  for (std::size_t b = 0; b < kObserveBatches; ++b) {
    std::vector<Tensor> batch;
    for (std::size_t i = 0; i < kObserveBatch; ++i) {
      batch.push_back(config.mix == Mix::kDrift ? novel_input(rng)
                                                : familiar_input(model, rng));
    }
    t.observe_batches.push_back(std::move(batch));
  }
  for (std::size_t i = 0; i < kProbes; ++i) {
    switch (i % 3) {
      case 0:
        t.probes.push_back(novel_input(rng));
        break;
      case 1:
        t.probes.push_back(familiar_input(model, rng));
        break;
      default:
        t.probes.push_back(t.observe_batches[rng.next_u64() % 8]
                                            [rng.next_u64() % kObserveBatch]);
    }
  }
  return t;
}

void run_adapt(const RunConfig& config, Deployment& dep,
               AdaptTraffic& traffic, double seconds, Tracer& tracer,
               AdaptPass& pass) {
  Daemon& daemon = *dep.adapt_daemon;
  std::vector<std::unique_ptr<WireClient>> clients;
  for (std::size_t c = 0; c < kQueryConnections; ++c) {
    clients.push_back(std::make_unique<WireClient>(daemon.socket_path()));
  }
  WireClient control(daemon.socket_path());
  std::vector<SpanLog*> logs;
  for (std::size_t c = 0; c <= kQueryConnections; ++c) {
    logs.push_back(tracer.new_log());
  }

  // Warm-up, unmeasured.
  for (auto& client : clients) {
    std::vector<std::uint8_t> warns;
    for (std::size_t i = 0; i < 64; ++i) {
      (void)client->query({&traffic.queries[i], 1}, warns, kQueryTimeoutS);
    }
  }

  std::vector<QueryResult> results(kQueryConnections);
  const DaemonCpu cpu_before = daemon.cpu();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + secs(seconds);
  const std::size_t windows =
      std::max<std::size_t>(1, std::size_t(seconds / kQueryWindowS));
  const double window_s = seconds / double(windows);
  PhaseThreads threads;
  for (std::size_t c = 0; c < kQueryConnections; ++c) {
    threads.spawn([&, c] {
      QueryResult& res = results[c];
      std::vector<std::uint8_t> warns;
      for (std::uint64_t i = c; Clock::now() < end; i += kQueryConnections) {
        const std::size_t q = i % traffic.queries.size();
        if (!clients[c]->alive()) {
          try {
            clients[c] = std::make_unique<WireClient>(daemon.socket_path());
          } catch (const std::exception&) {
          }
        }
        const Clock::time_point send = Clock::now();
        Outcome outcome;
        {
          ScopedSpan span(logs[c], "adapt_swap.query", i + 1);
          outcome = clients[c]->query({&traffic.queries[q], 1}, warns,
                                      kQueryTimeoutS);
        }
        const Clock::time_point reply = Clock::now();
        // A training input is inside every generation's set.
        const bool correct = warns.size() == 1 &&
                             (!traffic.must_pass[q] || warns[0] == 0);
        res.counts.record(outcome, correct);
        if (outcome == Outcome::kOk) {
          res.latency_ms.push_back(ms_between(send, reply));
          res.window.push_back(std::min(
              windows - 1, std::size_t(seconds_between(start, send) / window_s)));
        }
      }
    });
  }
  // The control connection: observe + swap at a fixed period.
  threads.spawn([&] {
    SpanLog* log = logs[kQueryConnections];
    std::string payload;
    serve::Frame reply;
    Clock::time_point next = start;
    while (traffic.next_batch < traffic.observe_batches.size()) {
      // A swap that overruns its period starts the next one at once.
      std::this_thread::sleep_until(next);
      if (Clock::now() >= end) break;
      next += secs(kSwapPeriodS);
      const std::vector<Tensor>& batch =
          traffic.observe_batches[traffic.next_batch++];
      serve::encode_query_into(payload, batch);
      Clock::time_point t = Clock::now();
      Outcome outcome;
      {
        ScopedSpan span(log, "adapt_swap.observe", traffic.next_batch);
        outcome = control.round_trip(serve::FrameType::kObserve, payload,
                                     reply, kQueryTimeoutS);
      }
      bool ok = outcome == Outcome::kOk &&
                reply.type == serve::FrameType::kObserveReply;
      if (ok) {
        const serve::ObserveReply observed =
            serve::decode_observe_reply(reply.payload);
        // Lemma 1: no input within Δ of a training input is novel.
        ok = observed.accepted == kObserveBatch &&
             (config.mix == Mix::kDrift || observed.novel == 0);
        pass.observed += observed.accepted;
        pass.novel += observed.novel;
      }
      pass.control.record(outcome, ok);
      if (outcome == Outcome::kOk) pass.observe_ms.push_back(ms_between(t, Clock::now()));
      if (!ok) break;

      t = Clock::now();
      {
        ScopedSpan span(log, "adapt_swap.swap", traffic.next_batch);
        outcome = control.round_trip(serve::FrameType::kSwap, "", reply, 60.0);
      }
      const Clock::time_point done = Clock::now();
      ok = outcome == Outcome::kOk &&
           reply.type == serve::FrameType::kSwapReply;
      if (ok) {
        const serve::SwapReply swap = serve::decode_swap_reply(reply.payload);
        // Each swap folds exactly the batch staged before it and
        // publishes a new generation.
        ok = swap.staged_applied == kObserveBatch &&
             swap.generation > pass.generation;
        pass.generation = swap.generation;
        pass.swap_work_ms.push_back(double(swap.duration_us) / 1e3);
      }
      pass.control.record(outcome, ok);
      if (outcome == Outcome::kOk) pass.swap_ms.push_back(ms_between(t, done));
      if (!ok) break;
    }
  });
  if (config.trace) {
    pass.polls.merge(poll_stats(daemon.socket_path(), end, kStatsPeriodS));
  } else {
    std::this_thread::sleep_until(end);
  }
  threads.join();
  const double wall = seconds_between(start, Clock::now());
  pass.busy.merge(
      busy_between(daemon.pid(), cpu_before, daemon.cpu(), wall));

  const std::size_t first = pass.window_latency_ms.size();
  pass.window_latency_ms.resize(first + windows);
  pass.window_samples_per_s.resize(first + windows, 0.0);
  for (const QueryResult& res : results) {
    pass.queries.merge(res.counts);
    pass.latency_ms.insert(pass.latency_ms.end(), res.latency_ms.begin(),
                           res.latency_ms.end());
    for (std::size_t j = 0; j < res.latency_ms.size(); ++j) {
      pass.window_latency_ms[first + res.window[j]].push_back(
          res.latency_ms[j]);
      pass.window_samples_per_s[first + res.window[j]] += 1.0 / window_s;
    }
  }
  pass.rss_bytes = std::max(pass.rss_bytes, daemon.peak_rss_bytes());
}

void report_adapt(const AdaptPass& pass, Report& report) {
  report.phase(pass.queries);
  report.phase(pass.control);
  report.metric("adapt_swap.daemon_rss_mb", pass.rss_bytes / 1e6, "MB", 1);
  // Too unsteady on a shared machine to gate (see README): printed only.
  report.info_windowed("adapt_swap.latency_p50_ms",
                       windowed_quantile(pass.window_latency_ms, 0.50), "ms");
  report.info_windowed("adapt_swap.latency_p99_ms",
                       windowed_quantile(pass.window_latency_ms, 0.99), "ms");
  report.info_windowed("adapt_swap.throughput_samples_per_s",
                       windowed_values(pass.window_samples_per_s,
                                       pass.latency_ms.size()),
                       "samples/s");
  report.info_quantile("adapt_swap.swap_p50_ms", pass.swap_ms, 0.50, "ms");

  report.info_quantile("adapt_swap.swap_work_p50_ms", pass.swap_work_ms, 0.50,
                       "ms");
  report.info_quantile("adapt_swap.observe_p50_ms", pass.observe_ms, 0.50,
                       "ms");
  const double observed = double(std::max<std::uint64_t>(1, pass.observed));
  report.info("adapt_swap.observe_novel_frac", double(pass.novel) / observed,
              "ratio", pass.observed);
  report.info("adapt_swap.daemon_cpu_us_per_query",
              pass.busy.cpu_s * 1e6 / double(pass.latency_ms.size()), "us",
              pass.latency_ms.size());
  report.info("adapt_swap.loop_busy_frac", pass.busy.loop, "ratio", 1);
  report.info("adapt_swap.worker_busy_frac", pass.busy.worker_mean, "ratio",
              pass.busy.workers);
  report.info("adapt_swap.queue_depth_mean", pass.polls.queue_depth_mean,
              "requests", pass.polls.polls);
}

void check_adapt_final(Deployment& dep, const AdaptTraffic& traffic,
                       Report& report) {
  PhaseCounts counts{"adapt_swap.final_probe"};
  // The in-process reference: the same base artifact, every batch the
  // daemon staged, one rebuild. Set union does not depend on grouping, so
  // one rebuild equals the daemon's sequence of swaps.
  std::istringstream in(dep.mlp.monitor_bytes, std::ios::binary);
  serve::MonitorService reference(copy_network(dep.mlp.net_bytes),
                                  ranm::load_any_monitor(in), MlpModel::kLayer);
  for (std::size_t b = 0; b < traffic.next_batch; ++b) {
    (void)reference.observe_batch(traffic.observe_batches[b]);
  }
  std::uint64_t applied = 0;
  reference.adopt(reference.rebuild_refreshed(applied));
  const std::vector<std::uint8_t> expected = reference.query_warns(traffic.probes);

  WireClient client(dep.adapt_daemon->socket_path());
  std::vector<std::uint8_t> served;
  const Outcome outcome = client.query(traffic.probes, served, kQueryTimeoutS);
  counts.record(outcome, served == expected &&
                             applied == traffic.next_batch * kObserveBatch);
  report.phase(counts);
  report.check("adapt_swap: served probes == in-process rebuild after the "
               "last swap",
               counts.succeeded == 1);
}

}  // namespace perfbench
