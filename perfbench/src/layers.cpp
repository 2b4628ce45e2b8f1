// The traced run's in-process replays. The daemon cannot be spanned from
// outside, so each phase's work is replayed here through the same public
// calls the daemon and the build pipeline make, one span per call:
//
//   frames      decode_query -> forward_batch -> per-layer forward ->
//               warn_batch (compiled and interpreted) -> encode_verdicts
//   robust_build estimate_batch -> observe_bounds_batch (per chunk) ->
//               compile_monitor -> save_any_monitor -> load_any_monitor
//   adapt_swap  decode_query -> forward_batch -> warn_batch ->
//               encode_verdicts; rebuild_refreshed, adopt, clone
//
// plus MonitorService::query_warns_into for the in-process serving cost.
#include <algorithm>
#include <cctype>
#include <memory>
#include <sstream>

#include "compile/lower.hpp"
#include "core/monitor_builder.hpp"
#include "core/onoff_monitor.hpp"
#include "io/serialize.hpp"
#include "phases.hpp"
#include "serve/monitor_service.hpp"

namespace perfbench {

using ranm::Tensor;
namespace serve = ranm::serve;

namespace {

constexpr std::size_t kFrameRounds = 8;  // x 64 requests of 8 frames
constexpr std::size_t kAdaptRounds = 4;  // x 512 single queries
constexpr std::size_t kBuildRounds = 2;
constexpr std::size_t kSwapRounds = 8;

// Span names must outlive the tracer; one per network layer.
constexpr const char* kLayerSpans[] = {
    "nn.layer1", "nn.layer2", "nn.layer3", "nn.layer4",
    "nn.layer5", "nn.layer6", "nn.layer7", "nn.layer8"};

/// "Conv2D(1x16x16->...)" -> "conv2d".
std::string layer_kind(const std::string& name) {
  std::string kind;
  for (char ch : name) {
    if (ch == '(') break;
    kind += char(std::tolower(static_cast<unsigned char>(ch)));
  }
  return kind;
}

struct Totals {
  explicit Totals(const Tracer& tracer) : map(tracer.totals()) {}
  /// Mean span duration per `unit` (samples or calls).
  [[nodiscard]] double per(const std::string& span, double units) const {
    const auto it = map.find(span);
    return it == map.end() || units <= 0.0 ? 0.0 : it->second.total_us / units;
  }
  [[nodiscard]] double self_per_call(const std::string& span) const {
    const auto it = map.find(span);
    return it == map.end() || it->second.count == 0
               ? 0.0
               : it->second.self_us / double(it->second.count);
  }
  std::map<std::string, SpanTotals> map;
};

std::unique_ptr<ranm::Monitor> load_monitor(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return ranm::load_any_monitor(in);
}

std::vector<std::uint8_t> to_bytes(const std::unique_ptr<bool[]>& flags,
                                   std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = flags[i] ? 1 : 0;
  return out;
}

/// Runs `rounds` pairs of one untraced and one traced pass, back to back
/// (in alternating order), and returns each pair's traced / untraced wall
/// time - 1: the cost of the spans, measured where it is paid.
template <typename Pass>
std::vector<double> interleave_rounds(std::size_t rounds, const Pass& pass,
                                      SpanLog* log) {
  const auto timed = [&](SpanLog* span_log) {
    const Clock::time_point t = Clock::now();
    pass(span_log);
    return seconds_between(t, Clock::now());
  };
  std::vector<double> overhead;
  for (std::size_t round = 0; round < rounds; ++round) {
    double untraced_s = 0.0;
    double traced_s = 0.0;
    if (round % 2 == 0) {
      untraced_s = timed(nullptr);
      traced_s = timed(log);
    } else {
      traced_s = timed(log);
      untraced_s = timed(nullptr);
    }
    overhead.push_back(traced_s / untraced_s - 1.0);
  }
  return overhead;
}

}  // namespace

LayerTimes trace_layers(Deployment& dep, const FramesTraffic& frames,
                        const AdaptTraffic& adapt, Report& report,
                        Tracer& tracer) {
  SpanLog* log = tracer.new_log();
  PhaseCounts counts{"trace.replays"};
  LayerTimes times;
  std::string payload;
  std::string reply;
  std::vector<std::uint8_t> warns;

  // ---- frames -------------------------------------------------------------
  DigitModel& dm = dep.digits;
  ranm::Network net = copy_network(dm.net_bytes);
  const std::size_t k = DigitModel::kLayer;
  std::unique_ptr<bool[]> compiled_out(new bool[kFrameBatch]);
  std::unique_ptr<bool[]> source_out(new bool[kFrameBatch]);
  std::uint64_t request_id = 0;
  // One round of request replays; `log` is null in the untraced rounds.
  const auto replay_frames = [&](SpanLog* log) {
    for (std::size_t r = 0; r < frames.requests(); ++r) {
      serve::encode_query_into(payload, frames.request(r));
      ScopedSpan request(log, "frames.replay", ++request_id);
      std::vector<Tensor> inputs;
      {
        ScopedSpan s(log, "frames.serve.decode_query");
        inputs = serve::decode_query(payload);
      }
      ranm::FeatureBatch features;
      {
        ScopedSpan s(log, "frames.nn.forward_batch");
        features = net.forward_batch(k, inputs);
      }
      std::vector<Tensor> acts = inputs;
      for (std::size_t l = 1; l <= k; ++l) {
        ScopedSpan s(log, kLayerSpans[l - 1]);
        for (Tensor& a : acts) a = net.layer(l).forward(a);
      }
      {
        ScopedSpan s(log, "frames.compile.warn_batch");
        dm.compiled->warn_batch(features, {compiled_out.get(), kFrameBatch});
      }
      {
        ScopedSpan s(log, "frames.core.warn_batch");
        dm.monitor->warn_batch(features, {source_out.get(), kFrameBatch});
      }
      warns = to_bytes(compiled_out, kFrameBatch);
      {
        ScopedSpan s(log, "frames.serve.encode_verdicts");
        serve::encode_verdicts_into(reply, warns);
      }
      bool same = warns == frames.reference[r] &&
                  to_bytes(source_out, kFrameBatch) == frames.reference[r];
      for (std::size_t i = 0; i < kFrameBatch; ++i) {
        const auto column = features.sample(i);
        same = same && std::equal(column.begin(), column.end(),
                                  acts[i].span().begin());
      }
      ++counts.attempted;
      ++(same ? counts.succeeded : counts.mismatches);
    }
  };
  const std::vector<double> frames_overhead =
      interleave_rounds(kFrameRounds, replay_frames, log);
  {
    serve::MonitorService service(copy_network(dm.net_bytes),
                                  load_monitor(dm.compiled_bytes), k);
    for (std::size_t round = 0; round < kFrameRounds; ++round) {
      for (std::size_t r = 0; r < frames.requests(); ++r) {
        ScopedSpan s(log, "frames.serve.query_warns_into");
        service.query_warns_into(frames.request(r), warns);
      }
    }
  }

  // ---- robust_build ---------------------------------------------------------
  const std::vector<Tensor>& train = dm.setup.train.inputs;
  const ranm::PerturbationEstimator estimator(dm.setup.net, k, dm.spec());
  std::size_t interval_nodes = 0;
  std::size_t onoff_nodes = 0;
  for (std::size_t round = 0; round < kBuildRounds; ++round) {
    ScopedSpan replay(log, "robust_build.replay", ++request_id);
    ranm::IntervalMonitor interval(*dm.interval_spec);
    ranm::OnOffMonitor onoff(*dm.onoff_spec);
    for (std::size_t start = 0; start < train.size();
         start += ranm::MonitorBuilder::kDefaultBatch) {
      const std::size_t n =
          std::min(ranm::MonitorBuilder::kDefaultBatch, train.size() - start);
      ranm::BoxBatch bounds;
      {
        ScopedSpan s(log, "robust_build.absint.estimate_batch");
        bounds = estimator.estimate_batch({train.data() + start, n});
      }
      {
        ScopedSpan s(log, "robust_build.core.observe_bounds_interval");
        interval.observe_bounds_batch(bounds.lower(), bounds.upper());
      }
      {
        ScopedSpan s(log, "robust_build.core.observe_bounds_onoff");
        onoff.observe_bounds_batch(bounds.lower(), bounds.upper());
      }
    }
    interval_nodes = interval.bdd_node_count();
    onoff_nodes = onoff.bdd_node_count();
    std::vector<std::unique_ptr<ranm::compile::CompiledMonitor>> lowered;
    {
      ScopedSpan s(log, "robust_build.compile.compile_monitor");
      lowered.push_back(std::make_unique<ranm::compile::CompiledMonitor>(
          ranm::compile::compile_monitor(onoff)));
      lowered.push_back(std::make_unique<ranm::compile::CompiledMonitor>(
          ranm::compile::compile_monitor(interval)));
    }
    const ranm::Monitor* all[] = {&onoff, &interval, lowered[0].get(),
                                  lowered[1].get()};
    std::vector<std::string> bytes;
    {
      ScopedSpan s(log, "robust_build.io.save_any_monitor");
      for (const ranm::Monitor* m : all) {
        std::ostringstream out(std::ios::binary);
        ranm::save_any_monitor(out, *m);
        bytes.push_back(out.str());
      }
    }
    {
      ScopedSpan s(log, "robust_build.io.load_any_monitor");
      for (const std::string& b : bytes) (void)load_monitor(b);
    }
    ++counts.attempted;
    ++(interval_nodes == kIntervalNodes && onoff_nodes == kOnOffNodes
           ? counts.succeeded
           : counts.mismatches);
  }

  // ---- adapt_swap ---------------------------------------------------------
  MlpModel& mm = dep.mlp;
  ranm::Network mlp = copy_network(mm.net_bytes);
  const std::unique_ptr<ranm::Monitor> mlp_monitor = load_monitor(mm.monitor_bytes);
  bool flag[1];
  const auto replay_queries = [&](SpanLog* log) {
    for (std::size_t q = 0; q < adapt.queries.size(); ++q) {
      serve::encode_query_into(payload, {&adapt.queries[q], 1});
      ScopedSpan request(log, "adapt_swap.replay", ++request_id);
      std::vector<Tensor> inputs;
      {
        ScopedSpan s(log, "adapt_swap.serve.decode_query");
        inputs = serve::decode_query(payload);
      }
      ranm::FeatureBatch features;
      {
        ScopedSpan s(log, "adapt_swap.nn.forward_batch");
        features = mlp.forward_batch(MlpModel::kLayer, inputs);
      }
      {
        ScopedSpan s(log, "adapt_swap.core.warn_batch");
        mlp_monitor->warn_batch(features, {flag, 1});
      }
      warns.assign(1, flag[0] ? 1 : 0);
      {
        ScopedSpan s(log, "adapt_swap.serve.encode_verdicts");
        serve::encode_verdicts_into(reply, warns);
      }
      ++counts.attempted;
      ++(!adapt.must_pass[q] || !flag[0] ? counts.succeeded : counts.mismatches);
    }
  };
  const std::vector<double> adapt_overhead =
      interleave_rounds(kAdaptRounds, replay_queries, log);
  {
    serve::MonitorService service(copy_network(mm.net_bytes),
                                  load_monitor(mm.monitor_bytes),
                                  MlpModel::kLayer);
    for (std::size_t round = 0; round < kAdaptRounds; ++round) {
      for (const Tensor& q : adapt.queries) {
        ScopedSpan s(log, "adapt_swap.serve.query_warns_into");
        service.query_warns_into({&q, 1}, warns);
      }
    }
    {
      ScopedSpan s(log, "adapt_swap.io.load_any_monitor");
      (void)load_monitor(mm.monitor_bytes);
    }
    for (std::size_t round = 0; round < kSwapRounds; ++round) {
      (void)service.observe_batch(adapt.observe_batches[round]);
      std::uint64_t applied = 0;
      std::string bytes;
      {
        ScopedSpan s(log, "serve.rebuild_refreshed");
        bytes = service.rebuild_refreshed(applied);
      }
      {
        ScopedSpan s(log, "serve.adopt");
        service.adopt(bytes);
      }
      (void)service.commit_swap(std::move(bytes), applied, 0);
      {
        ScopedSpan s(log, "serve.clone");
        (void)service.clone();
      }
    }
  }
  report.phase(counts);
  report.check("trace: replays agree with the reference verdicts, the "
               "daemon's forward pass and the recorded node counts",
               counts.failed() == 0);

  // ---- per-layer metrics ----------------------------------------------------
  const Totals t(tracer);
  const double frame_samples =
      double(kFrameRounds * frames.requests() * kFrameBatch);
  const double frame_requests = double(kFrameRounds * frames.requests());
  const auto n_frames = std::size_t(frame_samples);
  report.metric("nn.forward_us_per_sample",
                t.per("frames.nn.forward_batch", frame_samples), "us", n_frames);
  for (std::size_t l = 1; l <= k; ++l) {
    report.metric(format("nn.layer%zu.%s_us_per_sample", l,
                         layer_kind(net.layer(l).name()).c_str()),
                  t.per(kLayerSpans[l - 1], frame_samples), "us", n_frames);
  }
  report.metric("core.warn_us_per_sample",
                t.per("frames.core.warn_batch", frame_samples), "us", n_frames);
  report.metric("compile.warn_us_per_sample",
                t.per("frames.compile.warn_batch", frame_samples), "us",
                n_frames);
  report.metric("serve.decode_query_us",
                t.per("frames.serve.decode_query", frame_requests), "us",
                std::size_t(frame_requests));
  report.metric("serve.encode_verdicts_us",
                t.per("frames.serve.encode_verdicts", frame_requests), "us",
                std::size_t(frame_requests));
  times.frames_query_us =
      t.per("frames.serve.query_warns_into", frame_requests);
  report.metric("frames.serve.query_us", times.frames_query_us, "us",
                std::size_t(frame_requests));
  report.metric("frames.replay_self_us", t.self_per_call("frames.replay"),
                "us", std::size_t(frame_requests));

  const double train_n = double(kBuildRounds * train.size());
  report.metric("absint.estimate_us_per_sample",
                t.per("robust_build.absint.estimate_batch", train_n), "us",
                std::size_t(train_n));
  report.metric("core.observe_bounds_us_per_sample",
                t.per("robust_build.core.observe_bounds_interval", train_n),
                "us", std::size_t(train_n));
  report.metric("core.observe_bounds_onoff_us_per_sample",
                t.per("robust_build.core.observe_bounds_onoff", train_n), "us",
                std::size_t(train_n));
  report.metric("bdd.interval_nodes", double(interval_nodes), "count", 1);
  report.metric("bdd.onoff_nodes", double(onoff_nodes), "count", 1);
  report.metric("compile.lower_s",
                t.per("robust_build.compile.compile_monitor", kBuildRounds) / 1e6,
                "s", kBuildRounds);
  report.metric("io.save_monitor_s",
                t.per("robust_build.io.save_any_monitor", kBuildRounds) / 1e6,
                "s", kBuildRounds);
  report.metric("io.load_monitor_s",
                t.per("robust_build.io.load_any_monitor", kBuildRounds) / 1e6,
                "s", kBuildRounds);
  report.metric("robust_build.replay_self_ms",
                t.self_per_call("robust_build.replay") / 1e3, "ms",
                kBuildRounds);

  const double adapt_n = double(kAdaptRounds * adapt.queries.size());
  report.metric("adapt_swap.nn.forward_us_per_sample",
                t.per("adapt_swap.nn.forward_batch", adapt_n), "us",
                std::size_t(adapt_n));
  report.metric("adapt_swap.core.warn_us_per_sample",
                t.per("adapt_swap.core.warn_batch", adapt_n), "us",
                std::size_t(adapt_n));
  report.metric("adapt_swap.serve.decode_query_us",
                t.per("adapt_swap.serve.decode_query", adapt_n), "us",
                std::size_t(adapt_n));
  report.metric("adapt_swap.serve.encode_verdicts_us",
                t.per("adapt_swap.serve.encode_verdicts", adapt_n), "us",
                std::size_t(adapt_n));
  times.adapt_query_us = t.per("adapt_swap.serve.query_warns_into", adapt_n);
  report.metric("adapt_swap.serve.query_us", times.adapt_query_us, "us",
                std::size_t(adapt_n));
  report.metric("adapt_swap.replay_self_us",
                t.self_per_call("adapt_swap.replay"), "us",
                std::size_t(adapt_n));
  report.metric("frames.trace_overhead_frac", median(frames_overhead),
                "ratio", frames_overhead.size());
  report.metric("adapt_swap.trace_overhead_frac", median(adapt_overhead),
                "ratio", adapt_overhead.size());
  report.metric("adapt_swap.io.load_monitor_ms",
                t.per("adapt_swap.io.load_any_monitor", 1.0) / 1e3, "ms", 1);
  report.metric("bdd.adapt_nodes", double(mm.monitor->bdd_node_count()),
                "count", 1);
  report.metric("serve.rebuild_ms",
                t.per("serve.rebuild_refreshed", kSwapRounds) / 1e3, "ms",
                kSwapRounds);
  report.metric("serve.adopt_ms", t.per("serve.adopt", kSwapRounds) / 1e3,
                "ms", kSwapRounds);
  report.metric("serve.clone_ms", t.per("serve.clone", kSwapRounds) / 1e3,
                "ms", kSwapRounds);

  // Self time of every span name, replays and served phases alike.
  for (const auto& [name, totals] : t.map) {
    report.note(format("span   %-44s calls=%-8llu total_ms=%-12.3f "
                       "self_ms=%.3f",
                       name.c_str(), (unsigned long long)totals.count,
                       totals.total_us / 1e3, totals.self_us / 1e3));
  }
  return times;
}

}  // namespace perfbench
