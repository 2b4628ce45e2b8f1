#include "serve/monitor_service.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "compile/compiled_monitor.hpp"
#include "core/sharded_monitor.hpp"
#include "io/serialize.hpp"
#include "util/timer.hpp"

namespace ranm::serve {
namespace {

/// Serialised bytes of any monitor with a serialiser.
std::string monitor_bytes(const Monitor& monitor) {
  std::ostringstream buf(std::ios::binary);
  save_any_monitor(buf, monitor);
  return std::move(buf).str();
}

std::unique_ptr<Monitor> monitor_from_bytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return load_any_monitor(in);
}

/// Per-thread verdict row: every worker queries the one shared service,
/// so this scratch cannot live in the instance. Grown once per
/// high-water batch; the hot path pays no steady-state allocation.
std::span<bool> verdict_row(std::size_t n) {
  thread_local std::unique_ptr<bool[]> row;
  thread_local std::size_t capacity = 0;
  if (capacity < n) {
    row = std::make_unique<bool[]>(n);
    capacity = n;
  }
  return {row.get(), n};
}

}  // namespace

MonitorService::MonitorService(Network net,
                               std::unique_ptr<Monitor> monitor,
                               std::size_t layer_k, std::size_t threads)
    : net_(std::move(net)), k_(layer_k), threads_(threads) {
  if (monitor == nullptr) {
    throw std::invalid_argument("MonitorService: null monitor");
  }
  dim_ = net_.layer(k_).output_size();
  publish(std::move(monitor));
  // Seed the shared adaptation state with the pristine generation-1
  // bytes. Families without a serialiser — and compiled monitors, which
  // are frozen by design — run with adaptation disabled instead
  // (observe/swap/rollback throw a clear error, kStats reports
  // generation 0).
  const std::shared_ptr<const Snapshot> snap = snapshot();
  const Monitor& served = *snap->monitor;
  if (dynamic_cast<const compile::CompiledMonitor*>(&served) == nullptr) {
    try {
      std::string bytes = monitor_bytes(served);
      std::size_t shard_count = 0;
      if (const auto* sharded = dynamic_cast<const ShardedMonitor*>(&served)) {
        shard_count = sharded->shard_count();
      }
      adapt_ = std::make_shared<AdaptState>(dim_, std::move(bytes),
                                            shard_count);
    } catch (const std::invalid_argument&) {
      adapt_.reset();
    }
  }
}

MonitorService MonitorService::from_files(const std::string& net_path,
                                          const std::string& monitor_path,
                                          std::size_t layer_k,
                                          std::size_t threads) {
  Network net = load_network_file(net_path);
  std::ifstream in(monitor_path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("MonitorService: cannot open monitor " +
                             monitor_path);
  }
  return MonitorService(std::move(net), load_any_monitor(in), layer_k,
                        threads);
}

std::shared_ptr<const MonitorService::Snapshot> MonitorService::snapshot()
    const {
  MutexLock lock(snapshot_mu_);
  return snapshot_;
}

void MonitorService::publish(std::unique_ptr<Monitor> monitor) {
  if (monitor->dimension() != dim_) {
    throw std::invalid_argument(
        "MonitorService: monitor dimension " +
        std::to_string(monitor->dimension()) + " != layer " +
        std::to_string(k_) + " feature dimension " + std::to_string(dim_));
  }
  auto next = std::make_shared<Snapshot>();
  ServiceStats& stats = next->stats;
  stats.dimension = dim_;
  stats.layer = k_;
  stats.threads = threads_;
  // Thread count is a host property, not part of the artifact — applied
  // after every load, exactly as `ranm_cli eval --threads` does.
  if (auto* sharded = dynamic_cast<ShardedMonitor*>(monitor.get())) {
    sharded->set_threads(threads_);
    stats.threads = sharded->threads();
    stats.shard_strategy =
        std::string(shard_strategy_name(sharded->plan().strategy()));
    stats.shard_seed = sharded->plan().seed();
    for (const auto& s : sharded->shard_stats()) {
      ShardStatsWire wire;
      wire.neurons = s.neurons;
      wire.bdd_nodes = s.bdd_nodes;
      wire.cubes_inserted = s.cubes_inserted;
      wire.patterns = s.patterns;
      stats.shards.push_back(wire);
    }
  } else if (auto* compiled =
                 dynamic_cast<compile::CompiledMonitor*>(monitor.get())) {
    compiled->set_threads(threads_);
  }
  stats.monitor = monitor->describe();
  next->monitor = std::move(monitor);
  MutexLock lock(snapshot_mu_);
  snapshot_ = std::move(next);
}

std::unique_ptr<MonitorService> MonitorService::clone() {
  // Round-trip both artifacts through their serialisers: the same bytes a
  // deploy would ship, so the copy is bit-identical to loading the
  // artifacts fresh (the differential tests lean on this).
  std::stringstream net_buf(std::ios::in | std::ios::out |
                            std::ios::binary);
  save_network(net_buf, net_);
  net_buf.seekg(0);
  std::stringstream mon_buf(std::ios::in | std::ios::out |
                            std::ios::binary);
  save_any_monitor(mon_buf, *snapshot()->monitor);
  mon_buf.seekg(0);
  auto copy = std::make_unique<MonitorService>(
      load_network(net_buf), load_any_monitor(mon_buf), k_, threads_);
  // Both share one AdaptState: one staging pool, one generation counter,
  // one store — a swap through either of them is the swap.
  copy->adapt_ = adapt_;
  return copy;
}

void MonitorService::query_warns_into(std::span<const Tensor> inputs,
                                      std::vector<std::uint8_t>& warns) {
  warns.clear();
  if (inputs.size() > kMaxQuerySamples) {
    throw std::invalid_argument("MonitorService: batch too large");
  }
  if (inputs.empty()) {
    queries_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // RCU read side: copy the snapshot pointer, then answer the whole
  // batch against that one monitor. A concurrent adopt() swaps the
  // pointer for the *next* query — never mid-batch.
  const std::shared_ptr<const Snapshot> snap = snapshot();
  const FeatureBatch batch = net_.forward_batch(k_, inputs);
  const std::span<bool> row = verdict_row(inputs.size());
  snap->monitor->warn_batch(batch, row);
  warns.resize(inputs.size());
  std::uint64_t warned = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    warns[i] = row[i] ? 1 : 0;
    warned += warns[i];
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  samples_.fetch_add(inputs.size(), std::memory_order_relaxed);
  warnings_.fetch_add(warned, std::memory_order_relaxed);
  record_rolling(inputs.size(), warned);
}

std::vector<std::uint8_t> MonitorService::query_warns(
    std::span<const Tensor> inputs) {
  std::vector<std::uint8_t> out;
  query_warns_into(inputs, out);
  return out;
}

bool MonitorService::adaptive() const noexcept {
  if (adapt_ == nullptr) return false;
  return dynamic_cast<const compile::CompiledMonitor*>(
             snapshot()->monitor.get()) == nullptr;
}

ObserveReply MonitorService::observe_batch(std::span<const Tensor> inputs) {
  const std::shared_ptr<const Snapshot> snap = snapshot();
  const Monitor& monitor = *snap->monitor;
  if (dynamic_cast<const compile::CompiledMonitor*>(&monitor) != nullptr) {
    // Satellite bugfix: a frozen monitor must answer a structured error,
    // not let CompiledMonitor::observe's logic_error escape a worker.
    throw std::invalid_argument(
        "observe: compiled monitors are frozen — serve the source "
        "artifact to adapt online");
  }
  if (adapt_ == nullptr) {
    throw std::invalid_argument(
        "observe: this monitor family has no serialiser — online "
        "adaptation is disabled");
  }
  if (inputs.size() > kMaxQuerySamples) {
    throw std::invalid_argument("observe: batch too large");
  }
  ObserveReply reply;
  reply.accepted = inputs.size();
  if (inputs.empty()) {
    reply.staged_total = staged_samples();
    return reply;
  }
  const FeatureBatch batch = net_.forward_batch(k_, inputs);
  const std::span<bool> row = verdict_row(inputs.size());
  monitor.warn_batch(batch, row);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    reply.novel += row[i] ? 1 : 0;
  }
  // Per-shard drift: project the batch onto each shard's neuron rows and
  // count the samples outside that shard's region — one view, no copies.
  std::vector<std::uint64_t> shard_novel;
  if (const auto* sharded = dynamic_cast<const ShardedMonitor*>(&monitor)) {
    shard_novel.assign(sharded->shard_count(), 0);
    for (std::size_t s = 0; s < sharded->shard_count(); ++s) {
      const FeatureBatch view =
          batch.view_rows(sharded->plan().neurons(s));
      sharded->shard(s).contains_batch(view, row);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        shard_novel[s] += row[i] ? 0 : 1;
      }
    }
  }
  reply.staged_total = adapt_->stage(batch, shard_novel);
  return reply;
}

std::string MonitorService::rebuild_refreshed(std::uint64_t& applied) {
  if (adapt_ == nullptr) {
    throw std::invalid_argument(
        "swap: online adaptation is disabled for this monitor family");
  }
  const RebuildInput input = adapt_->rebuild_input();
  applied = input.staged_count;
  // A fresh monitor from the pristine bytes — not the live object — so
  // the rebuild shares nothing with the snapshot still answering
  // queries, and a rollback of the result is exact.
  std::unique_ptr<Monitor> refreshed =
      monitor_from_bytes(input.base_artifact);
  if (input.staged_count > 0) {
    FeatureBatch staged(dim_, std::size_t(input.staged_count));
    for (std::size_t i = 0; i < std::size_t(input.staged_count); ++i) {
      staged.set_sample(
          i, std::span<const float>(input.features.data() + i * dim_,
                                    dim_));
    }
    refreshed->observe_batch(staged);
  }
  return monitor_bytes(*refreshed);
}

void MonitorService::adopt(const std::string& bytes) {
  publish(monitor_from_bytes(bytes));
}

SwapReply MonitorService::commit_swap(std::string bytes,
                                      std::uint64_t applied,
                                      std::uint64_t duration_us) {
  SwapReply reply;
  reply.generation = adapt_->commit_swap(std::move(bytes), applied);
  reply.staged_applied = applied;
  reply.duration_us = duration_us;
  reply.monitor = monitor_description();
  return reply;
}

std::pair<std::uint64_t, std::string> MonitorService::checkout_generation(
    std::uint64_t target) const {
  if (adapt_ == nullptr) {
    throw std::invalid_argument(
        "rollback: online adaptation is disabled for this monitor family");
  }
  return adapt_->checkout(target);
}

SwapReply MonitorService::swap() {
  Timer timer;
  std::uint64_t applied = 0;
  std::string bytes = rebuild_refreshed(applied);
  adopt(bytes);
  const auto duration_us = std::uint64_t(timer.millis() * 1000.0);
  return commit_swap(std::move(bytes), applied, duration_us);
}

RollbackReply MonitorService::rollback(std::uint64_t target) {
  auto [generation, bytes] = checkout_generation(target);
  adopt(bytes);
  adapt_->commit_rollback(generation, std::move(bytes));
  RollbackReply reply;
  reply.generation = generation;
  reply.monitor = monitor_description();
  return reply;
}

std::uint64_t MonitorService::set_snapshot_store(
    std::unique_ptr<SnapshotStore> store) {
  if (adapt_ == nullptr) {
    throw std::invalid_argument(
        "snapshot store: online adaptation is disabled for this monitor "
        "family");
  }
  auto [resumed, bytes] = adapt_->attach_store(std::move(store));
  if (resumed != 0) adopt(bytes);
  return resumed;
}

void MonitorService::record_rolling(std::uint64_t samples,
                                    std::uint64_t warnings) {
  MutexLock lock(rolling_mu_);
  rolling_[rolling_next_] = {samples, warnings};
  rolling_next_ = (rolling_next_ + 1) % kRollingWindow;
  if (rolling_filled_ < kRollingWindow) ++rolling_filled_;
}

std::uint64_t MonitorService::generation() const {
  return adapt_ ? adapt_->telemetry().generation : 0;
}

std::uint64_t MonitorService::staged_samples() const {
  return adapt_ ? adapt_->telemetry().staged_samples : 0;
}

std::string MonitorService::monitor_description() const {
  return snapshot()->stats.monitor;
}

ServiceStats MonitorService::stats() const {
  ServiceStats stats = snapshot()->stats;
  stats.queries = queries();
  stats.samples = samples();
  stats.warnings = warnings();
  {
    MutexLock lock(rolling_mu_);
    for (std::size_t i = 0; i < rolling_filled_; ++i) {
      stats.rolling_samples += rolling_[i].first;
      stats.rolling_warnings += rolling_[i].second;
    }
  }
  if (adapt_) {
    const AdaptTelemetry adapt = adapt_->telemetry();
    stats.generation = adapt.generation;
    stats.staged_samples = adapt.staged_samples;
    stats.swaps = adapt.swaps;
    stats.rollbacks = adapt.rollbacks;
    for (std::size_t i = 0;
         i < std::min(stats.shards.size(), adapt.shard_novel.size()); ++i) {
      stats.shards[i].novel = adapt.shard_novel[i];
    }
  }
  return stats;
}

}  // namespace ranm::serve
