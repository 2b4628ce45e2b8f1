// In-process core of the serving layer: network + monitor loaded once,
// minibatch membership answered for the lifetime of the process.
//
// The batch-oriented `ranm_cli eval` re-loads the network and monitor
// artifacts on every invocation; at deployment time the monitor instead
// rides along with a live DNN, so the serving layer keeps both resident
// and answers each incoming minibatch through the batch-first pipeline:
// Network::forward_batch (one feature-extraction pass) feeding
// Monitor::contains_batch (one membership query per column). A
// ShardedMonitor is the intended unit of deployment — `threads` fans its
// per-shard row views out across cores — but any flat monitor serves too.
//
// MonitorService is the transport-independent API: tests and
// bench_serving call it directly (no subprocess, no socket), while the
// epoll Server exposes the same calls over the frame protocol.
//
// Thread model: every server worker queries one service. Inference and
// monitor queries are const and keep their scratch per thread, so
// query_warns_into may run on any number of threads at once. Serving
// never enables BDD hit profiling, the one query-time write a monitor has.
//
// Online adaptation (monitor lifecycle). The served monitor is an
// immutable RCU-style snapshot: queries copy a shared_ptr under a tiny
// mutex, then run lock-free against that copy, so a concurrent adopt()
// publishes a refreshed monitor atomically — every query is answered
// entirely by the old or the new snapshot, never a blend. observe_batch()
// stages live batches (as layer-k features) into the AdaptState;
// rebuild_refreshed() folds the staged pool into a fresh monitor loaded
// from the pristine current-generation bytes, on a background thread
// while queries continue; adopt() + commit_swap() publish it as the next
// generation with one deserialisation and one pointer store.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/monitor.hpp"
#include "nn/network.hpp"
#include "serve/adapt.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot_store.hpp"
#include "util/annotations.hpp"

namespace ranm::serve {

/// Long-lived network + monitor pair answering minibatch queries.
class MonitorService {
 public:
  /// Queries contributing to the rolling warning-rate window in kStats.
  static constexpr std::size_t kRollingWindow = 64;

  /// Takes ownership of both artifacts. `layer_k` is the monitored layer
  /// (1-based, as everywhere); the monitor's dimension must equal the
  /// layer's feature dimension. `threads` configures shard-level
  /// parallelism on a ShardedMonitor (0 = hardware concurrency) and is
  /// ignored for flat monitors.
  MonitorService(Network net, std::unique_ptr<Monitor> monitor,
                 std::size_t layer_k, std::size_t threads = 1);

  /// Loads both artifacts from disk once — the whole point of the serving
  /// layer over per-invocation CLI loads.
  [[nodiscard]] static MonitorService from_files(
      const std::string& net_path, const std::string& monitor_path,
      std::size_t layer_k, std::size_t threads = 1);

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  /// Deep-copies the service by round-tripping both artifacts through
  /// their serialisers — bit-identical network and monitor, fresh
  /// counters. The copy shares this service's AdaptState, so a swap
  /// staged through either publishes one generation for both. Non-const
  /// only because save_network is. Throws std::invalid_argument for
  /// monitors without a serialiser.
  [[nodiscard]] std::unique_ptr<MonitorService> clone();

  /// Answers one minibatch into `warns` (resized to inputs.size()):
  /// warns[i] = 1 iff the monitor warns on inputs[i] (membership negated).
  /// The caller-owned vector keeps its capacity across calls, so a
  /// steady-state serving loop pays no per-query allocation. Throws
  /// std::invalid_argument on a shape mismatch or an oversized batch; the
  /// service stays usable after a failed query. Safe for any number of
  /// concurrent callers, also while a swap or rollback publishes.
  void query_warns_into(std::span<const Tensor> inputs,
                        std::vector<std::uint8_t>& warns);

  /// Convenience wrapper allocating the verdict vector per call.
  [[nodiscard]] std::vector<std::uint8_t> query_warns(
      std::span<const Tensor> inputs);

  // ---- monitor lifecycle --------------------------------------------------

  /// True when this monitor family supports the observe/swap/rollback
  /// path (it has a serialiser and is not compiled/frozen).
  [[nodiscard]] bool adaptive() const noexcept;

  /// Stages one live minibatch for the next rebuild: extracts layer-k
  /// features, counts how many samples the *current* snapshot warns on
  /// (drift signal, per shard too for sharded monitors), and appends the
  /// features to the staging pool. Safe alongside queries, other
  /// observers and a running rebuild. Throws std::invalid_argument for
  /// frozen/compiled monitors and std::runtime_error past the staging cap.
  [[nodiscard]] ObserveReply observe_batch(std::span<const Tensor> inputs);

  /// Builds the refreshed artifact: loads a fresh monitor from the
  /// pristine current-generation bytes, folds the staged features into
  /// it, and returns its serialised bytes ( `applied` = staged samples
  /// consumed). Reads only the AdaptState — safe on a background thread
  /// while queries keep being answered.
  [[nodiscard]] std::string rebuild_refreshed(std::uint64_t& applied);

  /// Atomically publishes a monitor loaded from `bytes` as the served
  /// snapshot. In-flight queries keep the snapshot they started with.
  void adopt(const std::string& bytes);

  /// Records a rebuilt artifact as the next generation in the shared
  /// AdaptState (persisting it when a store is attached) and returns the
  /// swap reply. Call after adopt(`bytes`).
  [[nodiscard]] SwapReply commit_swap(std::string bytes,
                                      std::uint64_t applied,
                                      std::uint64_t duration_us);

  /// Resolves a rollback target (0 = previous) to {generation, bytes}.
  [[nodiscard]] std::pair<std::uint64_t, std::string> checkout_generation(
      std::uint64_t target) const;

  /// Swap: rebuild, adopt, commit. The server runs it on a background
  /// thread while its workers keep querying.
  [[nodiscard]] SwapReply swap();

  /// Rollback to `target` (0 = previous generation): checkout, adopt,
  /// commit.
  [[nodiscard]] RollbackReply rollback(std::uint64_t target = 0);

  /// Attaches the on-disk generation store. On a fresh store the current
  /// generation is persisted; on a store carrying history (daemon
  /// restart) the newest persisted generation is adopted and returned
  /// (0 = nothing resumed). Call before serving.
  std::uint64_t set_snapshot_store(std::unique_ptr<SnapshotStore> store);

  /// Lifetime counters plus the per-shard table `ranm_cli info` shows.
  /// The counter fields are relaxed snapshots — safe to call while
  /// another thread queries.
  [[nodiscard]] ServiceStats stats() const;

  // Relaxed snapshots of the lifetime counters.
  [[nodiscard]] std::uint64_t queries() const noexcept {
    return queries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t samples() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t warnings() const noexcept {
    return warnings_.load(std::memory_order_relaxed);
  }

  /// Published generation (0: adaptation disabled for this family).
  [[nodiscard]] std::uint64_t generation() const;
  /// Samples staged for the next swap.
  [[nodiscard]] std::uint64_t staged_samples() const;

  [[nodiscard]] std::size_t dimension() const noexcept { return dim_; }
  [[nodiscard]] std::size_t layer_k() const noexcept { return k_; }
  /// describe() of the current snapshot.
  [[nodiscard]] std::string monitor_description() const;

 private:
  /// One published monitor plus the identity and static shard table
  /// stats() reports for it. Immutable once published; the table is
  /// computed here, once, because describe() and shard_stats() walk every
  /// BDD node.
  struct Snapshot {
    std::unique_ptr<const Monitor> monitor;
    ServiceStats stats;  // no counters, lifecycle telemetry or novelty
  };

  /// The current snapshot: copied under the lock, used lock-free.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const
      RANM_EXCLUDES(snapshot_mu_);
  /// Applies the host thread count to `monitor`, tabulates it and makes it
  /// the served snapshot. Throws std::invalid_argument on a dimension
  /// mismatch, publishing nothing.
  void publish(std::unique_ptr<Monitor> monitor)
      RANM_EXCLUDES(snapshot_mu_);
  void record_rolling(std::uint64_t samples, std::uint64_t warnings)
      RANM_EXCLUDES(rolling_mu_);

  Network net_;
  std::size_t k_;
  std::size_t threads_;
  std::size_t dim_;  // layer k's feature dimension; every snapshot's
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_ RANM_GUARDED_BY(snapshot_mu_);
  // Shared with clone()s; null when the family has no serialiser
  // (adaptation disabled).
  std::shared_ptr<AdaptState> adapt_;
  // Lifetime counters surfaced in stats frames. Atomic (relaxed): any
  // number of threads query while stats() reads them.
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> warnings_{0};
  // Rolling warning-rate ring: one {samples, warnings} entry per recent
  // query, summed into kStats so operators see drift, not lifetime
  // averages. A mutex (not atomics) because entries are pairs.
  mutable Mutex rolling_mu_;
  std::array<std::pair<std::uint64_t, std::uint64_t>, kRollingWindow>
      rolling_ RANM_GUARDED_BY(rolling_mu_){};
  std::size_t rolling_next_ RANM_GUARDED_BY(rolling_mu_) = 0;
  std::size_t rolling_filled_ RANM_GUARDED_BY(rolling_mu_) = 0;
};

}  // namespace ranm::serve
