// Offline workload-guided monitor optimization (`ranm_cli optimize`).
//
// A frozen BDD-backed monitor is rebuilt under a better variable order:
// the stored pattern set is copied into a ReorderEngine, optionally
// re-seeded from a greedy workload-guided order (hot neurons — the ones
// whose BDD levels the profiled workload actually visits — move toward
// the root; ties group neurons with correlated thresholds), then sifted
// (Rudell), and finally rebuilt into a fresh manager. The new order is
// adopted only when it is strictly smaller than the original AND the
// rebuilt function verifies equivalent (Schwartz–Zippel over a 61-bit
// prime field plus concrete membership probes) — optimization can change
// representation size, never semantics.
//
// Sharded monitors optimize per shard; shards are independent, so the
// pass fans out on a thread pool when opts.threads > 1.
#pragma once

#include <cstdint>
#include <vector>

#include "core/feature_batch.hpp"
#include "core/monitor.hpp"

namespace ranm {

/// Tuning knobs for the offline optimize pass.
struct OptimizeOptions {
  /// Sifting abandons a direction once intermediate size exceeds
  /// max_growth × the best size seen for the variable being sifted.
  double max_growth = 1.2;
  /// Maximum sifting passes over all variables (each pass stops early
  /// when it improves total size by < 1%).
  std::size_t sift_passes = 2;
  /// Shard-level parallelism (1 = inline; only affects sharded monitors).
  std::size_t threads = 1;
  /// Optional representative workload (full monitor dimension). When
  /// present, it is profiled to seed the order greedily and the optimized
  /// monitor is re-profiled on it so saved artifacts carry fresh counts.
  const FeatureBatch* workload = nullptr;
  /// Seed for the equivalence check's random field points.
  std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
  /// Independent Schwartz–Zippel rounds in the equivalence check.
  unsigned verify_rounds = 3;
};

/// Outcome of optimizing one (flat or inner-shard) BDD.
struct ShardOptimizeReport {
  std::size_t nodes_before = 0;  // reachable BDD nodes pre-pass
  std::size_t nodes_after = 0;   // reachable BDD nodes post-pass
  std::size_t swaps = 0;         // adjacent-level swaps spent
  bool reordered = false;        // true iff a new order was adopted
};

/// Aggregate outcome of one optimize_monitor call.
struct OptimizeReport {
  std::size_t nodes_before = 0;
  std::size_t nodes_after = 0;
  std::size_t shards_reordered = 0;
  std::uint64_t workload_samples = 0;  // profiled membership queries
  std::vector<ShardOptimizeReport> per_shard;  // one entry per shard
};

/// Optimizes a monitor in place (see file comment). Supported families:
/// IntervalMonitor (on-off at 1 bit) and ShardedMonitor over it; other
/// families (min-max) have no BDD and return a zero report unchanged.
/// Throws std::invalid_argument on a workload whose dimension does not
/// match the monitor, std::runtime_error if a rebuilt BDD fails the
/// equivalence check (the original monitor is left untouched).
OptimizeReport optimize_monitor(Monitor& monitor,
                                const OptimizeOptions& opts = {});

}  // namespace ranm
