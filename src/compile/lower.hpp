// Monitor -> CompiledMonitor lowering (the "compile" in ranm_cli compile).
//
// Dispatches on the dynamic monitor type: min-max and box-cluster lower to
// BoxPrograms; the BDD families (on-off, interval) first attempt a bounded
// cube-cover extraction — robust builds with don't-cares usually cover in
// a handful of cubes, which evaluate as plain bitmask compares — and fall
// back to flattening the reachable BDD into a topologically-ordered node
// array. A ShardedMonitor lowers shard-by-shard (optionally in parallel:
// each shard's lowering touches only that shard's private manager).
#pragma once

#include "compile/compiled_monitor.hpp"

namespace ranm {
class Monitor;
}

namespace ranm::compile {

struct CompileOptions {
  /// Largest cube cover worth lowering to bitmask compares; BDDs whose
  /// cover is larger (or whose enumeration exceeds the work bound) lower
  /// to a flat node array instead.
  std::size_t cube_limit = 64;
  /// Shard-level lowering parallelism (ShardedMonitor sources only):
  /// at most `threads` shards lower concurrently, caller included;
  /// 1 runs inline, 0 uses hardware concurrency.
  std::size_t threads = 1;
};

/// Lowers a frozen monitor into its compiled form. Supported sources:
/// MinMaxMonitor, IntervalMonitor (on-off at 1 bit), BoxClusterMonitor
/// (finalized), and ShardedMonitor over those. Throws
/// std::invalid_argument on an unsupported source and std::logic_error on
/// an unfinalized box-cluster.
[[nodiscard]] CompiledMonitor compile_monitor(const Monitor& monitor,
                                              const CompileOptions& options = {});

}  // namespace ranm::compile
