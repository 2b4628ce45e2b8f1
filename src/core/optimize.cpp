#include "core/optimize.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bdd/reorder.hpp"
#include "core/interval_monitor.hpp"
#include "core/sharded_monitor.hpp"
#include "util/thread_pool.hpp"

namespace ranm {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Runs the workload through the monitor with fresh hit counters, so the
/// counts describe exactly this workload against the current structure.
void profile_workload(IntervalMonitor& m, const FeatureBatch& workload) {
  m.manager().reset_profile();
  m.set_profiling(true);
  const std::size_t n = workload.size();
  const std::unique_ptr<bool[]> out(new bool[n]);
  m.contains_batch(workload, {out.get(), n});
}

/// Greedy workload-guided seed: neurons ranked by profiled hit weight
/// (hot neurons toward the root, where they terminate walks earliest);
/// ties broken by mean threshold value so neurons with correlated
/// thresholds — which tend to agree and share structure — sit adjacent.
/// Bits of one neuron stay adjacent, MSB first. Returns the
/// target_level_of_var permutation for ReorderEngine::set_order, or empty
/// when the seed coincides with the current order.
std::vector<std::uint32_t> greedy_seed_order(const IntervalMonitor& m) {
  const std::size_t d = m.dimension();
  const std::size_t bits = m.spec().bits();
  const auto vars = m.variable_order();  // level_of_slot
  const auto& mgr = m.manager();
  struct Rank {
    std::uint64_t hits;
    double mean;
    std::uint32_t j;
  };
  std::vector<Rank> ranks(d);
  for (std::size_t j = 0; j < d; ++j) {
    std::uint64_t h = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      h += mgr.var_hits(vars[j * bits + b]);
    }
    const auto ts = m.spec().thresholds(j);
    double mean = 0.0;
    for (const auto& t : ts) mean += double(t.value);
    mean /= double(ts.size());
    ranks[j] = {h, mean, static_cast<std::uint32_t>(j)};
  }
  std::stable_sort(ranks.begin(), ranks.end(),
                   [](const Rank& a, const Rank& b) {
                     if (a.hits != b.hits) return a.hits > b.hits;
                     if (a.mean != b.mean) return a.mean < b.mean;
                     return a.j < b.j;
                   });
  std::vector<std::uint32_t> target(vars.size());
  bool differs = false;
  for (std::size_t r = 0; r < d; ++r) {
    const std::size_t j = ranks[r].j;
    for (std::size_t b = 0; b < bits; ++b) {
      const std::uint32_t v = vars[j * bits + b];
      const auto lvl = static_cast<std::uint32_t>(r * bits + b);
      target[v] = lvl;
      differs = differs || lvl != v;
    }
  }
  if (!differs) target.clear();
  return target;
}

/// Deterministic concrete membership probes complementing the field
/// identity test: both BDDs must agree on random 0/1 slot assignments.
bool probes_agree(const IntervalMonitor& m, const bdd::BddManager& dst,
                  bdd::NodeRef new_root,
                  std::span<const std::uint32_t> new_slot_of_level,
                  std::uint64_t seed) {
  const auto old_slot_of_level = m.slot_of_level();
  const std::size_t num_slots = old_slot_of_level.size();
  std::uint64_t state = seed ^ 0xA5A5A5A5DEADBEEFULL;
  std::vector<bool> slot_val(num_slots);
  for (int p = 0; p < 16; ++p) {
    for (std::size_t s = 0; s < num_slots; ++s) {
      slot_val[s] = (splitmix64(state) & 1) != 0;
    }
    const bool a =
        m.manager().eval_with(m.root(), [&](std::uint32_t var) {
          return bool(slot_val[old_slot_of_level[var]]);
        });
    const bool b = dst.eval_with(new_root, [&](std::uint32_t var) {
      return bool(slot_val[new_slot_of_level[var]]);
    });
    if (a != b) return false;
  }
  return true;
}

/// Rebuilds the arena of an already-adopted monitor so that workload-hot
/// nodes sit contiguously at the arena tail (children still precede
/// parents; coldest ready node emitted first, the root — hottest — last).
/// ReorderEngine::rebuild emits level-major, which scatters one query
/// path across every level-sized stride of the arena; packing the nodes
/// the workload actually visits into one small contiguous block keeps the
/// batch sweep's working set within a few cache lines and pages. Refs
/// change; the function, the variable order, and the profile counters
/// (transferred node-by-node) do not. Deterministic: ties in hotness
/// break by node ref.
void relayout_by_heat(IntervalMonitor& m) {
  const auto& mgr = m.manager();
  const bdd::NodeRef root = m.root();
  if (root == bdd::kFalse || root == bdd::kTrue) return;
  const std::size_t arena = mgr.arena_size();

  // Reachable internal nodes, discovery order.
  std::vector<bdd::NodeRef> order;
  std::vector<bool> seen(arena, false);
  seen[bdd::kFalse] = seen[bdd::kTrue] = true;
  std::vector<bdd::NodeRef> stack{root};
  seen[root] = true;
  while (!stack.empty()) {
    const bdd::NodeRef n = stack.back();
    stack.pop_back();
    order.push_back(n);
    const auto v = mgr.view(n);
    for (const bdd::NodeRef c : {v.lo, v.hi}) {
      if (!seen[c]) {
        seen[c] = true;
        stack.push_back(c);
      }
    }
  }

  // Child -> parents edges (CSR) and per-node internal-children counts.
  std::vector<std::uint32_t> pcount(arena, 0);
  std::vector<std::uint32_t> pending(arena, 0);
  for (const bdd::NodeRef n : order) {
    const auto v = mgr.view(n);
    for (const bdd::NodeRef c : {v.lo, v.hi}) {
      if (c != bdd::kFalse && c != bdd::kTrue) {
        ++pcount[c];
        ++pending[n];
      }
    }
  }
  std::vector<std::uint32_t> offset(arena + 1, 0);
  for (std::size_t i = 0; i < arena; ++i) offset[i + 1] = offset[i] + pcount[i];
  std::vector<bdd::NodeRef> parents(offset[arena]);
  {
    std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (const bdd::NodeRef n : order) {
      const auto v = mgr.view(n);
      for (const bdd::NodeRef c : {v.lo, v.hi}) {
        if (c != bdd::kFalse && c != bdd::kTrue) parents[cursor[c]++] = n;
      }
    }
  }

  // Kahn's topological emission, coldest-first min-heap.
  using Entry = std::pair<std::uint64_t, bdd::NodeRef>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ready;
  for (const bdd::NodeRef n : order) {
    if (pending[n] == 0) ready.push({mgr.node_hits(n), n});
  }
  bdd::BddManager dst(mgr.num_vars());
  std::vector<bdd::NodeRef> map(arena, bdd::kFalse);
  map[bdd::kTrue] = bdd::kTrue;
  while (!ready.empty()) {
    const auto [h, n] = ready.top();
    ready.pop();
    const auto v = mgr.view(n);
    map[n] = dst.make_node_checked(v.var, map[v.lo], map[v.hi]);
    if (h > 0) dst.record_hits(map[n], h);
    for (std::uint32_t e = offset[n]; e < offset[n + 1]; ++e) {
      const bdd::NodeRef p = parents[e];
      if (--pending[p] == 0) ready.push({mgr.node_hits(p), p});
    }
  }
  dst.record_queries(mgr.profile_queries());

  const auto vo = m.variable_order();
  m.adopt_reordered({vo.begin(), vo.end()}, std::move(dst), map[root]);
}

/// The per-BDD pass: profile → seed → sift → rebuild → verify → adopt.
ShardOptimizeReport optimize_flat(IntervalMonitor& m,
                                  const FeatureBatch* workload,
                                  const OptimizeOptions& opts) {
  ShardOptimizeReport rep;
  rep.nodes_before = m.bdd_node_count();
  rep.nodes_after = rep.nodes_before;
  const bool was_profiling = m.profiling();
  const bool have_workload = workload != nullptr && workload->size() > 0;
  if (have_workload) profile_workload(m, *workload);
  const auto& mgr = m.manager();
  if (m.root() == bdd::kFalse || m.root() == bdd::kTrue ||
      mgr.num_vars() < 2) {
    m.set_profiling(was_profiling);
    return rep;
  }
  bdd::ReorderEngine eng(mgr, m.root());
  const std::size_t before_internal = eng.size();
  if (have_workload) {
    const auto target = greedy_seed_order(m);
    if (!target.empty()) eng.set_order(target);
  }
  eng.sift(opts.max_growth, opts.sift_passes);
  rep.swaps = eng.swap_count();
  if (eng.size() >= before_internal) {
    // No strict improvement over the current order; keep the original.
    m.set_profiling(was_profiling);
    return rep;
  }
  bdd::BddManager dst(mgr.num_vars());
  const bdd::NodeRef new_root = eng.rebuild(dst);
  const auto old_vars = m.variable_order();
  const auto lof = eng.level_of_var();
  std::vector<std::uint32_t> new_level_of_slot(old_vars.size());
  for (std::size_t s = 0; s < old_vars.size(); ++s) {
    new_level_of_slot[s] = lof[old_vars[s]];
  }
  std::vector<std::uint32_t> new_slot_of_level(new_level_of_slot.size());
  for (std::size_t s = 0; s < new_level_of_slot.size(); ++s) {
    new_slot_of_level[new_level_of_slot[s]] = static_cast<std::uint32_t>(s);
  }
  if (!bdd::equivalent_functions(mgr, m.root(), m.slot_of_level(), dst,
                                 new_root, new_slot_of_level,
                                 old_vars.size(), opts.seed,
                                 opts.verify_rounds) ||
      !probes_agree(m, dst, new_root, new_slot_of_level, opts.seed)) {
    m.set_profiling(was_profiling);
    throw std::runtime_error(
        "optimize_monitor: reordered BDD failed the equivalence check; "
        "keeping the original monitor");
  }
  m.adopt_reordered(std::move(new_level_of_slot), std::move(dst), new_root);
  rep.reordered = true;
  rep.nodes_after = m.bdd_node_count();
  // Re-profile so saved artifacts carry counts matching the new
  // structure, then pack the nodes that profile showed hot into one
  // contiguous arena block (query-latency half of the optimization).
  if (have_workload) profile_workload(m, *workload);
  relayout_by_heat(m);
  m.set_profiling(was_profiling);
  return rep;
}

ShardOptimizeReport optimize_one(Monitor& m, const FeatureBatch* workload,
                                 const OptimizeOptions& opts) {
  if (auto* iv = dynamic_cast<IntervalMonitor*>(&m)) {
    return optimize_flat(*iv, workload, opts);
  }
  return {};  // non-BDD family: nothing to optimize
}

}  // namespace

OptimizeReport optimize_monitor(Monitor& monitor,
                                const OptimizeOptions& opts) {
  if (opts.workload != nullptr &&
      opts.workload->dimension() != monitor.dimension()) {
    throw std::invalid_argument(
        "optimize_monitor: workload dimension does not match the monitor");
  }
  OptimizeReport rep;
  if (opts.workload != nullptr) rep.workload_samples = opts.workload->size();
  if (auto* sm = dynamic_cast<ShardedMonitor*>(&monitor)) {
    const std::size_t shards = sm->shard_count();
    rep.per_shard.resize(shards);
    const auto body = [&](std::size_t s) {
      if (opts.workload != nullptr) {
        const FeatureBatch view =
            opts.workload->view_rows(sm->plan().neurons(s));
        rep.per_shard[s] = optimize_one(sm->shard(s), &view, opts);
      } else {
        rep.per_shard[s] = optimize_one(sm->shard(s), nullptr, opts);
      }
    };
    if (opts.threads != 1 && shards > 1) {
      ThreadPool pool(opts.threads);
      pool.parallel_for(shards, body);
    } else {
      for (std::size_t s = 0; s < shards; ++s) body(s);
    }
  } else {
    rep.per_shard.push_back(optimize_one(monitor, opts.workload, opts));
  }
  for (const auto& s : rep.per_shard) {
    rep.nodes_before += s.nodes_before;
    rep.nodes_after += s.nodes_after;
    rep.shards_reordered += s.reordered ? 1 : 0;
  }
  return rep;
}

}  // namespace ranm
