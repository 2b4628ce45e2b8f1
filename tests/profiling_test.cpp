// Workload profiling: per-node hit counters behind the zero-cost-when-off
// profile mode, their aggregation through the monitor families, their
// persistence in saved artifacts, and the annotated DOT rendering.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/interval_monitor.hpp"
#include "core/monitor_dot.hpp"
#include "core/sharded_monitor.hpp"
#include "core/threshold_spec.hpp"
#include "io/serialize.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

/// f = x0 AND x1: one node per variable, fixed hit pattern.
bdd::NodeRef and2(bdd::BddManager& mgr) {
  return mgr.and_(mgr.var(0), mgr.var(1));
}

TEST(Profiling, OffByDefaultCountsNothing) {
  bdd::BddManager mgr(2);
  const bdd::NodeRef f = and2(mgr);
  EXPECT_FALSE(mgr.profiling());
  for (int x = 0; x < 4; ++x) {
    (void)mgr.eval(f, std::vector<bool>{(x & 1) != 0, (x & 2) != 0});
  }
  EXPECT_EQ(mgr.profile_queries(), 0U);
  for (bdd::NodeRef n = 0; n < mgr.arena_size(); ++n) {
    EXPECT_EQ(mgr.node_hits(n), 0U);
  }
}

TEST(Profiling, CountsHitsQueriesAndVarTotals) {
  bdd::BddManager mgr(2);
  const bdd::NodeRef f = and2(mgr);
  mgr.set_profiling(true);
  for (int x = 0; x < 4; ++x) {
    (void)mgr.eval(f, std::vector<bool>{(x & 1) != 0, (x & 2) != 0});
  }
  // The root (x0) is visited by all 4 evaluations; the x1 node only by
  // the two with x0 = 1.
  EXPECT_EQ(mgr.profile_queries(), 4U);
  EXPECT_EQ(mgr.var_hits(0), 4U);
  EXPECT_EQ(mgr.var_hits(1), 2U);

  // Reset clears the counters but keeps profiling enabled.
  mgr.reset_profile();
  EXPECT_TRUE(mgr.profiling());
  EXPECT_EQ(mgr.profile_queries(), 0U);
  EXPECT_EQ(mgr.var_hits(0), 0U);

  // Disabling stops accumulation entirely.
  (void)mgr.eval(f, std::vector<bool>{true, true});
  EXPECT_EQ(mgr.profile_queries(), 1U);
  mgr.set_profiling(false);
  (void)mgr.eval(f, std::vector<bool>{true, true});
  EXPECT_EQ(mgr.profile_queries(), 1U);
  EXPECT_EQ(mgr.var_hits(0), 1U);
}

TEST(Profiling, BatchSweepMatchesScalarCounts) {
  Rng rng(3);
  bdd::BddManager mgr(6);
  bdd::NodeRef f = bdd::kFalse;
  for (int c = 0; c < 5; ++c) {
    std::vector<bdd::CubeBit> bits(6, bdd::CubeBit::kDontCare);
    for (int v = 0; v < 6; ++v) {
      const auto r = rng.below(3);
      if (r < 2) bits[v] = r == 0 ? bdd::CubeBit::kZero : bdd::CubeBit::kOne;
    }
    f = mgr.or_(f, mgr.cube(bits));
  }
  const std::size_t n = 40;
  std::vector<std::vector<bool>> samples(n, std::vector<bool>(6));
  for (auto& s : samples) {
    for (int v = 0; v < 6; ++v) s[v] = rng.below(2) == 1;
  }

  mgr.set_profiling(true);
  // The batched walk (bdd/walk.hpp) must record the same per-node totals
  // as k scalar chases, both below its small-batch cutoff (one walk per
  // sample) and above it (level-synchronous).
  for (const std::size_t k : {bdd::kMinBatchWalk - 1, n}) {
    SCOPED_TRACE("batch " + std::to_string(k));
    mgr.reset_profile();
    std::vector<char> scalar(k);
    for (std::size_t i = 0; i < k; ++i) scalar[i] = mgr.eval(f, samples[i]);
    std::vector<std::uint64_t> scalar_hits(mgr.arena_size());
    for (bdd::NodeRef r = 0; r < mgr.arena_size(); ++r) {
      scalar_hits[r] = mgr.node_hits(r);
    }
    const std::uint64_t scalar_queries = mgr.profile_queries();

    mgr.reset_profile();
    const auto batched = std::make_unique<bool[]>(k);
    mgr.eval_batch(
        f, k,
        [&](std::uint32_t var, std::size_t i) { return samples[i][var]; },
        batched.get());
    EXPECT_EQ(mgr.profile_queries(), scalar_queries);
    for (bdd::NodeRef r = 0; r < mgr.arena_size(); ++r) {
      EXPECT_EQ(mgr.node_hits(r), scalar_hits[r]) << "node " << r;
    }
    EXPECT_EQ(std::vector<char>(batched.get(), batched.get() + k), scalar);
  }
}

TEST(Profiling, FlatMonitorAccumulatesAndPersists) {
  IntervalMonitor m(ThresholdSpec::onoff(std::vector<float>(3, 0.0F)));
  m.observe(std::vector<float>{1.0F, -1.0F, 1.0F});
  m.observe(std::vector<float>{-1.0F, 1.0F, -1.0F});
  EXPECT_FALSE(m.profiling());
  EXPECT_EQ(m.profile_queries(), 0U);

  m.set_profiling(true);
  FeatureBatch batch(3, 8);
  Rng rng(4);
  for (std::size_t i = 0; i < 8; ++i) {
    batch.set_sample(i, std::vector<float>{rng.uniform_f(-1, 1),
                                           rng.uniform_f(-1, 1),
                                           rng.uniform_f(-1, 1)});
  }
  const auto out = std::make_unique<bool[]>(8);
  m.contains_batch(batch, {out.get(), 8});
  EXPECT_EQ(m.profile_queries(), 8U);
  EXPECT_GT(m.profile_hits(), 0U);

  // Counts survive the artifact round-trip (V2 profile block) and the
  // reloaded monitor still answers identically.
  std::stringstream ss;
  save_monitor(ss, m);
  IntervalMonitor loaded = load_interval_monitor(ss);
  EXPECT_EQ(loaded.profile_queries(), m.profile_queries());
  EXPECT_EQ(loaded.profile_hits(), m.profile_hits());
  const auto out2 = std::make_unique<bool[]>(8);
  loaded.contains_batch(batch, {out2.get(), 8});
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(out2[i], out[i]);
}

TEST(Profiling, ShardedFanOutSumsShardCounters) {
  const std::size_t dim = 8, n = 16;
  const ThresholdSpec spec =
      ThresholdSpec::onoff(std::vector<float>(dim, 0.0F));
  const ShardPlan plan = ShardPlan::make(ShardStrategy::kContiguous, dim, 3);
  ShardedMonitor sm = ShardedMonitor::interval(plan, spec);
  sm.set_threads(2);  // per-shard managers: profiled fan-out is race-free

  Rng rng(5);
  FeatureBatch train(dim, 10);
  for (std::size_t i = 0; i < 10; ++i) {
    std::vector<float> v(dim);
    for (auto& x : v) x = rng.uniform_f(-1, 1);
    train.set_sample(i, v);
  }
  sm.observe_batch(train);

  EXPECT_FALSE(sm.profiling());
  sm.set_profiling(true);
  EXPECT_TRUE(sm.profiling());
  FeatureBatch batch(dim, n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> v(dim);
    for (auto& x : v) x = rng.uniform_f(-1, 1);
    batch.set_sample(i, v);
  }
  const auto out = std::make_unique<bool[]>(n);
  sm.contains_batch(batch, {out.get(), n});

  // Every shard profiles the whole batch; totals sum over shards.
  EXPECT_EQ(sm.profile_queries(), std::uint64_t(n) * plan.shard_count());
  const auto stats = sm.shard_stats();
  std::uint64_t queries = 0, hits = 0;
  for (const auto& st : stats) {
    EXPECT_EQ(st.profile_queries, n);
    queries += st.profile_queries;
    hits += st.profile_hits;
  }
  EXPECT_EQ(queries, sm.profile_queries());
  EXPECT_EQ(hits, sm.profile_hits());

  sm.set_profiling(false);
  EXPECT_FALSE(sm.profiling());
  sm.contains_batch(batch, {out.get(), n});
  EXPECT_EQ(sm.profile_queries(), std::uint64_t(n) * plan.shard_count());
}

TEST(Profiling, DotGoldenTinyMonitor) {
  // One stored pattern (x0 = 1, x1 = 0) gives the two-node BDD
  // x0 AND NOT x1; two probe queries give the root 2 hits (100%) and the
  // x1 node 1 hit (50%). The rendering is fully deterministic, so the
  // whole string is pinned.
  IntervalMonitor m(ThresholdSpec::onoff(std::vector<float>(2, 0.0F)));
  m.observe(std::vector<float>{1.0F, -1.0F});

  const std::string unprofiled =
      "digraph bdd {\n"
      "  n0 [label=\"0\", shape=box];\n"
      "  n1 [label=\"1\", shape=box];\n"
      "  n2 [label=\"x1\\n0\"];\n"
      "  n2 -> n1 [style=dashed];\n"
      "  n2 -> n0;\n"
      "  n3 [label=\"x0\\n0\"];\n"
      "  n3 -> n0 [style=dashed];\n"
      "  n3 -> n2;\n"
      "}\n";
  EXPECT_EQ(monitor_to_dot(m), unprofiled);

  m.set_profiling(true);
  EXPECT_FALSE(m.warn(std::vector<float>{0.5F, -1.0F}));  // hit: n3, n2
  EXPECT_TRUE(m.warn(std::vector<float>{-1.0F, 5.0F}));   // miss: n3 only
  const std::string profiled =
      "digraph bdd {\n"
      "  n0 [label=\"0\", shape=box];\n"
      "  n1 [label=\"1\", shape=box];\n"
      "  n2 [label=\"x1\\n1 (50.0%)\", style=filled, "
      "fillcolor=\"/oranges9/5\"];\n"
      "  n2 -> n1 [style=dashed];\n"
      "  n2 -> n0;\n"
      "  n3 [label=\"x0\\n2 (100.0%)\", style=filled, "
      "fillcolor=\"/oranges9/9\"];\n"
      "  n3 -> n0 [style=dashed];\n"
      "  n3 -> n2;\n"
      "}\n";
  EXPECT_EQ(monitor_to_dot(m), profiled);
}

TEST(Profiling, DotShardedClustersPerShard) {
  const std::size_t dim = 4;
  const ThresholdSpec spec =
      ThresholdSpec::onoff(std::vector<float>(dim, 0.0F));
  const ShardPlan plan = ShardPlan::make(ShardStrategy::kContiguous, dim, 2);
  ShardedMonitor sm = ShardedMonitor::interval(plan, spec);
  sm.observe(std::vector<float>{1.0F, -1.0F, 1.0F, -1.0F});
  const std::string dot = monitor_to_dot(sm);
  EXPECT_NE(dot.find("subgraph cluster_s0"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_s1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"shard 1\""), std::string::npos);
  EXPECT_NE(dot.find("s0_n2"), std::string::npos);
  EXPECT_NE(dot.find("s1_n2"), std::string::npos);
}

TEST(Profiling, DotRejectsNonBddFamilies) {
  // Min-max monitors have no BDD to render.
  const ShardPlan plan = ShardPlan::make(ShardStrategy::kContiguous, 4, 2);
  ShardedMonitor sm = ShardedMonitor::minmax(plan);
  EXPECT_THROW((void)monitor_to_dot(sm), std::invalid_argument);
}

}  // namespace
}  // namespace ranm
