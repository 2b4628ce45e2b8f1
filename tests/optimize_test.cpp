// optimize_monitor: the offline workload-guided reordering pass.
//
// The contract under test is "representation may shrink, semantics may
// not": across families (on/off, interval) × layouts (flat, sharded) ×
// build modes (standard, robust), the accepted set before and after
// optimization is bit-identical — NaN probes included — the pass is
// deterministic under a fixed seed, optimized artifacts round-trip
// byte-stably through save/load/save, legacy artifacts still load, and
// compilation of an optimized (slot-remapped) monitor stays equivalent.
#include "core/optimize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <vector>

#include "compile/compiled_io.hpp"
#include "compile/lower.hpp"
#include "core/interval_monitor.hpp"
#include "core/neuron_stats.hpp"
#include "core/sharded_monitor.hpp"
#include "io/serialize.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

std::vector<float> random_feature(std::size_t dim, Rng& rng) {
  std::vector<float> v(dim);
  for (auto& x : v) x = rng.uniform_f(-2, 2);
  return v;
}

ThresholdSpec random_spec(std::size_t dim, std::size_t bits, Rng& rng) {
  NeuronStats stats(dim, true);
  for (int s = 0; s < 40; ++s) stats.add(random_feature(dim, rng));
  return bits == 1 ? ThresholdSpec::from_means(stats)
                   : ThresholdSpec::from_percentiles(stats, bits);
}

/// Random vectors plus stored vectors (guaranteed members) plus NaN
/// pokes: the query mix every equivalence check runs on.
FeatureBatch query_batch(std::size_t dim, std::size_t n,
                         const std::vector<std::vector<float>>& stored,
                         Rng& rng) {
  FeatureBatch batch(dim, n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> v = (i % 3 == 0 && !stored.empty())
                               ? stored[i % stored.size()]
                               : random_feature(dim, rng);
    if (i % 4 == 1) {
      v[rng.below(dim)] = std::numeric_limits<float>::quiet_NaN();
    }
    batch.set_sample(i, v);
  }
  return batch;
}

enum class Family { kOnOff, kInterval };

struct Built {
  std::unique_ptr<Monitor> monitor;
  std::vector<std::vector<float>> stored;
  FeatureBatch workload;
};

/// Builds a monitor of the requested shape over a deterministic
/// observation stream (same seed ⇒ byte-identical monitor).
Built build_monitor(Family family, std::size_t dim, std::size_t shards,
                    bool robust, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t bits = family == Family::kInterval ? 2 : 1;
  const ThresholdSpec spec = random_spec(dim, bits, rng);
  Built b;
  if (shards == 0) {
    b.monitor = std::make_unique<IntervalMonitor>(spec);
  } else {
    const ShardPlan plan =
        ShardPlan::make(ShardStrategy::kContiguous, dim, shards);
    b.monitor = std::make_unique<ShardedMonitor>(
        ShardedMonitor::interval(plan, spec));
  }
  const std::size_t observations = 30;
  FeatureBatch train(dim, observations);
  FeatureBatch lo(dim, observations), hi(dim, observations);
  for (std::size_t i = 0; i < observations; ++i) {
    std::vector<float> v = random_feature(dim, rng);
    b.stored.push_back(v);
    train.set_sample(i, v);
    std::vector<float> l(v), h(v);
    for (std::size_t j = 0; j < dim; ++j) {
      const float d = rng.uniform_f(0, 0.4F);
      l[j] -= d;
      h[j] += d;
    }
    lo.set_sample(i, l);
    hi.set_sample(i, h);
  }
  if (robust) {
    b.monitor->observe_bounds_batch(lo, hi);
  } else {
    b.monitor->observe_batch(train);
  }
  b.workload = std::move(train);
  return b;
}

std::vector<char> verdicts(const Monitor& m, const FeatureBatch& batch) {
  const std::size_t n = batch.size();
  const auto buf = std::make_unique<bool[]>(n);
  m.contains_batch(batch, {buf.get(), n});
  return {buf.get(), buf.get() + n};
}

TEST(Optimize, VerdictsUnchangedAcrossFamiliesAndLayouts) {
  std::uint64_t seed = 100;
  for (const Family family : {Family::kOnOff, Family::kInterval}) {
    for (const std::size_t shards : {std::size_t(0), std::size_t(3)}) {
      for (const bool robust : {false, true}) {
        SCOPED_TRACE("family=" + std::to_string(int(family)) +
                     " shards=" + std::to_string(shards) +
                     (robust ? " robust" : " standard"));
        ++seed;
        Built b = build_monitor(family, 9, shards, robust, seed);
        Rng qrng(seed + 1000);
        const FeatureBatch queries = query_batch(9, 48, b.stored, qrng);
        const std::vector<char> before = verdicts(*b.monitor, queries);

        OptimizeOptions opts;
        opts.workload = &b.workload;
        opts.threads = shards == 0 ? 1 : 2;
        const OptimizeReport report = optimize_monitor(*b.monitor, opts);

        EXPECT_EQ(verdicts(*b.monitor, queries), before);
        EXPECT_EQ(report.per_shard.size(),
                  shards == 0 ? std::size_t(1) : shards);
        EXPECT_LE(report.nodes_after, report.nodes_before);
        EXPECT_EQ(report.workload_samples, b.workload.size());
        std::size_t agg_before = 0, agg_after = 0, reordered = 0;
        for (const ShardOptimizeReport& sr : report.per_shard) {
          agg_before += sr.nodes_before;
          agg_after += sr.nodes_after;
          reordered += sr.reordered ? 1 : 0;
        }
        EXPECT_EQ(agg_before, report.nodes_before);
        EXPECT_EQ(agg_after, report.nodes_after);
        EXPECT_EQ(reordered, report.shards_reordered);
      }
    }
  }
}

TEST(Optimize, RobustBuildsShrink) {
  // Robust interval builds carry don't-care structure that the default
  // threshold-major order represents badly — the pass must find a
  // strictly smaller order somewhere in this sweep.
  std::size_t improved = 0;
  for (std::uint64_t seed = 7; seed < 12; ++seed) {
    Built b = build_monitor(Family::kInterval, 10, 0, true, seed);
    OptimizeOptions opts;
    opts.workload = &b.workload;
    const OptimizeReport report = optimize_monitor(*b.monitor, opts);
    if (report.nodes_after < report.nodes_before) ++improved;
  }
  EXPECT_GT(improved, 0U);
}

TEST(Optimize, SaveOptimizeLoadSaveIsByteStable) {
  Built b = build_monitor(Family::kInterval, 8, 0, true, 21);
  OptimizeOptions opts;
  opts.workload = &b.workload;
  (void)optimize_monitor(*b.monitor, opts);

  std::stringstream s1;
  save_any_monitor(s1, *b.monitor);
  const auto loaded = load_any_monitor(s1);
  std::stringstream s2;
  save_any_monitor(s2, *loaded);
  EXPECT_EQ(s1.str(), s2.str());

  Rng qrng(22);
  const FeatureBatch queries = query_batch(8, 32, b.stored, qrng);
  EXPECT_EQ(verdicts(*loaded, queries), verdicts(*b.monitor, queries));
}

TEST(Optimize, ShardedRoundTripPreservesOrderAndVerdicts) {
  Built b = build_monitor(Family::kInterval, 12, 4, true, 31);
  OptimizeOptions opts;
  opts.workload = &b.workload;
  opts.threads = 2;
  (void)optimize_monitor(*b.monitor, opts);

  std::stringstream s1;
  save_any_monitor(s1, *b.monitor);
  const auto loaded = load_any_monitor(s1);
  std::stringstream s2;
  save_any_monitor(s2, *loaded);
  EXPECT_EQ(s1.str(), s2.str());

  Rng qrng(32);
  const FeatureBatch queries = query_batch(12, 40, b.stored, qrng);
  EXPECT_EQ(verdicts(*loaded, queries), verdicts(*b.monitor, queries));
}

TEST(Optimize, DeterministicUnderFixedSeed) {
  // Two identically-built monitors optimize to byte-identical artifacts.
  Built a = build_monitor(Family::kInterval, 9, 3, true, 41);
  Built b = build_monitor(Family::kInterval, 9, 3, true, 41);
  OptimizeOptions opts;
  opts.workload = &a.workload;
  const OptimizeReport ra = optimize_monitor(*a.monitor, opts);
  opts.workload = &b.workload;
  const OptimizeReport rb = optimize_monitor(*b.monitor, opts);
  EXPECT_EQ(ra.nodes_after, rb.nodes_after);
  EXPECT_EQ(ra.shards_reordered, rb.shards_reordered);
  std::stringstream sa, sb;
  save_any_monitor(sa, *a.monitor);
  save_any_monitor(sb, *b.monitor);
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(Optimize, LegacyArtifactsStayLegacyAndLoad) {
  // A monitor that was never profiled or reordered keeps the original
  // byte format (no V2 tag), so artifacts from older builds round-trip
  // bit-for-bit.
  Built b = build_monitor(Family::kOnOff, 6, 0, false, 51);
  std::stringstream s1;
  save_any_monitor(s1, *b.monitor);
  const std::string legacy = s1.str();
  const auto loaded = load_any_monitor(s1);
  std::stringstream s2;
  save_any_monitor(s2, *loaded);
  EXPECT_EQ(s2.str(), legacy);
}

TEST(Optimize, CorruptedArtifactLoadThrows) {
  Built b = build_monitor(Family::kInterval, 8, 0, true, 61);
  OptimizeOptions opts;
  opts.workload = &b.workload;
  (void)optimize_monitor(*b.monitor, opts);
  std::stringstream ss;
  save_any_monitor(ss, *b.monitor);
  const std::string bytes = ss.str();

  // Truncation anywhere in the tail must fail loudly, not half-load.
  for (const double frac : {0.25, 0.6, 0.95}) {
    std::stringstream cut(bytes.substr(0, std::size_t(
                                              double(bytes.size()) * frac)));
    EXPECT_THROW((void)load_any_monitor(cut), std::runtime_error)
        << "frac " << frac;
  }
}

TEST(Optimize, InvalidOrderRejected) {
  // apply_variable_order is the loader path: it installs an order on an
  // *empty* monitor and must reject malformed permutations.
  Rng rng(71);
  IntervalMonitor empty(random_spec(6, 2, rng));
  const std::size_t nvars = empty.variable_order().size();
  // Not a permutation: duplicate level.
  std::vector<std::uint32_t> bad(nvars, 0U);
  EXPECT_THROW(empty.apply_variable_order(bad), std::invalid_argument);
  // Wrong length.
  std::vector<std::uint32_t> wrong(nvars + 1);
  std::iota(wrong.begin(), wrong.end(), 0U);
  EXPECT_THROW(empty.apply_variable_order(wrong), std::invalid_argument);
  // A valid permutation still installs after the rejections.
  std::vector<std::uint32_t> ok(nvars);
  std::iota(ok.rbegin(), ok.rend(), 0U);
  empty.apply_variable_order(ok);
  EXPECT_EQ(empty.variable_order().front(), nvars - 1);

  // Once patterns exist, installing an order is a logic error — the
  // optimize pass goes through adopt_reordered instead.
  Built b = build_monitor(Family::kInterval, 6, 0, false, 71);
  auto* iv = dynamic_cast<IntervalMonitor*>(b.monitor.get());
  ASSERT_NE(iv, nullptr);
  std::vector<std::uint32_t> identity(iv->variable_order().size());
  std::iota(identity.begin(), identity.end(), 0U);
  EXPECT_THROW(iv->apply_variable_order(identity), std::logic_error);
}

TEST(Optimize, WorkloadDimensionMismatchThrows) {
  Built b = build_monitor(Family::kOnOff, 6, 0, false, 81);
  const FeatureBatch wrong(7, 4);
  OptimizeOptions opts;
  opts.workload = &wrong;
  EXPECT_THROW((void)optimize_monitor(*b.monitor, opts),
               std::invalid_argument);
}

TEST(Optimize, MinMaxIsANoOp) {
  const ShardPlan plan = ShardPlan::make(ShardStrategy::kContiguous, 5, 2);
  ShardedMonitor sm = ShardedMonitor::minmax(plan);
  Rng rng(91);
  sm.observe(random_feature(5, rng));
  const OptimizeReport report = optimize_monitor(sm);
  EXPECT_EQ(report.shards_reordered, 0U);
  EXPECT_EQ(report.nodes_before, report.nodes_after);
}

TEST(Optimize, CompiledFromOptimizedStaysEquivalent) {
  // Compilation remaps BDD levels back to semantic slots; an optimized
  // (custom-order) monitor must compile to the same decision function.
  for (const std::size_t shards : {std::size_t(0), std::size_t(3)}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Built b = build_monitor(Family::kInterval, 9, shards, true, 101);
    OptimizeOptions opts;
    opts.workload = &b.workload;
    (void)optimize_monitor(*b.monitor, opts);

    const compile::CompiledMonitor compiled =
        compile::compile_monitor(*b.monitor, {});
    Rng qrng(102);
    const FeatureBatch queries = query_batch(9, 64, b.stored, qrng);
    EXPECT_EQ(verdicts(compiled, queries), verdicts(*b.monitor, queries));

    // And the compiled artifact of the optimized monitor round-trips.
    std::stringstream ss;
    compile::save_compiled_monitor(ss, compiled);
    const compile::CompiledMonitor reloaded =
        compile::load_compiled_monitor(ss);
    EXPECT_EQ(verdicts(reloaded, queries), verdicts(compiled, queries));
  }
}

}  // namespace
}  // namespace ranm
