// Compiled ≡ interpreted ≡ scalar on a served-size BDD.
//
// The compiled differential tests elsewhere use BDDs of a few dozen
// nodes. This one builds the serving MLP's robust interval monitor
// (16 -> 64 -> 32 -> 8, monitor on the 32 ReLU outputs, 2-bit coding,
// 256 training inputs, Δ = 0.015: tens of thousands of nodes) and checks
// the batched BDD walk on it flat, after `optimize`, and 4-shard, at
// batch sizes on both sides of the walk's small-batch cutoff and of a
// 64-sample block, NaN features included.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "bdd/walk.hpp"
#include "compile/compiled_monitor.hpp"
#include "compile/lower.hpp"
#include "core/interval_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "core/optimize.hpp"
#include "core/perturbation_estimator.hpp"
#include "core/sharded_monitor.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

constexpr float kDelta = 0.015F;
constexpr std::size_t kLayer = 4;
constexpr std::size_t kTrainInputs = 256;
constexpr std::size_t kShards = 4;

std::vector<Tensor> random_inputs(std::size_t n, Rng& rng) {
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Tensor::random_uniform({16}, rng));
  }
  return inputs;
}

/// The serving MLP, its training inputs and thresholds, built as the
/// serving fixture builds them (same seed, same order of draws).
struct Fixture {
  Rng rng{123};
  Network net = make_mlp({16, 64, 32, 8}, rng);
  std::vector<Tensor> train = random_inputs(kTrainInputs, rng);
  MonitorBuilder builder{net, kLayer};
  ThresholdSpec spec = ThresholdSpec::from_percentiles(
      builder.collect_stats(train, /*keep_samples=*/true), 2);
  /// Query features: training inputs (stored), inputs inside their
  /// Δ-box (stored by Lemma 1), and fresh random inputs (mostly not).
  std::vector<std::vector<float>> queries;

  Fixture() {
    for (std::size_t i = 0; i < 80; ++i) {
      queries.push_back(builder.features(train[i * 3]));
      Tensor near = train[i * 3 + 1];
      for (std::size_t j = 0; j < near.numel(); ++j) {
        near[j] += float(rng.uniform() * 2.0 - 1.0) * kDelta;
      }
      queries.push_back(builder.features(near));
      queries.push_back(builder.features(Tensor::random_uniform({16}, rng)));
    }
  }

  [[nodiscard]] PerturbationSpec perturbation() const {
    return PerturbationSpec{0, kDelta, BoundDomain::kBox};
  }

  [[nodiscard]] IntervalMonitor build_flat() const {
    IntervalMonitor monitor(spec);
    builder.build_robust(monitor, train, perturbation());
    return monitor;
  }

  /// n query features cycled from the pool; every fifth carries a NaN.
  [[nodiscard]] FeatureBatch batch(std::size_t n, std::size_t offset) const {
    FeatureBatch b(spec.dimension(), n);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<float> v = queries[(offset + i) % queries.size()];
      if (i % 5 == 2) {
        v[(offset + i) % v.size()] = std::numeric_limits<float>::quiet_NaN();
      }
      b.set_sample(i, v);
    }
    return b;
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

/// Compiled batch ≡ interpreted batch ≡ interpreted scalar ≡ compiled
/// scalar, at every batch size around the walk's cutoffs.
void expect_agree(const Monitor& interpreted,
                  const compile::CompiledMonitor& compiled) {
  const Fixture& f = fixture();
  std::size_t accepted = 0, rejected = 0;
  std::size_t offset = 0;
  for (const std::size_t n : {std::size_t(1), bdd::kMinBatchWalk - 1,
                              bdd::kMinBatchWalk, std::size_t(63),
                              std::size_t(64), std::size_t(65),
                              std::size_t(200)}) {
    SCOPED_TRACE("batch " + std::to_string(n));
    const FeatureBatch queries = f.batch(n, offset);
    offset += n;
    auto want = std::make_unique<bool[]>(n);
    auto got = std::make_unique<bool[]>(n);
    interpreted.contains_batch(queries, {want.get(), n});
    compiled.contains_batch(queries, {got.get(), n});
    std::vector<float> sample(queries.dimension());
    for (std::size_t i = 0; i < n; ++i) {
      queries.copy_sample(i, sample);
      const bool scalar = interpreted.contains(sample);
      EXPECT_EQ(want[i], scalar) << "interpreted batch, sample " << i;
      EXPECT_EQ(got[i], scalar) << "compiled batch, sample " << i;
      EXPECT_EQ(compiled.contains(sample), scalar) << "compiled, sample " << i;
      ++(scalar ? accepted : rejected);
    }
  }
  // Both verdicts occur, so agreement is not vacuous.
  EXPECT_GT(accepted, 50U);
  EXPECT_GT(rejected, 10U);
}

TEST(RealisticWalk, FlatCompiledMatchesInterpreted) {
  const IntervalMonitor monitor = fixture().build_flat();
  ASSERT_GT(monitor.bdd_node_count(), 10000U);
  const compile::CompiledMonitor compiled =
      compile::compile_monitor(monitor, compile::CompileOptions{0, 1});
  ASSERT_GT(compiled.total_nodes(), 10000U);
  expect_agree(monitor, compiled);
}

TEST(RealisticWalk, OptimizedCompiledMatchesInterpreted) {
  IntervalMonitor monitor = fixture().build_flat();
  const IntervalMonitor original = monitor;
  OptimizeOptions options;
  options.sift_passes = 1;
  const OptimizeReport report = optimize_monitor(monitor, options);
  ASSERT_GT(report.nodes_after, 10000U);
  const compile::CompiledMonitor compiled =
      compile::compile_monitor(monitor, compile::CompileOptions{0, 1});
  expect_agree(monitor, compiled);
  // Reordering changes the representation, never the verdicts.
  expect_agree(original, compiled);
}

TEST(RealisticWalk, ShardedCompiledMatchesInterpreted) {
  const Fixture& f = fixture();
  ShardedMonitor monitor = ShardedMonitor::interval(
      f.builder.shard_plan(kShards), f.spec);
  f.builder.build_robust(monitor, f.train, f.perturbation());
  compile::CompiledMonitor compiled = compile::compile_monitor(
      monitor, compile::CompileOptions{0, kShards});
  ASSERT_EQ(compiled.shard_count(), kShards);
  expect_agree(monitor, compiled);
  compiled.set_threads(kShards);
  expect_agree(monitor, compiled);
}

}  // namespace
}  // namespace ranm
