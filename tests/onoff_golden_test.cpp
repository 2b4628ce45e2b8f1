// Byte pins for on-off monitor artifacts. The sizes and hashes below were
// taken from artifacts written by the former dedicated on-off monitor
// class. The 1-bit IntervalMonitor must write the same bytes under the
// on-off tags, so every deployed on-off artifact (flat, versioned, sharded
// and compiled) loads and re-saves unchanged. Any byte change fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "compile/compiled_io.hpp"
#include "compile/lower.hpp"
#include "core/feature_batch.hpp"
#include "core/interval_monitor.hpp"
#include "core/shard_plan.hpp"
#include "core/sharded_monitor.hpp"
#include "core/threshold_spec.hpp"
#include "io/serialize.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

constexpr std::size_t kDim = 12;

struct Digest {
  std::size_t size = 0;
  std::uint64_t fnv1a = 0;
  bool operator==(const Digest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{" << d.size << ", 0x" << std::hex << d.fnv1a << std::dec
            << "}";
}

Digest digest(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return {bytes.size(), h};
}

/// One threshold per neuron, each distinct (the exclusive flag on every
/// third neuron exercises the inclusivity byte of the spec).
ThresholdSpec onoff_spec() {
  std::vector<std::vector<Threshold>> per_neuron(kDim);
  for (std::size_t j = 0; j < kDim; ++j) {
    per_neuron[j] = {{-0.3F + 0.05F * float(j), j % 3 != 0}};
  }
  return ThresholdSpec(1, std::move(per_neuron));
}

std::vector<float> sample(Rng& rng) {
  std::vector<float> v(kDim);
  for (auto& x : v) x = rng.uniform_f(-1, 1);
  return v;
}

/// Concrete words, then robust boxes (don't-care neurons included).
void fill(Monitor& m) {
  Rng rng(21);
  for (int i = 0; i < 40; ++i) m.observe(sample(rng));
  for (int i = 0; i < 8; ++i) {
    std::vector<float> lo = sample(rng);
    std::vector<float> hi = lo;
    for (auto& x : hi) x += 0.3F;
    m.observe_bounds(lo, hi);
  }
}

/// Profiled queries through both the lazy per-sample walk (3 samples)
/// and the batched walk (32 samples).
void profile(Monitor& m) {
  Rng rng(22);
  m.set_profiling(true);
  for (const std::size_t n : {std::size_t(3), std::size_t(32)}) {
    std::vector<std::vector<float>> rows;
    for (std::size_t i = 0; i < n; ++i) rows.push_back(sample(rng));
    const FeatureBatch batch = FeatureBatch::from_samples(kDim, rows);
    const std::unique_ptr<bool[]> out(new bool[n]);
    m.contains_batch(batch, {out.get(), n});
  }
  m.set_profiling(false);
}

ShardedMonitor four_shards() {
  return ShardedMonitor::interval(
      ShardPlan::make(ShardStrategy::kContiguous, kDim, 4), onoff_spec());
}

std::string saved(const Monitor& m) {
  std::ostringstream out;
  save_any_monitor(out, m);
  return out.str();
}

std::string compiled(const Monitor& m) {
  std::ostringstream out;
  compile::save_compiled_monitor(out, compile::compile_monitor(m));
  return out.str();
}

TEST(OnOffGolden, FlatV1) {
  IntervalMonitor m(onoff_spec());
  fill(m);
  EXPECT_EQ(digest(saved(m)), (Digest{2072, 0x6769853924b1b4bcULL}));
}

TEST(OnOffGolden, FlatV2CustomOrderAndProfileCounts) {
  IntervalMonitor m(onoff_spec());
  std::vector<std::uint32_t> order(kDim);
  for (std::size_t j = 0; j < kDim; ++j) {
    order[j] = static_cast<std::uint32_t>((j * 5) % kDim);
  }
  m.apply_variable_order(order);
  fill(m);
  profile(m);
  EXPECT_EQ(digest(saved(m)), (Digest{3440, 0x4f2d5ef2d7178405ULL}));
}

TEST(OnOffGolden, FourShards) {
  ShardedMonitor m = four_shards();
  fill(m);
  EXPECT_EQ(digest(saved(m)), (Digest{360, 0xe9a1ae1d4094ff3aULL}));
}

TEST(OnOffGolden, CompiledFlat) {
  IntervalMonitor m(onoff_spec());
  fill(m);
  EXPECT_EQ(digest(compiled(m)), (Digest{1077, 0xe17529a761dd5151ULL}));
}

TEST(OnOffGolden, CompiledFourShards) {
  ShardedMonitor m = four_shards();
  fill(m);
  EXPECT_EQ(digest(compiled(m)), (Digest{497, 0x2c7ead37fa2b307eULL}));
}

TEST(OnOffGolden, LoadAndResaveIsByteIdentical) {
  IntervalMonitor m(onoff_spec());
  fill(m);
  profile(m);
  const std::string bytes = saved(m);
  std::istringstream in(bytes);
  EXPECT_EQ(saved(*load_any_monitor(in)), bytes);
}

}  // namespace
}  // namespace ranm
