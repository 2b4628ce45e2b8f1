#include "core/interval_monitor.hpp"

#include <gtest/gtest.h>

#include "core/minmax_monitor.hpp"
#include "core/neuron_stats.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

ThresholdSpec two_bit(std::size_t dim) {
  return ThresholdSpec::paper_two_bit(std::vector<float>(dim, -1.0F),
                                      std::vector<float>(dim, 0.0F),
                                      std::vector<float>(dim, 1.0F));
}

TEST(IntervalMonitor, EmptyWarnsAlways) {
  IntervalMonitor m(two_bit(2));
  EXPECT_TRUE(m.warn(std::vector<float>{0.0F, 0.0F}));
  EXPECT_DOUBLE_EQ(m.pattern_count(), 0.0);
}

TEST(IntervalMonitor, ObservedCodeWordAccepted) {
  IntervalMonitor m(two_bit(2));
  m.observe(std::vector<float>{0.5F, -2.0F});  // codes (2, 0)
  EXPECT_EQ(m.codes(std::vector<float>{0.5F, -2.0F}),
            (std::vector<std::uint64_t>{2, 0}));
  // Same codes, different values: accepted.
  EXPECT_FALSE(m.warn(std::vector<float>{0.9F, -1.5F}));
  // Different code in one neuron: warned.
  EXPECT_TRUE(m.warn(std::vector<float>{2.0F, -2.0F}));
  EXPECT_DOUBLE_EQ(m.pattern_count(), 1.0);
}

TEST(IntervalMonitor, RobustRangeInsertion) {
  IntervalMonitor m(two_bit(1));
  // Bound [-0.5, 0.5] straddles codes 1 and 2.
  m.observe_bounds(std::vector<float>{-0.5F}, std::vector<float>{0.5F});
  EXPECT_FALSE(m.warn(std::vector<float>{-0.5F}));  // code 1
  EXPECT_FALSE(m.warn(std::vector<float>{0.5F}));   // code 2
  EXPECT_TRUE(m.warn(std::vector<float>{-1.5F}));   // code 0
  EXPECT_TRUE(m.warn(std::vector<float>{1.5F}));    // code 3
  EXPECT_DOUBLE_EQ(m.pattern_count(), 2.0);
}

TEST(IntervalMonitor, RobustMultiNeuronProduct) {
  IntervalMonitor m(two_bit(2));
  // Neuron 0 straddles {1,2}; neuron 1 fixed to {3}. Product = 2 words.
  m.observe_bounds(std::vector<float>{-0.5F, 2.0F},
                   std::vector<float>{0.5F, 3.0F});
  EXPECT_DOUBLE_EQ(m.pattern_count(), 2.0);
  EXPECT_FALSE(m.warn(std::vector<float>{-0.2F, 5.0F}));
  EXPECT_FALSE(m.warn(std::vector<float>{0.2F, 5.0F}));
  EXPECT_TRUE(m.warn(std::vector<float>{0.2F, 0.5F}));
}

TEST(IntervalMonitor, RobustSupersetOfStandard) {
  Rng rng(11);
  IntervalMonitor standard(two_bit(4)), robust(two_bit(4));
  std::vector<std::vector<float>> features;
  for (int i = 0; i < 60; ++i) {
    std::vector<float> v(4), lo(4), hi(4);
    for (int j = 0; j < 4; ++j) {
      v[j] = rng.uniform_f(-2, 2);
      lo[j] = v[j] - 0.3F;
      hi[j] = v[j] + 0.3F;
    }
    standard.observe(v);
    robust.observe_bounds(lo, hi);
    features.push_back(std::move(v));
  }
  for (const auto& v : features) EXPECT_FALSE(robust.warn(v));
  EXPECT_GE(robust.pattern_count(), standard.pattern_count());
}

TEST(IntervalMonitor, GeneralisesMinMaxMonitor) {
  // Footnote 3: with c3 = max, c2 = min, c1 = -inf the 2-bit interval
  // monitor that observed the training data equals the min-max monitor.
  Rng rng(12);
  const std::size_t d = 3;
  std::vector<std::vector<float>> data;
  MinMaxMonitor mm(d);
  for (int i = 0; i < 30; ++i) {
    std::vector<float> v(d);
    for (std::size_t j = 0; j < d; ++j) v[j] = rng.uniform_f(-3, 3);
    mm.observe(v);
    data.push_back(std::move(v));
  }
  std::vector<float> mins(d), maxs(d);
  for (std::size_t j = 0; j < d; ++j) {
    mins[j] = mm.lower(j);
    maxs[j] = mm.upper(j);
  }
  IntervalMonitor im(ThresholdSpec::from_minmax(mins, maxs));
  for (const auto& v : data) im.observe(v);

  // Both monitors agree on a probe grid, including boundary values.
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<float> probe(d);
    for (std::size_t j = 0; j < d; ++j) probe[j] = rng.uniform_f(-4, 4);
    EXPECT_EQ(im.warn(probe), mm.warn(probe)) << "trial " << trial;
  }
  for (std::size_t j = 0; j < d; ++j) {
    std::vector<float> probe(d, 0.0F);
    probe[j] = mins[j];
    EXPECT_EQ(im.warn(probe), mm.warn(probe));
    probe[j] = maxs[j];
    EXPECT_EQ(im.warn(probe), mm.warn(probe));
  }
}

TEST(IntervalMonitor, GeneralisesOnOffMonitor) {
  // Footnote 3 second half: c3 = +inf-ish, c1 = -inf-ish reduces the 2-bit
  // monitor to the on-off monitor with threshold c2. We emulate with very
  // large sentinels (inf itself breaks strict ordering of +-inf pairs).
  Rng rng(13);
  const std::size_t d = 4;
  const float big = 1e30F;
  auto spec2 = ThresholdSpec::paper_two_bit(std::vector<float>(d, -big),
                                            std::vector<float>(d, 0.0F),
                                            std::vector<float>(d, big));
  IntervalMonitor im(std::move(spec2));
  IntervalMonitor om(ThresholdSpec::onoff(std::vector<float>(d, 0.0F)));
  // NOTE: on-off uses v > c; the 2-bit bucket [c2, c3] uses v >= c2, so
  // agreement holds for values != 0, which random floats are a.s.
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 40; ++i) {
    std::vector<float> v(d);
    for (std::size_t j = 0; j < d; ++j) v[j] = rng.uniform_f(-2, 2);
    im.observe(v);
    om.observe(v);
    data.push_back(std::move(v));
  }
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<float> probe(d);
    for (std::size_t j = 0; j < d; ++j) probe[j] = rng.uniform_f(-3, 3);
    EXPECT_EQ(im.warn(probe), om.warn(probe));
  }
}

TEST(IntervalMonitor, ThreeBitFinerThanOneBit) {
  // More bits => finer abstraction => more warnings (or equal) on a fixed
  // probe set, given the same observed data.
  Rng rng(14);
  const std::size_t d = 3;
  NeuronStats stats(d, true);
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 50; ++i) {
    std::vector<float> v(d);
    for (std::size_t j = 0; j < d; ++j) v[j] = rng.uniform_f(-1, 1);
    stats.add(v);
    data.push_back(std::move(v));
  }
  IntervalMonitor coarse(ThresholdSpec::from_percentiles(stats, 1));
  IntervalMonitor fine(ThresholdSpec::from_percentiles(stats, 3));
  for (const auto& v : data) {
    coarse.observe(v);
    fine.observe(v);
  }
  int coarse_warn = 0, fine_warn = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<float> probe(d);
    for (std::size_t j = 0; j < d; ++j) probe[j] = rng.uniform_f(-2, 2);
    // Any probe accepted by the fine monitor maps to a visited fine code
    // word, whose coarse projection was also visited.
    if (!fine.warn(probe)) {
      EXPECT_FALSE(coarse.warn(probe));
    }
    coarse_warn += coarse.warn(probe);
    fine_warn += fine.warn(probe);
  }
  EXPECT_GE(fine_warn, coarse_warn);
}

TEST(IntervalMonitor, BddStaysSmallWithWideBounds) {
  // A very uncertain bound (all codes possible) inserts TRUE-like
  // structure, not an exponential union.
  const std::size_t d = 64;
  IntervalMonitor m(two_bit(d));
  m.observe_bounds(std::vector<float>(d, -10.0F),
                   std::vector<float>(d, 10.0F));
  EXPECT_LE(m.bdd_node_count(), 4U);
  EXPECT_FALSE(m.warn(std::vector<float>(d, 0.5F)));
}

TEST(IntervalMonitor, DimensionValidation) {
  IntervalMonitor m(two_bit(2));
  EXPECT_THROW(m.observe(std::vector<float>{1.0F}), std::invalid_argument);
  EXPECT_THROW(m.observe_bounds(std::vector<float>{0.0F, 0.0F},
                                std::vector<float>{0.0F}),
               std::invalid_argument);
  EXPECT_THROW((void)m.codes(std::vector<float>{1.0F}),
               std::invalid_argument);
}

TEST(IntervalMonitor, HammingDistanceCountsBitFlips) {
  IntervalMonitor m(two_bit(2));
  m.observe(std::vector<float>{0.5F, 0.5F});  // codes (2, 2) = bits 10 10
  // Same codes: distance 0.
  EXPECT_EQ(m.hamming_distance(std::vector<float>{0.9F, 0.1F}, 4),
            std::optional<unsigned>(0));
  // Neuron 0 at code 3 (11): one bit differs from 10.
  EXPECT_EQ(m.hamming_distance(std::vector<float>{2.0F, 0.5F}, 4),
            std::optional<unsigned>(1));
  // Neuron 0 at code 1 (01): two bits differ from 10.
  EXPECT_EQ(m.hamming_distance(std::vector<float>{-0.5F, 0.5F}, 4),
            std::optional<unsigned>(2));
  // Cap respected.
  EXPECT_EQ(m.hamming_distance(std::vector<float>{-0.5F, 0.5F}, 1),
            std::nullopt);
  // Empty monitor.
  IntervalMonitor empty(two_bit(2));
  EXPECT_EQ(empty.hamming_distance(std::vector<float>{0.0F, 0.0F}, 4),
            std::nullopt);
  EXPECT_THROW((void)m.hamming_distance(std::vector<float>{0.0F}, 4),
               std::invalid_argument);
}

TEST(IntervalMonitor, HammingDistanceZeroIffContained) {
  Rng rng(19);
  IntervalMonitor m(two_bit(3));
  for (int i = 0; i < 20; ++i) {
    std::vector<float> v(3);
    for (auto& x : v) x = rng.uniform_f(-2, 2);
    m.observe(v);
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> probe(3);
    for (auto& x : probe) x = rng.uniform_f(-2, 2);
    const auto d = m.hamming_distance(probe, 6);
    EXPECT_EQ(d.has_value() && *d == 0, m.contains(probe));
  }
}

/// A value of neuron j that `spec` codes to `code`.
float value_for_code(const ThresholdSpec& spec, std::size_t j,
                     std::uint64_t code) {
  const auto ts = spec.thresholds(j);
  if (code == 0) return ts.front().value - 1.0F;
  if (code == ts.size()) return ts.back().value + 1.0F;
  return 0.5F * (ts[code - 1].value + ts[code].value);
}

/// Three random words plus one robust box (don't-cares on odd neurons).
IntervalMonitor small_monitor(const ThresholdSpec& spec, std::uint64_t seed) {
  const std::size_t d = spec.dimension();
  Rng rng(seed);
  IntervalMonitor m(spec);
  for (int i = 0; i < 3; ++i) {
    std::vector<float> v(d);
    for (auto& x : v) x = rng.uniform_f(-2, 2);
    m.observe(v);
  }
  std::vector<float> lo(d), hi(d);
  for (std::size_t j = 0; j < d; ++j) {
    lo[j] = rng.uniform_f(-2, 1);
    hi[j] = j % 2 == 0 ? lo[j] : lo[j] + 1.0F;
  }
  m.observe_bounds(lo, hi);
  return m;
}

/// Over every code word: after enlarge_hamming(r) the monitor contains a
/// word exactly when the original set holds a word within r code bits.
void expect_enlarge_matches_brute_force(const ThresholdSpec& spec,
                                        std::uint64_t seed) {
  const std::size_t d = spec.dimension();
  const std::size_t levels = std::size_t(1) << spec.bits();
  std::size_t words = 1;
  for (std::size_t j = 0; j < d; ++j) words *= levels;
  const IntervalMonitor original = small_monitor(spec, seed);
  for (unsigned r = 0; r <= 3; ++r) {
    IntervalMonitor enlarged = small_monitor(spec, seed);
    enlarged.enlarge_hamming(r);
    std::vector<float> feature(d);
    for (std::size_t w = 0; w < words; ++w) {
      std::size_t rest = w;
      for (std::size_t j = 0; j < d; ++j) {
        feature[j] = value_for_code(spec, j, rest % levels);
        rest /= levels;
      }
      ASSERT_EQ(enlarged.contains(feature),
                original.hamming_distance(feature, r).has_value())
          << "bits=" << spec.bits() << " r=" << r << " word=" << w;
    }
  }
}

TEST(IntervalMonitor, EnlargeHammingMatchesBruteForceOneBit) {
  expect_enlarge_matches_brute_force(
      ThresholdSpec::onoff(std::vector<float>{-0.5F, 0.0F, 0.5F, 0.0F,
                                              -1.0F, 1.0F}),
      41);
}

TEST(IntervalMonitor, EnlargeHammingMatchesBruteForceTwoBit) {
  expect_enlarge_matches_brute_force(two_bit(5), 42);
}

TEST(IntervalMonitor, DescribeMentionsBits) {
  IntervalMonitor m(two_bit(2));
  EXPECT_NE(m.describe().find("bits=2"), std::string::npos);
}

}  // namespace
}  // namespace ranm
