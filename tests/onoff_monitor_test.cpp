// The on-off monitor is the 1-bit IntervalMonitor; these tests pin its
// on-off semantics (paper §III-A, robust variant §III-B).
#include <gtest/gtest.h>

#include "core/interval_monitor.hpp"
#include "core/neuron_stats.hpp"

#include "util/rng.hpp"

namespace ranm {
namespace {

IntervalMonitor sign_monitor(std::size_t dim) {
  return IntervalMonitor(ThresholdSpec::onoff(std::vector<float>(dim, 0.0F)));
}

TEST(OnOffMonitor, EmptySetWarnsAlways) {
  auto m = sign_monitor(3);
  EXPECT_TRUE(m.warn(std::vector<float>{1.0F, 1.0F, 1.0F}));
  EXPECT_DOUBLE_EQ(m.pattern_count(), 0.0);
}

TEST(OnOffMonitor, ObservedPatternAccepted) {
  auto m = sign_monitor(3);
  m.observe(std::vector<float>{1.0F, -1.0F, 2.0F});  // pattern 101
  EXPECT_FALSE(m.warn(std::vector<float>{0.5F, -3.0F, 0.1F}));  // same word
  EXPECT_TRUE(m.warn(std::vector<float>{-0.5F, -3.0F, 0.1F}));  // 001
  EXPECT_DOUBLE_EQ(m.pattern_count(), 1.0);
}

TEST(OnOffMonitor, PatternExtraction) {
  auto m = sign_monitor(3);
  const auto p = m.codes(std::vector<float>{1.0F, 0.0F, -2.0F});
  // v > c strictly: 0.0 at threshold 0.0 maps to 0.
  EXPECT_EQ(p, (std::vector<std::uint64_t>{1, 0, 0}));
}

TEST(OnOffMonitor, RobustBoundsInsertDontCares) {
  auto m = sign_monitor(3);
  // Neuron 0 certainly on, neuron 1 certainly off, neuron 2 straddles.
  m.observe_bounds(std::vector<float>{1.0F, -2.0F, -0.5F},
                   std::vector<float>{2.0F, -1.0F, 0.5F});
  // Both resolutions of the don't-care bit are in the set.
  EXPECT_FALSE(m.warn(std::vector<float>{1.5F, -1.5F, 1.0F}));   // 1,0,1
  EXPECT_FALSE(m.warn(std::vector<float>{1.5F, -1.5F, -1.0F}));  // 1,0,0
  EXPECT_TRUE(m.warn(std::vector<float>{-1.0F, -1.5F, 0.0F}));   // 0,0,0
  EXPECT_DOUBLE_EQ(m.pattern_count(), 2.0);
}

TEST(OnOffMonitor, RobustSupersetOfStandard) {
  // abR covers ab: every feature accepted by the standard monitor is
  // accepted by the robust monitor built from enclosing bounds.
  Rng rng(5);
  auto standard = sign_monitor(6);
  auto robust = sign_monitor(6);
  std::vector<std::vector<float>> features;
  for (int i = 0; i < 40; ++i) {
    std::vector<float> v(6), lo(6), hi(6);
    for (int j = 0; j < 6; ++j) {
      v[j] = rng.uniform_f(-1, 1);
      lo[j] = v[j] - 0.2F;
      hi[j] = v[j] + 0.2F;
    }
    standard.observe(v);
    robust.observe_bounds(lo, hi);
    features.push_back(std::move(v));
  }
  for (const auto& v : features) {
    EXPECT_FALSE(robust.warn(v));
  }
  EXPECT_GE(robust.pattern_count(), standard.pattern_count());
}

TEST(OnOffMonitor, Word2SetLinearBddGrowth) {
  // Footnote 2: inserting a word with many don't-cares must stay linear.
  const std::size_t dim = 128;
  IntervalMonitor m(ThresholdSpec::onoff(std::vector<float>(dim, 0.0F)));
  std::vector<float> lo(dim, -1.0F), hi(dim, 1.0F);
  // Constrain only the first 4 neurons; 124 don't-cares.
  for (int j = 0; j < 4; ++j) {
    lo[j] = 0.5F;
    hi[j] = 1.0F;
  }
  m.observe_bounds(lo, hi);
  // 2^124 words stored in a tiny BDD.
  EXPECT_LE(m.bdd_node_count(), 8U);
  EXPECT_GT(m.pattern_count(), 1e30);
}

TEST(OnOffMonitor, HammingEnlargeGrowsSet) {
  auto m = sign_monitor(4);
  m.observe(std::vector<float>{1.0F, 1.0F, 1.0F, 1.0F});  // 1111
  EXPECT_DOUBLE_EQ(m.pattern_count(), 1.0);
  m.enlarge_hamming(1);
  EXPECT_DOUBLE_EQ(m.pattern_count(), 5.0);  // 1111 + 4 flips
  EXPECT_FALSE(m.warn(std::vector<float>{-1.0F, 1.0F, 1.0F, 1.0F}));
  EXPECT_TRUE(m.warn(std::vector<float>{-1.0F, -1.0F, 1.0F, 1.0F}));
}

TEST(OnOffMonitor, HammingEnlargeRadiusTwo) {
  auto m = sign_monitor(4);
  m.observe(std::vector<float>{1.0F, 1.0F, 1.0F, 1.0F});
  m.enlarge_hamming(2);
  // 1 + 4 + 6 = 11 words within distance 2.
  EXPECT_DOUBLE_EQ(m.pattern_count(), 11.0);
}

TEST(OnOffMonitor, HammingDistanceQuantitative) {
  auto m = sign_monitor(4);
  m.observe(std::vector<float>{1.0F, 1.0F, 1.0F, 1.0F});
  const std::vector<float> off1{-1.0F, 1.0F, 1.0F, 1.0F};
  const std::vector<float> off3{-1.0F, -1.0F, -1.0F, 1.0F};
  EXPECT_EQ(m.hamming_distance(std::vector<float>{2.0F, 2.0F, 2.0F, 2.0F}, 4),
            std::optional<unsigned>(0));
  EXPECT_EQ(m.hamming_distance(off1, 4), std::optional<unsigned>(1));
  EXPECT_EQ(m.hamming_distance(off3, 4), std::optional<unsigned>(3));
  EXPECT_EQ(m.hamming_distance(off3, 2), std::nullopt);  // capped
}

TEST(OnOffMonitor, HammingDistanceEmptySet) {
  auto m = sign_monitor(2);
  EXPECT_EQ(m.hamming_distance(std::vector<float>{1.0F, 1.0F}, 2),
            std::nullopt);
}

TEST(OnOffMonitor, MeanThresholds) {
  // The "average of visited values" strategy from the paper.
  NeuronStats stats(2);
  stats.add(std::vector<float>{0.0F, 10.0F});
  stats.add(std::vector<float>{4.0F, 30.0F});
  IntervalMonitor m(ThresholdSpec::from_means(stats));
  m.observe(std::vector<float>{3.0F, 15.0F});  // pattern (1, 0)
  EXPECT_FALSE(m.warn(std::vector<float>{100.0F, 0.0F}));
  EXPECT_TRUE(m.warn(std::vector<float>{0.0F, 0.0F}));
}

TEST(OnOffMonitor, DimensionValidation) {
  auto m = sign_monitor(2);
  EXPECT_THROW(m.observe(std::vector<float>{1.0F}), std::invalid_argument);
  EXPECT_THROW(m.observe_bounds(std::vector<float>{1.0F},
                                std::vector<float>{1.0F, 2.0F}),
               std::invalid_argument);
  EXPECT_THROW((void)m.contains(std::vector<float>{1.0F, 2.0F, 3.0F}),
               std::invalid_argument);
}

TEST(OnOffMonitor, DescribeMentionsPatterns) {
  auto m = sign_monitor(2);
  m.observe(std::vector<float>{1.0F, 1.0F});
  EXPECT_NE(m.describe().find("patterns="), std::string::npos);
  // Compiled artifacts store this text; it keeps the on-off name.
  EXPECT_EQ(m.describe().rfind("OnOffMonitor(d=2, ", 0), 0U);
}

}  // namespace
}  // namespace ranm
