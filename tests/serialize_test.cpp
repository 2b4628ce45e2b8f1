#include "io/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "bdd/bdd.hpp"
#include "bdd/bdd_io.hpp"
#include "core/monitor_builder.hpp"
#include "core/neuron_stats.hpp"
#include "io/wire.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/normalization.hpp"
#include "util/rng.hpp"

namespace ranm {
namespace {

TEST(Serialize, MlpRoundTripPreservesFunction) {
  Rng rng(1);
  Network net = make_mlp({4, 8, 6, 3}, rng);
  std::stringstream ss;
  save_network(ss, net);
  Network loaded = load_network(ss);
  ASSERT_EQ(loaded.num_layers(), net.num_layers());
  for (int i = 0; i < 20; ++i) {
    Tensor x = Tensor::random_uniform({4}, rng);
    EXPECT_TRUE(loaded.forward(x).allclose(net.forward(x), 1e-6F));
  }
}

TEST(Serialize, ConvnetRoundTripPreservesFunction) {
  Rng rng(2);
  Network net = make_small_convnet(12, 12, 4, 10, 3, rng);
  std::stringstream ss;
  save_network(ss, net);
  Network loaded = load_network(ss);
  for (int i = 0; i < 10; ++i) {
    Tensor x = Tensor::random_uniform({1, 12, 12}, rng, 0.0F, 1.0F);
    EXPECT_TRUE(loaded.forward(x).allclose(net.forward(x), 1e-6F));
  }
}

TEST(Serialize, NormalizationLayerRoundTrip) {
  Rng rng(8);
  Network net;
  net.emplace<Normalization>(Shape{4}, std::vector<float>{0.1F, 0.2F, 0.3F,
                                                          0.4F},
                             std::vector<float>{1.0F, 2.0F, 3.0F, 4.0F});
  net.emplace<Dense>(4, 2);
  net.init_params(rng);
  std::stringstream ss;
  save_network(ss, net);
  Network loaded = load_network(ss);
  for (int i = 0; i < 20; ++i) {
    Tensor x = Tensor::random_uniform({4}, rng);
    EXPECT_TRUE(loaded.forward(x).allclose(net.forward(x), 1e-6F));
  }
}

TEST(Serialize, NetworkRejectsGarbage) {
  std::stringstream ss;
  ss << "not a network";
  EXPECT_THROW((void)load_network(ss), std::runtime_error);
}

// Hostile streams must fail with the std::runtime_error serialize.hpp
// documents, whichever check rejects them (both found by the fuzz
// corpus replay, which now accepts no other exception type).
TEST(Serialize, NetworkShapeMismatchThrowsRuntimeError) {
  // A Dense(4->3) followed by a ReLU over 5 inputs: each layer is valid,
  // the chain is not. Spliced from two one-layer artifacts (magic, u64
  // layer count, layer records).
  const auto one_layer = [](auto&& layer) {
    Network net;
    net.add(std::forward<decltype(layer)>(layer));
    std::stringstream ss;
    save_network(ss, net);
    return ss.str();
  };
  const std::string dense = one_layer(std::make_unique<Dense>(4, 3));
  const std::string relu = one_layer(std::make_unique<ReLU>(Shape{5}));
  constexpr std::size_t kHeader = 4 + 8;
  std::string spliced = dense;
  const std::uint64_t two = 2;
  spliced.replace(4, 8, reinterpret_cast<const char*>(&two), 8);
  spliced += relu.substr(kHeader);
  std::stringstream ss(spliced);
  EXPECT_THROW((void)load_network(ss), std::runtime_error);
}

TEST(Serialize, BddNodeVariableOutOfRangeThrowsRuntimeError) {
  // A one-node BDD over variable 3 whose header claims 2 variables: the
  // header check passes for a 2-variable manager, the node does not.
  bdd::BddManager saved_with(4);
  std::stringstream out;
  (void)bdd::save_bdd(out, saved_with, saved_with.var(3));
  std::string bytes = out.str();
  const std::uint32_t two = 2;
  bytes.replace(4, 4, reinterpret_cast<const char*>(&two), 4);
  bdd::BddManager mgr(2);
  std::stringstream in(bytes);
  EXPECT_THROW((void)bdd::load_bdd(in, mgr), std::runtime_error);
}

TEST(Serialize, ThresholdSpecRoundTrip) {
  const auto spec = ThresholdSpec::paper_two_bit(
      std::vector<float>{-1.0F, -2.0F}, std::vector<float>{0.0F, 0.5F},
      std::vector<float>{1.0F, 3.0F});
  std::stringstream ss;
  save_threshold_spec(ss, spec);
  const auto loaded = load_threshold_spec(ss);
  EXPECT_EQ(loaded.bits(), 2U);
  EXPECT_EQ(loaded.dimension(), 2U);
  for (float v : {-3.0F, -1.0F, 0.0F, 0.7F, 2.0F, 5.0F}) {
    EXPECT_EQ(loaded.code(0, v), spec.code(0, v));
    EXPECT_EQ(loaded.code(1, v), spec.code(1, v));
  }
}

TEST(Serialize, MinMaxMonitorRoundTrip) {
  MinMaxMonitor m(3);
  m.observe(std::vector<float>{1.0F, -1.0F, 0.0F});
  m.observe(std::vector<float>{2.0F, -3.0F, 0.5F});
  std::stringstream ss;
  save_monitor(ss, m);
  const auto loaded = load_minmax_monitor(ss);
  EXPECT_EQ(loaded.dimension(), 3U);
  EXPECT_EQ(loaded.observation_count(), 2U);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> probe{float(trial) * 0.1F - 2.0F,
                             float(trial) * -0.2F + 1.0F, 0.25F};
    EXPECT_EQ(loaded.warn(probe), m.warn(probe));
  }
}

TEST(Serialize, OnOffMonitorRoundTrip) {
  Rng rng(3);
  IntervalMonitor m(ThresholdSpec::onoff(std::vector<float>(5, 0.0F)));
  for (int i = 0; i < 20; ++i) {
    std::vector<float> v(5);
    for (auto& x : v) x = rng.uniform_f(-1, 1);
    m.observe(v);
  }
  // Include a robust don't-care insertion.
  m.observe_bounds(std::vector<float>{-1, -1, -0.1F, 1, 1},
                   std::vector<float>{-0.5F, -0.5F, 0.1F, 2, 2});
  std::stringstream ss;
  save_monitor(ss, m);
  auto loaded = load_interval_monitor(ss);
  EXPECT_DOUBLE_EQ(loaded.pattern_count(), m.pattern_count());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> probe(5);
    for (auto& x : probe) x = rng.uniform_f(-2, 2);
    EXPECT_EQ(loaded.warn(probe), m.warn(probe));
  }
}

TEST(Serialize, IntervalMonitorRoundTrip) {
  Rng rng(4);
  IntervalMonitor m(ThresholdSpec::paper_two_bit(
      std::vector<float>(4, -1.0F), std::vector<float>(4, 0.0F),
      std::vector<float>(4, 1.0F)));
  for (int i = 0; i < 15; ++i) {
    std::vector<float> v(4);
    for (auto& x : v) x = rng.uniform_f(-2, 2);
    m.observe(v);
  }
  m.observe_bounds(std::vector<float>{-0.5F, 0.0F, 1.5F, -2.0F},
                   std::vector<float>{0.5F, 0.2F, 2.0F, -1.5F});
  std::stringstream ss;
  save_monitor(ss, m);
  auto loaded = load_interval_monitor(ss);
  EXPECT_DOUBLE_EQ(loaded.pattern_count(), m.pattern_count());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> probe(4);
    for (auto& x : probe) x = rng.uniform_f(-3, 3);
    EXPECT_EQ(loaded.warn(probe), m.warn(probe));
  }
}

TEST(Serialize, AnyMonitorRoundTripsEachType) {
  Rng rng(11);
  // Min-max.
  MinMaxMonitor mm(2);
  mm.observe(std::vector<float>{1.0F, -1.0F});
  // On-off.
  IntervalMonitor oo(ThresholdSpec::onoff(std::vector<float>(3, 0.0F)));
  oo.observe(std::vector<float>{1.0F, -1.0F, 1.0F});
  // Interval.
  IntervalMonitor iv(ThresholdSpec::paper_two_bit(
      std::vector<float>{-1.0F}, std::vector<float>{0.0F},
      std::vector<float>{1.0F}));
  iv.observe(std::vector<float>{0.5F});

  const Monitor* monitors[] = {&mm, &oo, &iv};
  for (const Monitor* m : monitors) {
    std::stringstream ss;
    save_any_monitor(ss, *m);
    const auto loaded = load_any_monitor(ss);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->dimension(), m->dimension());
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<float> probe(m->dimension());
      for (auto& x : probe) x = rng.uniform_f(-2, 2);
      EXPECT_EQ(loaded->warn(probe), m->warn(probe));
    }
  }
}

TEST(Serialize, AnyMonitorPreservesDynamicType) {
  MinMaxMonitor mm(2);
  mm.observe(std::vector<float>{0.0F, 0.0F});
  std::stringstream ss;
  save_any_monitor(ss, mm);
  const auto loaded = load_any_monitor(ss);
  EXPECT_NE(dynamic_cast<MinMaxMonitor*>(loaded.get()), nullptr);
}

TEST(Serialize, AnyMonitorRejectsUnsupportedType) {
  // BoxClusterMonitor is intentionally unsupported.
  class Fake final : public Monitor {
   public:
    std::size_t dimension() const noexcept override { return 1; }
    void observe(std::span<const float>) override {}
    void observe_bounds(std::span<const float>,
                        std::span<const float>) override {}
    bool contains(std::span<const float>) const override { return true; }
    std::string describe() const override { return "Fake"; }
  } fake;
  std::stringstream ss;
  EXPECT_THROW(save_any_monitor(ss, fake), std::invalid_argument);
}

TEST(Serialize, MonitorTagMismatchThrows) {
  MinMaxMonitor m(2);
  m.observe(std::vector<float>{0.0F, 0.0F});
  std::stringstream ss;
  save_monitor(ss, m);
  EXPECT_THROW((void)load_interval_monitor(ss), std::runtime_error);
}

TEST(Serialize, DatasetRoundTrip) {
  Dataset ds;
  Rng rng(5);
  for (int i = 0; i < 7; ++i) {
    ds.inputs.push_back(Tensor::random_uniform({1, 3, 3}, rng));
    ds.targets.push_back(Tensor::random_uniform({2}, rng));
  }
  std::stringstream ss;
  save_dataset(ss, ds);
  const Dataset loaded = load_dataset(ss);
  ASSERT_EQ(loaded.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_TRUE(loaded.inputs[i].allclose(ds.inputs[i], 0.0F));
    EXPECT_TRUE(loaded.targets[i].allclose(ds.targets[i], 0.0F));
  }
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(6);
  Network net = make_mlp({3, 5, 2}, rng);
  const std::string path = ::testing::TempDir() + "/ranm_net.bin";
  save_network_file(path, net);
  Network loaded = load_network_file(path);
  Tensor x = Tensor::random_uniform({3}, rng);
  EXPECT_TRUE(loaded.forward(x).allclose(net.forward(x), 1e-6F));
  EXPECT_THROW((void)load_network_file("/nonexistent/nope.bin"),
               std::runtime_error);
}

TEST(Serialize, DeployedMonitorPipeline) {
  // End-to-end: train-side builds and saves network + robust monitor;
  // vehicle-side loads both and answers identically.
  Rng rng(7);
  Network net = make_mlp({4, 10, 6}, rng);
  std::vector<Tensor> train;
  for (int i = 0; i < 25; ++i) train.push_back(Tensor::random_uniform({4}, rng));
  MonitorBuilder builder(net, net.num_layers());
  NeuronStats stats = builder.collect_stats(train, true);
  IntervalMonitor monitor(ThresholdSpec::from_percentiles(stats, 2));
  builder.build_robust(monitor, train,
                       PerturbationSpec{0, 0.05F, BoundDomain::kBox});

  std::stringstream net_ss, mon_ss;
  save_network(net_ss, net);
  save_monitor(mon_ss, monitor);

  Network net2 = load_network(net_ss);
  auto monitor2 = load_interval_monitor(mon_ss);
  MonitorBuilder builder2(net2, net2.num_layers());
  for (int i = 0; i < 50; ++i) {
    Tensor probe = Tensor::random_uniform({4}, rng, -1.5F, 1.5F);
    EXPECT_EQ(builder2.warns(monitor2, probe), builder.warns(monitor, probe));
  }
}

// Regressions for the kMaxMonitorDim loader caps (found by fuzzing): a
// tiny stream with a huge-but-formerly-accepted dimension header must be
// rejected before the loader commits hundreds of megabytes up front.

void put_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

TEST(Serialize, ThresholdSpecRejectsDimAboveMonitorCap) {
  std::stringstream ss;
  put_u32(ss, 0x52545331U);                // RTS1
  put_u64(ss, io::kMaxMonitorDim + 1);     // dim: just past the cap
  put_u64(ss, 2);                          // bits
  EXPECT_THROW((void)load_threshold_spec(ss), std::runtime_error);
}

TEST(Serialize, OnOffMonitorRejectsHugeSpecHeader) {
  // The exact hostile stream the fuzzer flagged: ~30 bytes claiming a
  // 2^24-neuron spec, which used to size a ~400 MB per-neuron table.
  std::stringstream ss;
  put_u32(ss, 0x524D4F31U);  // RMO1
  put_u32(ss, 2);            // MonitorTag::kOnOff
  put_u32(ss, 0x52545331U);  // RTS1
  put_u64(ss, 1ULL << 24);   // dim
  put_u64(ss, 16);           // bits
  EXPECT_THROW((void)load_any_monitor(ss), std::runtime_error);
}

TEST(Serialize, OnOffTagRejectsMultiBitSpec) {
  // An on-off tag promises a 1-bit spec. A 2-bit interval artifact whose
  // tag byte is rewritten to the on-off tag (3 -> 2, and 5 -> 4 for the
  // versioned body) is a corrupt stream, reported like every other
  // decoder error.
  for (const bool v2 : {false, true}) {
    IntervalMonitor iv(ThresholdSpec::paper_two_bit(
        std::vector<float>{-1.0F, -1.0F}, std::vector<float>{0.0F, 0.0F},
        std::vector<float>{1.0F, 1.0F}));
    if (v2) iv.apply_variable_order({3, 2, 1, 0});
    iv.observe(std::vector<float>{0.5F, -0.5F});
    std::stringstream ss;
    save_monitor(ss, iv);
    std::string bytes = ss.str();
    ASSERT_EQ(std::uint8_t(bytes[4]), v2 ? 5 : 3);
    bytes[4] = char(v2 ? 4 : 2);
    std::istringstream any(bytes);
    EXPECT_THROW((void)load_any_monitor(any), std::runtime_error);
    std::istringstream typed(bytes);
    EXPECT_THROW((void)load_interval_monitor(typed), std::runtime_error);
  }
}

TEST(Serialize, OneBitIntervalSavesUnderOnOffTag) {
  // A 1-bit interval monitor is the on-off monitor: it saves under the
  // on-off tag and loads back as the same set.
  NeuronStats stats(3, true);
  Rng rng(12);
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 30; ++i) {
    std::vector<float> v(3);
    for (auto& x : v) x = rng.uniform_f(-1, 1);
    stats.add(v);
    data.push_back(std::move(v));
  }
  IntervalMonitor m(ThresholdSpec::from_percentiles(stats, 1));
  for (const auto& v : data) m.observe(v);
  std::stringstream ss;
  save_any_monitor(ss, m);
  EXPECT_EQ(std::uint8_t(ss.str()[4]), 2);  // MonitorTag::kOnOff
  const auto loaded = load_any_monitor(ss);
  const auto* iv = dynamic_cast<const IntervalMonitor*>(loaded.get());
  ASSERT_NE(iv, nullptr);
  EXPECT_EQ(iv->bits(), 1U);
  EXPECT_DOUBLE_EQ(iv->pattern_count(), m.pattern_count());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> probe(3);
    for (auto& x : probe) x = rng.uniform_f(-1.5, 1.5);
    EXPECT_EQ(iv->warn(probe), m.warn(probe));
  }
}

TEST(Serialize, MinMaxMonitorRejectsDimAboveMonitorCap) {
  std::stringstream ss;
  put_u32(ss, 0x524D4F31U);             // RMO1
  put_u32(ss, 1);                       // MonitorTag::kMinMax
  put_u64(ss, io::kMaxMonitorDim + 1);  // dim
  put_u64(ss, 0);                       // observation count
  EXPECT_THROW((void)load_any_monitor(ss), std::runtime_error);
}

TEST(Serialize, NormalizationRejectsLayerSizeAboveMonitorCap) {
  std::stringstream ss;
  put_u32(ss, 0x524E4E31U);             // RNN1
  put_u64(ss, 1);                       // one layer
  put_u32(ss, 10);                      // LayerTag::kNormalization
  put_u64(ss, 1);                       // shape rank
  put_u64(ss, io::kMaxMonitorDim + 1);  // feature count
  EXPECT_THROW((void)load_network(ss), std::runtime_error);
}

TEST(Serialize, MonitorDimAtCapStillHasBoundedHeaderCheck) {
  // dim == kMaxMonitorDim itself passes the header check and then fails
  // on the truncated per-neuron reads — the accepted side of the bound.
  std::stringstream ss;
  put_u32(ss, 0x524D4F31U);         // RMO1
  put_u32(ss, 1);                   // MonitorTag::kMinMax
  put_u64(ss, io::kMaxMonitorDim);  // dim: exactly at the cap
  put_u64(ss, 0);                   // observation count, then EOF
  EXPECT_THROW((void)load_any_monitor(ss), std::runtime_error);
}

}  // namespace
}  // namespace ranm
