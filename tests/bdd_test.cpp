#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <utility>

#include "core/interval_monitor.hpp"
#include "core/monitor_builder.hpp"
#include "nn/init.hpp"
#include "util/rng.hpp"

namespace ranm::bdd {
namespace {

std::vector<bool> bits_of(std::uint32_t value, std::uint32_t n) {
  std::vector<bool> a(n);
  for (std::uint32_t i = 0; i < n; ++i) a[i] = ((value >> i) & 1U) != 0;
  return a;
}

TEST(Bdd, Terminals) {
  BddManager mgr(3);
  EXPECT_EQ(BddManager::true_(), kTrue);
  EXPECT_EQ(BddManager::false_(), kFalse);
  EXPECT_TRUE(mgr.eval(kTrue, std::vector<bool>{false, false, false}));
  EXPECT_FALSE(mgr.eval(kFalse, std::vector<bool>{true, true, true}));
}

TEST(Bdd, VarSemantics) {
  BddManager mgr(2);
  const NodeRef x0 = mgr.var(0);
  EXPECT_TRUE(mgr.eval(x0, std::vector<bool>{true, false}));
  EXPECT_FALSE(mgr.eval(x0, std::vector<bool>{false, true}));
  const NodeRef nx1 = mgr.nvar(1);
  EXPECT_TRUE(mgr.eval(nx1, std::vector<bool>{true, false}));
  EXPECT_FALSE(mgr.eval(nx1, std::vector<bool>{false, true}));
}

TEST(Bdd, VarOutOfRangeThrows) {
  BddManager mgr(2);
  EXPECT_THROW((void)mgr.var(2), std::invalid_argument);
  EXPECT_THROW((void)mgr.nvar(5), std::invalid_argument);
}

TEST(Bdd, HashConsingCanonical) {
  BddManager mgr(4);
  // Structurally identical functions must be the same node.
  const NodeRef a = mgr.and_(mgr.var(0), mgr.var(1));
  const NodeRef b = mgr.and_(mgr.var(1), mgr.var(0));
  EXPECT_EQ(a, b);
  const NodeRef c = mgr.or_(mgr.nvar(0), mgr.nvar(1));
  EXPECT_EQ(mgr.not_(a), c);  // De Morgan, canonically
}

TEST(Bdd, BasicIdentities) {
  BddManager mgr(3);
  const NodeRef x = mgr.var(0);
  EXPECT_EQ(mgr.and_(x, kTrue), x);
  EXPECT_EQ(mgr.and_(x, kFalse), kFalse);
  EXPECT_EQ(mgr.or_(x, kFalse), x);
  EXPECT_EQ(mgr.or_(x, kTrue), kTrue);
  EXPECT_EQ(mgr.xor_(x, x), kFalse);
  EXPECT_EQ(mgr.xor_(x, kFalse), x);
  EXPECT_EQ(mgr.not_(mgr.not_(x)), x);
  EXPECT_EQ(mgr.and_(x, mgr.not_(x)), kFalse);
  EXPECT_EQ(mgr.or_(x, mgr.not_(x)), kTrue);
  EXPECT_EQ(mgr.implies(kFalse, x), kTrue);
  EXPECT_EQ(mgr.implies(x, kTrue), kTrue);
}

// Property test: random 3-term formulas over 5 variables evaluated against
// a brute-force truth table.
class BddSemantics : public ::testing::TestWithParam<int> {};

TEST_P(BddSemantics, MatchesTruthTable) {
  Rng rng(GetParam());
  const std::uint32_t n = 5;
  BddManager mgr(n);

  // Build a random formula tree and its concrete evaluator side by side.
  using Eval = std::function<bool(const std::vector<bool>&)>;
  std::function<std::pair<NodeRef, Eval>(int)> build =
      [&](int depth) -> std::pair<NodeRef, Eval> {
    if (depth == 0 || rng.chance(0.3)) {
      const auto v = static_cast<std::uint32_t>(rng.below(n));
      if (rng.chance(0.5)) {
        return {mgr.var(v), [v](const std::vector<bool>& a) { return a[v]; }};
      }
      return {mgr.nvar(v),
              [v](const std::vector<bool>& a) { return !a[v]; }};
    }
    auto [l, le] = build(depth - 1);
    auto [r, re] = build(depth - 1);
    switch (rng.below(4)) {
      case 0:
        return {mgr.and_(l, r), [le, re](const std::vector<bool>& a) {
                  return le(a) && re(a);
                }};
      case 1:
        return {mgr.or_(l, r), [le, re](const std::vector<bool>& a) {
                  return le(a) || re(a);
                }};
      case 2:
        return {mgr.xor_(l, r), [le, re](const std::vector<bool>& a) {
                  return le(a) != re(a);
                }};
      default:
        return {mgr.not_(l),
                [le](const std::vector<bool>& a) { return !le(a); }};
    }
  };

  for (int formula = 0; formula < 20; ++formula) {
    auto [f, eval] = build(4);
    std::uint32_t count = 0;
    for (std::uint32_t v = 0; v < (1U << n); ++v) {
      const auto a = bits_of(v, n);
      const bool expected = eval(a);
      EXPECT_EQ(mgr.eval(f, a), expected);
      if (expected) ++count;
    }
    EXPECT_DOUBLE_EQ(mgr.sat_count(f), double(count));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddSemantics,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Bdd, CubeSemantics) {
  BddManager mgr(4);
  const std::vector<CubeBit> bits = {CubeBit::kOne, CubeBit::kDontCare,
                                     CubeBit::kZero, CubeBit::kDontCare};
  const NodeRef c = mgr.cube(bits);
  EXPECT_DOUBLE_EQ(mgr.sat_count(c), 4.0);  // two free variables
  EXPECT_TRUE(mgr.eval(c, std::vector<bool>{true, false, false, true}));
  EXPECT_TRUE(mgr.eval(c, std::vector<bool>{true, true, false, false}));
  EXPECT_FALSE(mgr.eval(c, std::vector<bool>{false, true, false, true}));
  EXPECT_FALSE(mgr.eval(c, std::vector<bool>{true, true, true, true}));
}

TEST(Bdd, CubeAllDontCareIsTrue) {
  BddManager mgr(3);
  const std::vector<CubeBit> bits(3, CubeBit::kDontCare);
  EXPECT_EQ(mgr.cube(bits), kTrue);
}

TEST(Bdd, CubeNodeCountLinearInConstrainedBits) {
  // Footnote 2: word2set with don't-cares must not blow up. A cube with c
  // constrained bits has exactly c internal nodes.
  const std::uint32_t n = 64;
  BddManager mgr(n);
  for (std::uint32_t constrained : {0U, 1U, 8U, 32U, 64U}) {
    std::vector<CubeBit> bits(n, CubeBit::kDontCare);
    for (std::uint32_t i = 0; i < constrained; ++i) {
      bits[i * (n / std::max(1U, constrained)) % n] =
          (i % 2 == 0) ? CubeBit::kOne : CubeBit::kZero;
    }
    const NodeRef c = mgr.cube(bits);
    // node_count includes the two terminals.
    std::uint32_t actual_constrained = 0;
    for (auto b : bits) {
      if (b != CubeBit::kDontCare) ++actual_constrained;
    }
    EXPECT_EQ(mgr.node_count(c),
              actual_constrained + (actual_constrained == 0 ? 1 : 2));
  }
}

TEST(Bdd, RestrictCofactors) {
  BddManager mgr(3);
  const NodeRef f = mgr.or_(mgr.and_(mgr.var(0), mgr.var(1)), mgr.var(2));
  EXPECT_EQ(mgr.restrict_(f, 0, true), mgr.or_(mgr.var(1), mgr.var(2)));
  EXPECT_EQ(mgr.restrict_(f, 0, false), mgr.var(2));
}

TEST(Bdd, ExistsQuantification) {
  BddManager mgr(2);
  const NodeRef f = mgr.and_(mgr.var(0), mgr.var(1));
  EXPECT_EQ(mgr.exists(f, 0), mgr.var(1));
  EXPECT_EQ(mgr.exists(mgr.exists(f, 0), 1), kTrue);
  EXPECT_EQ(mgr.exists(kFalse, 0), kFalse);
}

TEST(Bdd, FlipVariable) {
  BddManager mgr(2);
  const NodeRef f = mgr.and_(mgr.var(0), mgr.nvar(1));
  const NodeRef g = mgr.flip(f, 0);
  EXPECT_EQ(g, mgr.and_(mgr.nvar(0), mgr.nvar(1)));
  EXPECT_EQ(mgr.flip(g, 0), f);  // involution
}

TEST(Bdd, HammingExpandRadiusOne) {
  BddManager mgr(3);
  // Single word 101.
  const NodeRef w =
      mgr.cube(std::vector<CubeBit>{CubeBit::kOne, CubeBit::kZero,
                                    CubeBit::kOne});
  const std::vector<std::uint32_t> vars{0, 1, 2};
  const NodeRef ball = mgr.hamming_expand(w, vars);
  // 101 plus its three 1-bit flips: 001, 111, 100.
  EXPECT_DOUBLE_EQ(mgr.sat_count(ball), 4.0);
  EXPECT_TRUE(mgr.eval(ball, std::vector<bool>{true, false, true}));
  EXPECT_TRUE(mgr.eval(ball, std::vector<bool>{false, false, true}));
  EXPECT_TRUE(mgr.eval(ball, std::vector<bool>{true, true, true}));
  EXPECT_TRUE(mgr.eval(ball, std::vector<bool>{true, false, false}));
  EXPECT_FALSE(mgr.eval(ball, std::vector<bool>{false, true, true}));
}

TEST(Bdd, MinHammingDistanceBasics) {
  BddManager mgr(4);
  const NodeRef w = mgr.cube(std::vector<CubeBit>{
      CubeBit::kOne, CubeBit::kOne, CubeBit::kZero, CubeBit::kOne});
  EXPECT_EQ(mgr.min_hamming_distance(w,
                                     std::vector<bool>{true, true, false,
                                                       true}),
            std::optional<unsigned>(0));
  EXPECT_EQ(mgr.min_hamming_distance(w,
                                     std::vector<bool>{false, true, false,
                                                       true}),
            std::optional<unsigned>(1));
  EXPECT_EQ(mgr.min_hamming_distance(w,
                                     std::vector<bool>{false, false, true,
                                                       false}),
            std::optional<unsigned>(4));
  EXPECT_EQ(mgr.min_hamming_distance(kFalse,
                                     std::vector<bool>{false, false, false,
                                                       false}),
            std::nullopt);
  EXPECT_EQ(mgr.min_hamming_distance(kTrue,
                                     std::vector<bool>{true, false, true,
                                                       false}),
            std::optional<unsigned>(0));
}

TEST(Bdd, MinHammingDistanceSkippedVarsAreFree) {
  BddManager mgr(4);
  // f = x1 (x0, x2, x3 unconstrained).
  const NodeRef f = mgr.var(1);
  // Point with x1 = 0: exactly one flip needed regardless of other bits.
  EXPECT_EQ(mgr.min_hamming_distance(f,
                                     std::vector<bool>{true, false, true,
                                                       true}),
            std::optional<unsigned>(1));
}

// Property: DP distance equals brute-force minimum over all satisfying
// assignments.
class BddHamming : public ::testing::TestWithParam<int> {};

TEST_P(BddHamming, MatchesBruteForce) {
  ranm::Rng rng(GetParam());
  const std::uint32_t n = 6;
  BddManager mgr(n);
  for (int formula = 0; formula < 10; ++formula) {
    // Random union of cubes.
    NodeRef f = kFalse;
    const int cubes = 1 + int(rng.below(5));
    for (int c = 0; c < cubes; ++c) {
      std::vector<CubeBit> bits(n);
      for (auto& b : bits) {
        const auto r = rng.below(3);
        b = r == 0 ? CubeBit::kZero
                   : (r == 1 ? CubeBit::kOne : CubeBit::kDontCare);
      }
      f = mgr.or_(f, mgr.cube(bits));
    }
    for (int probe = 0; probe < 20; ++probe) {
      std::vector<bool> point(n);
      for (std::uint32_t j = 0; j < n; ++j) point[j] = rng.chance(0.5);
      // Brute force over all 64 assignments.
      unsigned best = ~0U;
      for (std::uint32_t v = 0; v < (1U << n); ++v) {
        const auto a = bits_of(v, n);
        if (!mgr.eval(f, a)) continue;
        unsigned d = 0;
        for (std::uint32_t j = 0; j < n; ++j) d += a[j] != point[j];
        best = std::min(best, d);
      }
      const auto dp = mgr.min_hamming_distance(f, point);
      if (best == ~0U) {
        EXPECT_EQ(dp, std::nullopt);
      } else {
        ASSERT_TRUE(dp.has_value());
        EXPECT_EQ(*dp, best);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddHamming, ::testing::Values(1, 2, 3, 4));

TEST(Bdd, MinHammingDistanceValidatesPointLength) {
  BddManager mgr(4);
  EXPECT_THROW(
      (void)mgr.min_hamming_distance(mgr.var(0), std::vector<bool>{true}),
      std::invalid_argument);
}

TEST(Bdd, SatCountScalesWithFreeVars) {
  BddManager mgr(10);
  EXPECT_DOUBLE_EQ(mgr.sat_count(kTrue), 1024.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(kFalse), 0.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.var(3)), 512.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.and_(mgr.var(0), mgr.var(9))), 256.0);
}

TEST(Bdd, Support) {
  BddManager mgr(5);
  const NodeRef f = mgr.xor_(mgr.var(1), mgr.var(3));
  EXPECT_EQ(mgr.support(f), (std::vector<std::uint32_t>{1, 3}));
  EXPECT_TRUE(mgr.support(kTrue).empty());
}

TEST(Bdd, EnumerateCubesCoversFunction) {
  BddManager mgr(3);
  const NodeRef f = mgr.or_(mgr.and_(mgr.var(0), mgr.var(1)), mgr.nvar(2));
  const auto cubes = mgr.enumerate_cubes(f);
  // Re-evaluate: every assignment satisfying f must be covered by some
  // cube, and no cube may cover a falsifying assignment.
  for (std::uint32_t v = 0; v < 8; ++v) {
    const auto a = bits_of(v, 3);
    bool covered = false;
    for (const auto& cube : cubes) {
      bool match = true;
      for (std::uint32_t i = 0; i < 3; ++i) {
        if (cube[i] == CubeBit::kDontCare) continue;
        if ((cube[i] == CubeBit::kOne) != a[i]) {
          match = false;
          break;
        }
      }
      covered |= match;
    }
    EXPECT_EQ(covered, mgr.eval(f, a));
  }
}

TEST(Bdd, AnySat) {
  BddManager mgr(4);
  const NodeRef f = mgr.and_(mgr.nvar(0), mgr.var(2));
  const auto a = mgr.any_sat(f);
  EXPECT_TRUE(mgr.eval(f, a));
  EXPECT_THROW((void)mgr.any_sat(kFalse), std::invalid_argument);
}

TEST(Bdd, ToDotMentionsVariables) {
  BddManager mgr(2);
  const NodeRef f = mgr.and_(mgr.var(0), mgr.var(1));
  const std::string dot = mgr.to_dot(f);
  EXPECT_NE(dot.find("x0"), std::string::npos);
  EXPECT_NE(dot.find("x1"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(Bdd, MakeNodeCheckedValidates) {
  BddManager mgr(3);
  EXPECT_THROW((void)mgr.make_node_checked(5, kFalse, kTrue),
               std::invalid_argument);
  // Child at same level as parent violates ordering.
  const NodeRef x1 = mgr.var(1);
  EXPECT_THROW((void)mgr.make_node_checked(1, x1, kTrue),
               std::invalid_argument);
  EXPECT_EQ(mgr.make_node_checked(0, kFalse, kTrue), mgr.var(0));
}

TEST(Bdd, ArenaGrowsMonotonically) {
  BddManager mgr(8);
  const std::size_t before = mgr.arena_size();
  (void)mgr.var(3);
  EXPECT_GE(mgr.arena_size(), before + 1);
}

// -- engine: unique table and computed cache ------------------------------

/// A random cube over `n` variables, about a third of its bits free.
std::vector<CubeBit> random_cube(Rng& rng, std::uint32_t n) {
  std::vector<CubeBit> bits(n);
  for (CubeBit& b : bits) b = static_cast<CubeBit>(rng.below(3));
  return bits;
}

// The unique table doubles nine times on the way to 200k nodes; every
// rehash must keep hash-consing exact.
TEST(BddEngine, CanonicalAcrossTableDoublings) {
  constexpr std::uint32_t kVars = 40;
  BddManager mgr(kVars);
  Rng rng(11);
  std::vector<std::vector<CubeBit>> cubes;
  std::vector<NodeRef> roots;
  NodeRef set = kFalse;
  while (mgr.arena_size() < 200000) {
    cubes.push_back(random_cube(rng, kVars));
    set = mgr.or_(set, mgr.cube(cubes.back()));
    roots.push_back(set);
  }
  const std::size_t arena = mgr.arena_size();

  // Rebuilding every prefix union finds the nodes already there.
  NodeRef again = kFalse;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    again = mgr.or_(again, mgr.cube(cubes[i]));
    ASSERT_EQ(again, roots[i]) << "cube " << i;
  }
  EXPECT_EQ(mgr.arena_size(), arena);

  // Every stored triple hash-conses to itself.
  for (NodeRef n = 2; n < arena; ++n) {
    const BddManager::NodeView nv = mgr.view(n);
    ASSERT_EQ(mgr.make_node_checked(nv.var, nv.lo, nv.hi), n);
  }
  EXPECT_EQ(mgr.arena_size(), arena);
}

// Random ite/and/or/xor over 12 variables against truth tables, with
// enough operations that the lossy cache doubles several times and evicts
// throughout. Equal truth tables must also give equal NodeRefs.
TEST(BddEngine, RandomFormulasMatchTruthTables) {
  constexpr std::uint32_t kVars = 12;
  constexpr std::size_t kWords = (std::size_t{1} << kVars) / 64;
  using Table = std::array<std::uint64_t, kWords>;  // bit a: value at a
  const auto combine = [](const Table& x, const Table& y, auto op) {
    Table t;
    for (std::size_t w = 0; w < kWords; ++w) t[w] = op(x[w], y[w]);
    return t;
  };
  BddManager mgr(kVars);
  Rng rng(2024);

  std::vector<std::pair<NodeRef, Table>> pool;
  for (std::uint32_t v = 0; v < kVars; ++v) {
    Table t{};
    for (std::size_t a = 0; a < kWords * 64; ++a) {
      if (((a >> v) & 1U) != 0) t[a / 64] |= std::uint64_t{1} << (a % 64);
    }
    pool.emplace_back(mgr.var(v), t);
    pool.emplace_back(mgr.nvar(v), combine(t, t, [](auto x, auto) {
                        return ~x;
                      }));
  }
  std::map<Table, NodeRef> canonical;
  for (const auto& [f, t] : pool) canonical.emplace(t, f);

  for (int step = 0; step < 800; ++step) {
    const auto& [f, tf] = pool[rng.below(pool.size())];
    const auto& [g, tg] = pool[rng.below(pool.size())];
    const auto& [h, th] = pool[rng.below(pool.size())];
    NodeRef r = kFalse;
    Table t;
    switch (rng.below(4)) {
      case 0:
        r = mgr.ite(f, g, h);
        t = combine(combine(tf, tg, std::bit_and<>{}),
                    combine(tf, th, [](auto x, auto y) { return ~x & y; }),
                    std::bit_or<>{});
        break;
      case 1:
        r = mgr.and_(f, g);
        t = combine(tf, tg, std::bit_and<>{});
        break;
      case 2:
        r = mgr.or_(f, g);
        t = combine(tf, tg, std::bit_or<>{});
        break;
      default:
        r = mgr.xor_(f, g);
        t = combine(tf, tg, std::bit_xor<>{});
        break;
    }
    for (std::size_t a = 0; a < kWords * 64; ++a) {
      const bool want = ((t[a / 64] >> (a % 64)) & 1U) != 0;
      const bool got = mgr.eval_with(
          r, [a](std::uint32_t v) { return ((a >> v) & 1U) != 0; });
      ASSERT_EQ(got, want) << "step " << step << " point " << a;
    }
    const auto [it, fresh] = canonical.emplace(t, r);
    ASSERT_EQ(it->second, r) << "step " << step;
    // A bounded pool keeps the functions mixing instead of piling up.
    if (pool.size() < 96) {
      pool.emplace_back(r, t);
    } else {
      pool[rng.below(pool.size())] = {r, t};
    }
  }
  EXPECT_GE(mgr.ite_cache_size(), std::size_t{8} << 10);  // >= 3 doublings
}

/// A fixed sequence of unions and intersections; returns every result.
std::vector<NodeRef> run_ops(BddManager& mgr, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeRef> out;
  NodeRef acc = kFalse;
  for (int i = 0; i < 400; ++i) {
    const NodeRef c = mgr.cube(random_cube(rng, mgr.num_vars()));
    acc = rng.chance(0.8) ? mgr.or_(acc, c) : mgr.xor_(acc, c);
    out.push_back(acc);
  }
  return out;
}

TEST(BddEngine, CopiedAndMovedManagersAgree) {
  constexpr std::uint32_t kVars = 24;
  BddManager original(kVars);
  (void)run_ops(original, 1);

  BddManager copy = original;
  BddManager source = original;
  BddManager moved(1);
  moved = std::move(source);
  ASSERT_EQ(copy.arena_size(), original.arena_size());
  ASSERT_EQ(moved.arena_size(), original.arena_size());

  const std::vector<NodeRef> want = run_ops(original, 2);
  EXPECT_EQ(run_ops(copy, 2), want);
  EXPECT_EQ(run_ops(moved, 2), want);
  EXPECT_EQ(copy.arena_size(), original.arena_size());
  EXPECT_EQ(moved.arena_size(), original.arena_size());

  // The moved-from manager is usable once a fresh one is assigned.
  source = BddManager(kVars);
  BddManager fresh(kVars);
  EXPECT_EQ(run_ops(source, 3), run_ops(fresh, 3));
  EXPECT_EQ(source.arena_size(), fresh.arena_size());
}

// Pins the BDD that bench_scalability's robust n = 256 row builds (its
// MLP, seed, thresholds and delta). Any cache or table change that alters
// which nodes exist moves these numbers.
TEST(BddEngine, ScalabilityRobustBuildPin) {
  Rng rng(321);
  Network net = make_mlp({12, 48, 32, 8}, rng);
  MonitorBuilder builder(net, 4);
  std::vector<Tensor> pool;
  for (int i = 0; i < 512; ++i) {
    pool.push_back(Tensor::random_uniform({12}, rng));
  }
  NeuronStats stats(builder.feature_dim(), true);
  for (const Tensor& x : pool) stats.add(builder.features(x));
  const std::vector<Tensor> data(pool.begin(), pool.begin() + 256);

  IntervalMonitor m(ThresholdSpec::from_percentiles(stats, 2));
  builder.build_robust(m, data, PerturbationSpec{0, 0.02F, BoundDomain::kBox});
  EXPECT_EQ(m.bdd_node_count(), 64954U);
  EXPECT_EQ(m.manager().arena_size(), 124890U);
}

}  // namespace
}  // namespace ranm::bdd
