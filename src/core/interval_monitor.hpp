// Interval activation monitor (paper §III-C): each neuron is monitored
// with B bits encoding which of 2^B threshold buckets its value falls in.
// Generalises both the min-max monitor and the on-off monitor (footnote 3).
// At B = 1 it *is* the on-off monitor (§III-A second bullet, ref [1]):
// one threshold c_j per neuron, b_j = 1 iff v_j > c_j. There is no
// separate on-off class; build one from a 1-bit spec such as
// ThresholdSpec::onoff or ThresholdSpec::from_means. A 1-bit monitor
// describes itself as "OnOffMonitor(...)" and saves under the on-off
// artifact tags, so on-off artifacts keep their historical bytes.
//
// Robust construction (§III-C.2) maps the conservative bound [l_j, u_j] to
// the *set* of codes it straddles. Because codes are monotone in the
// neuron value, that set is always the contiguous range
// [code(l_j), code(u_j)] — exactly the case enumeration of the paper —
// and is inserted as an O(B)-node range constraint on neuron j's bit
// variables (word2set without blow-up).
#pragma once

#include <cstdint>
#include <optional>

#include "bdd/bdd.hpp"
#include "core/monitor.hpp"
#include "core/threshold_spec.hpp"

namespace ranm {

/// Multi-bit activation-pattern monitor backed by a BDD with
/// dimension * bits variables. Semantically, neuron j owns code *slots*
/// j*bits .. j*bits+bits-1 (MSB first); by default slot s is decided by
/// BDD variable s, but an optimized monitor may carry a custom variable
/// order (level_of_slot permutation) chosen by `ranm_cli optimize` — the
/// BDD variable index is always the *level*, and the batch bit matrix is
/// written level-indexed so the eval hot path never pays for the
/// indirection.
class IntervalMonitor final : public Monitor {
 public:
  explicit IntervalMonitor(ThresholdSpec spec);

  [[nodiscard]] std::size_t dimension() const noexcept override {
    return spec_.dimension();
  }
  [[nodiscard]] std::size_t bits() const noexcept { return spec_.bits(); }

  void observe(std::span<const float> feature) override;
  void observe_bounds(std::span<const float> lo,
                      std::span<const float> hi) override;
  [[nodiscard]] bool contains(std::span<const float> feature) const override;
  [[nodiscard]] std::string describe() const override;

  // Batch path. Codes are computed neuron-major (each neuron's threshold
  // table stays hot across the whole batch row), expanded once into a
  // shared bit matrix, and each sample's membership is a direct BDD walk
  // against it — no per-query assignment vector.
  void observe_batch(const FeatureBatch& batch) override;
  void observe_bounds_batch(const FeatureBatch& lo,
                            const FeatureBatch& hi) override;
  void contains_batch(const FeatureBatch& batch,
                      std::span<bool> out) const override;

  /// The code word ab(v): one code per neuron (at 1 bit, the Boolean
  /// on-off pattern).
  [[nodiscard]] std::vector<std::uint64_t> codes(
      std::span<const float> feature) const;

  /// Enlarges the stored set to all words within Hamming distance
  /// `radius` (in code bits, over every BDD variable) of a stored word —
  /// the false-positive mitigation of ref [1], the baseline the robust
  /// construction is compared against. The expanded BDD can grow
  /// combinatorially; keep the radius small.
  void enlarge_hamming(unsigned radius);

  /// Quantitative score: smallest Hamming distance (in code *bits*) from
  /// the feature's code word to any stored word, capped at `max_radius`.
  /// Exact, O(BDD nodes). Returns nullopt past the cap or on an empty set.
  [[nodiscard]] std::optional<unsigned> hamming_distance(
      std::span<const float> feature, unsigned max_radius) const;

  /// Number of distinct code words stored.
  [[nodiscard]] double pattern_count() const;
  /// Reachable BDD node count of the stored set.
  [[nodiscard]] std::size_t bdd_node_count() const;
  [[nodiscard]] const ThresholdSpec& spec() const noexcept { return spec_; }

  /// Raw access for serialisation.
  [[nodiscard]] const bdd::BddManager& manager() const noexcept {
    return mgr_;
  }
  [[nodiscard]] bdd::BddManager& manager() noexcept { return mgr_; }
  [[nodiscard]] bdd::NodeRef root() const noexcept { return set_; }
  void set_root(bdd::NodeRef root) noexcept { set_ = root; }

  // -- variable order -------------------------------------------------------
  /// level_of_slot: the BDD level (= variable index) deciding each
  /// semantic slot j*bits+b. Identity unless optimized/loaded otherwise.
  [[nodiscard]] std::span<const std::uint32_t> variable_order()
      const noexcept {
    return vars_;
  }
  /// Inverse permutation: the slot decided at each level.
  [[nodiscard]] std::span<const std::uint32_t> slot_of_level()
      const noexcept {
    return slot_of_level_;
  }
  [[nodiscard]] bool has_custom_order() const noexcept;
  /// Installs a variable order on an *empty* monitor (used by the artifact
  /// loader before the BDD body is read). Throws if patterns were already
  /// inserted or the permutation is malformed.
  void apply_variable_order(std::vector<std::uint32_t> level_of_slot);
  /// Replaces the pattern set with a reordered rebuild: `mgr` holds the
  /// same code set as the current one under the new order. Used by the
  /// offline optimize pass; callers are responsible for having verified
  /// equivalence.
  void adopt_reordered(std::vector<std::uint32_t> level_of_slot,
                       bdd::BddManager mgr, bdd::NodeRef root);

  // -- profiling ------------------------------------------------------------
  void set_profiling(bool enabled) override { mgr_.set_profiling(enabled); }
  [[nodiscard]] bool profiling() const noexcept override {
    return mgr_.profiling();
  }
  [[nodiscard]] std::uint64_t profile_queries() const noexcept override {
    return mgr_.profile_queries();
  }
  [[nodiscard]] std::uint64_t profile_hits() const noexcept override;

 private:
  /// Bit variables of neuron j, MSB first (view into the precomputed
  /// variable table — no per-call allocation).
  [[nodiscard]] std::span<const std::uint32_t> neuron_vars(
      std::size_t j) const noexcept {
    return {vars_.data() + j * spec_.bits(), spec_.bits()};
  }
  /// BDD variable values of a feature, indexed by level.
  [[nodiscard]] std::vector<bool> assignment(
      std::span<const float> feature) const;
  /// bits[v * n + i] = value of BDD variable v for sample i.
  void fill_bit_matrix(const FeatureBatch& batch,
                       std::vector<std::uint8_t>& bits) const;

  /// Recomputes slot_of_level_, level_bit_ and build_order_ from vars_.
  void refresh_order_tables();

  /// The neuron a BDD level reads and the shift of its bit in the code.
  struct LevelBit {
    std::uint32_t neuron;
    std::uint32_t shift;
  };

  ThresholdSpec spec_;
  bdd::BddManager mgr_;
  bdd::NodeRef set_;
  /// level_of_slot: neuron j's bits live at levels
  /// vars_[j*bits .. j*bits+bits-1].
  std::vector<std::uint32_t> vars_;
  /// Inverse of vars_.
  std::vector<std::uint32_t> slot_of_level_;
  /// Per level: the neuron and code bit decided there, so the lazy
  /// per-sample walk does no division by bits().
  std::vector<LevelBit> level_bit_;
  /// Neurons sorted by descending topmost level, so bound insertion
  /// conjoins from the bottom of the order upward (touching only
  /// already-built structure) under any variable order.
  std::vector<std::uint32_t> build_order_;
};

}  // namespace ranm
