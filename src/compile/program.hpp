// Lowered monitor programs: the data structures a frozen monitor compiles
// into and the batched evaluators that run them.
//
// Construction-side monitors are built for *insertion*: hash-consed BDD
// arenas, threshold tables, k-means buffers. Deployment only ever asks one
// question — membership — so the compiler (compile/lower.hpp) lowers each
// monitor into the smallest structure that answers it:
//
//   BoxProgram  — straight-line interval tests (min-max, box-cluster).
//   CubeProgram — bitmask compares over the coded word: the stored set as
//                 a cube cover, one (mask, value) pair per cube. Chosen
//                 when the BDD's cube cover is small (robust builds with
//                 don't-cares typically are).
//   BddProgram  — the reachable BDD nodes as a topologically-ordered flat
//                 array: no hash tables, no construction garbage,
//                 children resolved by array index. Refs: 0 = FALSE, 1 = TRUE, r >= 2 is
//                 nodes[r - 2]; every child ref is strictly greater than
//                 its parent's ref, so a walk always terminates.
//
// Evaluation sweeps samples batch-lane-innermost (like the batched box
// kernels): per-neuron parameters load once per batch row, coding
// fuses compare-and-pack into sample-major u64 codewords (each sample's
// whole codeword stays on one cache line for the cube compares and the
// BDD walk), and cube covers and BDD programs skip coding any neuron
// they never test. BDD programs then run the batched BDD walk that the
// interpreted monitors run too (bdd/walk.hpp), testing codeword bits:
// each sample costs its root-to-terminal path, whatever the program's
// node count. Tiny batches (below the walk's kMinBatchWalk) code each
// sample into a stack codeword instead, so the batch setup never
// dominates. Scratch deliberately holds no char-sized buffers: u32/u64
// lanes cannot alias the float rows, which keeps the coding loops
// vectorizable.
//
// Verdict semantics mirror the interpreted monitors bit-for-bit, NaN
// included: min-max boxes keep the `!(v < lo || v > hi)` form (NaN is
// contained), box-cluster boxes keep `v >= lo && v <= hi` (NaN is
// rejected), and threshold coding keeps `v > c` / `v >= c` (NaN codes
// to 0). The differential tests pin this equivalence.
#pragma once

#include <cstdint>
#include <vector>

#include "bdd/walk.hpp"
#include "core/feature_batch.hpp"

namespace ranm::compile {

/// Which evaluator a compiled unit runs.
enum class ProgramKind : std::uint32_t { kBox = 1, kCube = 2, kBdd = 3 };

/// Union-of-boxes membership: v is in iff some box contains every
/// coordinate. One box with reject_nan == false is exactly a min-max
/// envelope (NaN contained); reject_nan == true is the box-cluster form
/// (NaN rejected).
struct BoxProgram {
  std::size_t dim = 0;
  std::size_t num_boxes = 0;
  bool reject_nan = false;
  /// Bounds stored box-major: box b's bound for neuron j at [b*dim + j].
  std::vector<float> lo, hi;
};

/// Per-neuron threshold table mapping a raw value to its B-bit code —
/// the lowered form of ThresholdSpec, flattened for row sweeps.
struct CodingTable {
  std::size_t dim = 0;
  std::size_t bits = 0;
  /// Neuron-major: neuron j's m = 2^bits - 1 ascending thresholds at
  /// [j*m .. j*m + m); `inclusive[k]` == 1 codes on v > c, 0 on v >= c.
  std::vector<float> values;
  std::vector<std::uint8_t> inclusive;

  [[nodiscard]] std::size_t thresholds_per_neuron() const noexcept {
    return (std::size_t(1) << bits) - 1;
  }
  /// BDD variables of the coded word (neuron j owns bits
  /// j*bits .. j*bits+bits-1, MSB first — the IntervalMonitor layout).
  [[nodiscard]] std::size_t num_vars() const noexcept { return dim * bits; }
  /// 64-bit words per packed codeword.
  [[nodiscard]] std::size_t num_words() const noexcept {
    return (num_vars() + 63) / 64;
  }
};

/// Cube-cover membership over the packed codeword: cube c matches iff
/// (word & mask[c]) == value[c] on every 64-bit word; membership is the
/// OR over cubes. Don't-care variables simply have their mask bit clear.
struct CubeProgram {
  std::size_t num_cubes = 0;
  /// Cube-major: cube c's words at [c*W .. c*W + W) with W from the
  /// unit's CodingTable::num_words().
  std::vector<std::uint64_t> mask, value;
};

/// One flat BDD node: child[bit] is the next ref for variable value bit.
struct FlatBddNode {
  std::uint32_t var = 0;
  std::uint32_t child[2] = {0, 0};
};

/// Reachable BDD as a flat array in topological (variable-ascending)
/// order. Ref convention: 0 = FALSE, 1 = TRUE, r >= 2 is nodes[r - 2];
/// children always have strictly larger refs than their parent.
struct BddProgram {
  std::uint32_t root = 0;
  std::vector<FlatBddNode> nodes;
};

/// One lowered monitor (one shard's worth): exactly one of the three
/// programs is active, selected by `kind`. Cube and BDD programs share
/// the coding table.
struct CompiledUnit {
  ProgramKind kind = ProgramKind::kBox;
  BoxProgram box;      // kind == kBox
  CodingTable coding;  // kind == kCube or kBdd
  CubeProgram cube;    // kind == kCube
  BddProgram bdd;      // kind == kBdd

  /// Derived, never serialised: the union of tested coding variables
  /// (cube masks / BDD node labels) as num_words() bitmask words.
  /// Precomputed by finalize() so the evaluators don't redo the
  /// O(cubes)/O(nodes) sweep on every call — the fixed cost that made
  /// tiny-batch compiled queries lose to the interpreted monitors.
  /// Empty (e.g. a hand-built unit) means compute on the fly.
  std::vector<std::uint64_t> support;

  /// Recomputes `support` from the active program. Idempotent; called by
  /// the CompiledMonitor constructor, which both the compiler and the
  /// artifact loader go through.
  void finalize();

  [[nodiscard]] std::size_t dimension() const noexcept {
    return kind == ProgramKind::kBox ? box.dim : coding.dim;
  }
};

/// Reusable per-unit evaluation buffers, owned by the caller so the
/// steady-state query path pays no allocator traffic (and so concurrent
/// shard evaluations never share scratch).
struct EvalScratch {
  std::vector<std::uint32_t> flags;   // box-sweep lane flags
  std::vector<std::uint64_t> words;   // packed codewords, sample-major
  std::vector<std::uint64_t> needed;  // cube-mask union / BDD support
  bdd::WalkScratch walk;              // BDD walk cursors
};

/// Batched membership: out[i] = unit contains sample i of `batch`.
/// `row_map`, when non-null, maps the unit's local neuron j to batch row
/// row_map[j] (it must hold unit.dimension() in-range rows) — sharded
/// monitors evaluate each shard straight off the full batch this way,
/// with no per-call row-view construction. When null the mapping is the
/// identity and batch.dimension() must equal unit.dimension(). `out`
/// must hold batch.size() verdicts.
void eval_unit(const CompiledUnit& unit, const FeatureBatch& batch,
               const std::uint32_t* row_map, bool* out, EvalScratch& scratch);

inline void eval_unit(const CompiledUnit& unit, const FeatureBatch& batch,
                      bool* out, EvalScratch& scratch) {
  eval_unit(unit, batch, nullptr, out, scratch);
}

}  // namespace ranm::compile
