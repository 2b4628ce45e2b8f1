// Reduced Ordered Binary Decision Diagrams (Bryant 1992, ref [12] in the
// paper). The paper stores the set of visited activation patterns in a BDD;
// robust construction inserts words with don't-care bits, which a BDD
// represents without enumerating the exponential word set (footnote 2).
//
// Design: a single arena of nodes owned by a BddManager. Node 0 is the
// FALSE terminal, node 1 the TRUE terminal. Variables are dense integers
// 0..num_vars-1 ordered by index (smaller index nearer the root). Nodes are
// hash-consed through a unique table, so structural equality is pointer
// equality — two BDDs are the same function iff they are the same NodeRef.
// Nodes are never garbage collected. Monitor workloads range from a few
// thousand nodes to millions: the robust 1024-sample build of
// bench_scalability allocates a 3,043,338-node arena.
//
// Memory per node, after Brace, Rudell & Bryant (DAC 1990): 12 bytes of
// arena, 8-16 bytes of open-addressing unique table (4-byte slots, load
// kept at or below 1/2), and at most 16 bytes of computed (ite) cache.
// The cache is a direct-mapped, lossy table of 1024 entries allocated on
// the first ite. It doubles, dropping its contents, once the stores since
// its last resize reach its size, and it never grows past the arena size,
// so it follows use: managers that are only loaded or queried never
// allocate it. A lost entry only makes ite recompute a result whose nodes
// all exist already, so every operation returns the same NodeRef and
// creates new nodes in the same order as an exact cache would.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bdd/walk.hpp"

namespace ranm::bdd {

/// Reference to a BDD node (index into the manager's arena).
using NodeRef = std::uint32_t;

/// The two terminal nodes have fixed references.
inline constexpr NodeRef kFalse = 0;
inline constexpr NodeRef kTrue = 1;

/// A literal: variable index plus polarity.
struct Literal {
  std::uint32_t var = 0;
  bool positive = true;
};

/// Value of a variable inside a cube: false / true / unconstrained.
enum class CubeBit : std::int8_t { kZero = 0, kOne = 1, kDontCare = 2 };

/// Hash-consing BDD manager. All NodeRefs are owned by and only valid with
/// the manager that created them. Not thread-safe.
class BddManager {
 public:
  explicit BddManager(std::uint32_t num_vars);

  [[nodiscard]] std::uint32_t num_vars() const noexcept { return num_vars_; }
  /// Total nodes allocated in the arena (including the two terminals).
  [[nodiscard]] std::size_t arena_size() const noexcept {
    return nodes_.size();
  }
  /// Entries in the ite computed table: 0 until the first ite, then 1024,
  /// doubling with use while the doubled size stays within arena_size().
  [[nodiscard]] std::size_t ite_cache_size() const noexcept {
    return ite_cache_.size();
  }

  // -- leaf / variable constructors --------------------------------------
  [[nodiscard]] static constexpr NodeRef false_() noexcept { return kFalse; }
  [[nodiscard]] static constexpr NodeRef true_() noexcept { return kTrue; }
  /// The function "variable v".
  [[nodiscard]] NodeRef var(std::uint32_t v);
  /// The function "not variable v".
  [[nodiscard]] NodeRef nvar(std::uint32_t v);
  /// A literal as a function.
  [[nodiscard]] NodeRef literal(Literal lit);

  // -- boolean combinators ------------------------------------------------
  /// If-then-else: the universal ternary combinator all others reduce to.
  [[nodiscard]] NodeRef ite(NodeRef f, NodeRef g, NodeRef h);
  [[nodiscard]] NodeRef and_(NodeRef a, NodeRef b);
  [[nodiscard]] NodeRef or_(NodeRef a, NodeRef b);
  [[nodiscard]] NodeRef xor_(NodeRef a, NodeRef b);
  [[nodiscard]] NodeRef not_(NodeRef a);
  [[nodiscard]] NodeRef implies(NodeRef a, NodeRef b);

  /// Conjunction of literals; bits[i] == kDontCare contributes nothing.
  /// This is exactly the paper's word2set: constrained bits become
  /// literals, don't-cares are simply absent (footnote 2 — linear size).
  [[nodiscard]] NodeRef cube(std::span<const CubeBit> bits);

  // -- structural operations ----------------------------------------------
  /// Cofactor: f with variable v fixed to `value`.
  [[nodiscard]] NodeRef restrict_(NodeRef f, std::uint32_t v, bool value);
  /// Existential quantification over one variable.
  [[nodiscard]] NodeRef exists(NodeRef f, std::uint32_t v);
  /// f with variable v's polarity flipped: f[v <- !v].
  [[nodiscard]] NodeRef flip(NodeRef f, std::uint32_t v);
  /// All points at Hamming distance <= 1 from f over the given variables
  /// (f itself included): f OR (flip of f in each var). Iterate for radius
  /// r. NOTE: the expanded BDD can grow combinatorially on large pattern
  /// sets; use min_hamming_distance for distance *queries* (O(nodes)) and
  /// reserve expansion for small-radius set enlargement.
  [[nodiscard]] NodeRef hamming_expand(NodeRef f,
                                       std::span<const std::uint32_t> vars);

  /// Smallest Hamming distance from `point` to any satisfying assignment
  /// of f, or nullopt if f is unsatisfiable. Shortest-path dynamic
  /// program over the BDD: variables skipped on a path are free (cost 0),
  /// a branch disagreeing with `point` costs 1. O(reachable nodes).
  [[nodiscard]] std::optional<unsigned> min_hamming_distance(
      NodeRef f, const std::vector<bool>& point) const;

  // -- queries --------------------------------------------------------------
  /// Evaluates f under a total assignment (indexed by variable).
  [[nodiscard]] bool eval(NodeRef f,
                          const std::vector<bool>& assignment) const;
  /// Evaluates f under an assignment supplied by `lookup(var) -> bool`.
  /// The caller guarantees lookup is defined for every variable in f's
  /// support; no per-node bounds check is paid.
  template <typename Lookup>
  [[nodiscard]] bool eval_with(NodeRef f, Lookup&& lookup) const {
    return walk_one(f, node_at(), lookup, count_queries(1)) == kTrue;
  }

  /// Evaluates f under `n` assignments at once through the batched walk
  /// (walk.hpp); `lookup(var, i)` supplies sample i's value of `var`.
  /// out[i] receives eval(f, sample i).
  template <typename Lookup>
  void eval_batch(NodeRef f, std::size_t n, Lookup&& lookup,
                  bool* out) const {
    WalkScratch scratch;
    walk_batch(f, n, node_at(), lookup, out, scratch, count_queries(n));
  }
  /// Number of satisfying assignments over all num_vars() variables.
  [[nodiscard]] double sat_count(NodeRef f) const;
  /// Nodes reachable from f (the conventional "BDD size").
  [[nodiscard]] std::size_t node_count(NodeRef f) const;
  /// Variables f actually depends on, ascending.
  [[nodiscard]] std::vector<std::uint32_t> support(NodeRef f) const;
  /// Enumerates the prime-free cube cover obtained by DFS over the graph:
  /// one cube per path to TRUE. Intended for small BDDs (tests,
  /// serialisation of tiny monitors); cost is the number of paths.
  [[nodiscard]] std::vector<std::vector<CubeBit>> enumerate_cubes(
      NodeRef f) const;
  /// Picks one satisfying assignment; f must not be kFalse.
  [[nodiscard]] std::vector<bool> any_sat(NodeRef f) const;

  /// GraphViz dot rendering (debugging aid).
  [[nodiscard]] std::string to_dot(NodeRef f) const;
  /// GraphViz dot rendering annotated with per-node hit counts (from the
  /// profile mode below, or loaded from an artifact). `queries` scales the
  /// counts to percentages; nodes are shaded by hit rate.
  [[nodiscard]] std::string to_dot_profiled(NodeRef f,
                                            std::uint64_t queries) const;

  // -- workload profiling ---------------------------------------------------
  // Per-node hit counters behind a zero-cost-when-off profile mode: the
  // evals hand the walk a raw counter pointer, null when off, and the walk
  // branches on it once per call, so disabled profiling costs nothing per
  // hop.
  /// Enables/disables hit counting on eval/eval_with/eval_batch.
  void set_profiling(bool enabled);
  [[nodiscard]] bool profiling() const noexcept { return profiling_; }
  /// Clears accumulated counters (keeps profiling enabled/disabled as-is).
  void reset_profile();
  /// Hits recorded on one node (0 if never profiled).
  [[nodiscard]] std::uint64_t node_hits(NodeRef n) const noexcept {
    return n < hits_.size() ? hits_[n] : 0;
  }
  /// Adds to a node's hit counter (used when loading persisted profiles).
  void record_hits(NodeRef n, std::uint64_t count);
  /// Total single-sample evaluations profiled so far.
  [[nodiscard]] std::uint64_t profile_queries() const noexcept {
    return queries_;
  }
  /// Adds to the profiled-query total (used when loading persisted
  /// profiles).
  void record_queries(std::uint64_t count) { queries_ += count; }
  /// Sum of hit counters over nodes labelled with variable v.
  [[nodiscard]] std::uint64_t var_hits(std::uint32_t v) const;

  // -- variable reordering --------------------------------------------------
  /// Transposes the variables at `level` and `level + 1` *in the
  /// function*: returns g with g(.., x_l = a, x_{l+1} = b, ..) ==
  /// f(.., x_l = b, x_{l+1} = a, ..). This is the swap-adjacent-levels
  /// primitive classic sifting is built from; the arena is append-only,
  /// so large-scale sifting should go through bdd::ReorderEngine
  /// (reorder.hpp), which swaps levels in place on a compacted copy.
  [[nodiscard]] NodeRef swap_adjacent_levels(NodeRef f, std::uint32_t level);

  // -- raw node access (serialisation) --------------------------------------
  struct NodeView {
    std::uint32_t var;
    NodeRef lo;
    NodeRef hi;
  };
  [[nodiscard]] NodeView view(NodeRef n) const;
  /// Rebuilds a canonical node (used by deserialisation). lo/hi must
  /// already exist; var must be above both children in the order.
  [[nodiscard]] NodeRef make_node_checked(std::uint32_t v, NodeRef lo,
                                          NodeRef hi);

 private:
  struct Node {
    std::uint32_t var;  // kTerminalVar for terminals
    NodeRef lo;
    NodeRef hi;
  };
  static constexpr std::uint32_t kTerminalVar = 0xFFFFFFFFU;
  struct IteEntry {
    NodeRef f, g, h, result;
  };

  [[nodiscard]] NodeRef make_node(std::uint32_t v, NodeRef lo, NodeRef hi);
  /// Rebuilds the unique table at `slots` (a power of two) from the arena.
  void rehash_unique(std::size_t slots);
  [[nodiscard]] std::uint32_t level(NodeRef n) const noexcept {
    return nodes_[n].var;
  }
  void collect(NodeRef f, std::vector<NodeRef>& order,
               std::vector<bool>& seen) const;

  /// Grows the counter array to cover the arena and refreshes the raw
  /// pointer the hot paths branch on (the arena may have grown since
  /// profiling was enabled).
  std::uint64_t* profile_counters() const;

  /// The walk's view of the arena: refs index nodes_ directly.
  [[nodiscard]] auto node_at() const noexcept {
    return [nodes = nodes_.data()](NodeRef r) -> const Node& {
      return nodes[r];
    };
  }

  /// The hit counters for a walk of n samples: null when profiling is
  /// off, else the counter array, with the n queries already counted.
  std::uint64_t* count_queries(std::size_t n) const {
    if (hits_ptr_ == nullptr) return nullptr;
    queries_ += n;
    return profile_counters();
  }

  std::uint32_t num_vars_;
  std::vector<Node> nodes_;
  // Unique table: open addressing with linear probing over NodeRefs into
  // nodes_. Slot value 0 (kFalse) means empty; terminals are never stored.
  // The size is a power of two (0 until the first make_node) and at least
  // twice the number of stored nodes; growth doubles it and rehashes from
  // the arena.
  std::vector<NodeRef> unique_;
  // Computed table for ite: direct-mapped and lossy, keyed on the full
  // (f, g, h). An all-zero entry never matches, since ite stores no entry
  // whose f is a terminal. Empty until the first ite; see the file comment
  // for the growth rule.
  std::vector<IteEntry> ite_cache_;
  std::size_t ite_stores_ = 0;  // stores since the cache's last resize

  // Profile state. hits_ptr_ is null whenever profiling is off; the eval
  // templates test only this pointer, keeping the disabled path identical
  // to the pre-profiling code. Counters are mutable because evaluation is
  // const; the manager is documented single-threaded (shards each own one).
  bool profiling_ = false;
  mutable std::vector<std::uint64_t> hits_;
  mutable std::uint64_t* hits_ptr_ = nullptr;
  mutable std::uint64_t queries_ = 0;
};

}  // namespace ranm::bdd
