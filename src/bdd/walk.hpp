// The batched BDD walk: one evaluator for every BDD membership query.
// Interpreted monitors walk their BddManager arena through it, compiled
// kBdd programs their flat node array. Both present a node as
// {var, lo, hi} behind a u32 ref, with refs 0 and 1 the FALSE and TRUE
// terminals, through a `node_at(ref)` accessor; the caller's
// `bit(var, i)` supplies sample i's value of a variable.
//
// Below kMinBatchWalk samples each sample chases its own root-to-terminal
// path. From kMinBatchWalk on, all samples advance level-synchronously,
// one hop each per round, so the node loads of different samples overlap
// in the memory system instead of each sample serialising on its own
// pointer chase. Either way a sample costs its path length, never more
// than the number of variables, whatever the size of the BDD.
//
// Profiling passes a per-node hit counter array indexed by ref. The
// counting and the plain walk are one loop in source, instantiated twice,
// so a null counter adds one branch per call and nothing per hop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ranm::bdd {

/// Batches below this size walk one sample at a time: the walk's cursor
/// setup, and the callers' whole-batch coding, would outweigh the query
/// itself. Callers code small batches lazily, per sample, by the same
/// cutoff.
inline constexpr std::size_t kMinBatchWalk = 8;

/// Cursor buffers of the level-synchronous walk. Callers that must not
/// allocate in steady state keep one and pass it to every walk.
struct WalkScratch {
  std::vector<std::uint32_t> cur;     // each sample's current ref
  std::vector<std::uint32_t> active;  // samples not yet at a terminal
};

namespace walk_detail {

template <bool kCount, typename NodeAt, typename Bit>
std::uint32_t walk_one(std::uint32_t ref, const NodeAt& node_at,
                       const Bit& bit, std::uint64_t* hits) {
  while (ref > 1) {
    if constexpr (kCount) ++hits[ref];
    const auto& nd = node_at(ref);
    ref = bit(nd.var) ? nd.hi : nd.lo;
  }
  return ref;
}

template <bool kCount, typename NodeAt, typename Bit>
void walk_batch(std::uint32_t root, std::size_t n, const NodeAt& node_at,
                const Bit& bit, bool* out, WalkScratch& s,
                std::uint64_t* hits) {
  if (n < kMinBatchWalk) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto sample_bit = [&bit, i](std::uint32_t var) {
        return bit(var, i);
      };
      out[i] = walk_one<kCount>(root, node_at, sample_bit, hits) == 1;
    }
    return;
  }
  s.cur.assign(n, root);
  s.active.resize(n);
  std::uint32_t* cur = s.cur.data();
  std::uint32_t* active = s.active.data();
  for (std::size_t i = 0; i < n; ++i) {
    active[i] = static_cast<std::uint32_t>(i);
  }
  std::size_t live = root > 1 ? n : 0;
  while (live > 0) {
    std::size_t kept = 0;
    for (std::size_t r = 0; r < live; ++r) {
      const std::uint32_t i = active[r];
      if constexpr (kCount) ++hits[cur[i]];
      const auto& nd = node_at(cur[i]);
      const std::uint32_t next = bit(nd.var, i) ? nd.hi : nd.lo;
      cur[i] = next;
      if (next > 1) active[kept++] = i;
    }
    live = kept;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = cur[i] == 1;
}

}  // namespace walk_detail

/// Walks one sample from `root` to a terminal and returns it (0 or 1);
/// `bit(var)` supplies the sample's value of var. A non-null `hits`
/// counts every node visited.
template <typename NodeAt, typename Bit>
std::uint32_t walk_one(std::uint32_t root, const NodeAt& node_at,
                       const Bit& bit, std::uint64_t* hits = nullptr) {
  return hits != nullptr
             ? walk_detail::walk_one<true>(root, node_at, bit, hits)
             : walk_detail::walk_one<false>(root, node_at, bit, hits);
}

/// out[i] = the walk of sample i from `root` ends at TRUE, for i < n.
/// A non-null `hits` counts every node visited, exactly as n walk_one
/// calls would.
template <typename NodeAt, typename Bit>
void walk_batch(std::uint32_t root, std::size_t n, const NodeAt& node_at,
                const Bit& bit, bool* out, WalkScratch& s,
                std::uint64_t* hits = nullptr) {
  if (hits != nullptr) {
    walk_detail::walk_batch<true>(root, n, node_at, bit, out, s, hits);
  } else {
    walk_detail::walk_batch<false>(root, n, node_at, bit, out, s, hits);
  }
}

}  // namespace ranm::bdd
