#include "bdd/bdd_io.hpp"

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace ranm::bdd {
namespace {

constexpr std::uint32_t kMagic = 0x42444431U;  // "BDD1"
constexpr std::uint32_t kUnvisited = 0xFFFFFFFFU;

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw std::runtime_error("load_bdd: truncated stream");
  return v;
}

/// index[n] is n's local slot, kUnvisited until n is emitted; it is
/// indexed by arena position.
void collect_post_order(const BddManager& mgr, NodeRef f,
                        std::vector<NodeRef>& order,
                        std::vector<std::uint32_t>& index) {
  if (index[f] != kUnvisited) return;
  const auto nv = mgr.view(f);
  collect_post_order(mgr, nv.lo, order, index);
  collect_post_order(mgr, nv.hi, order, index);
  index[f] = static_cast<std::uint32_t>(order.size());
  order.push_back(f);
}

}  // namespace

std::vector<NodeRef> save_bdd(std::ostream& out, const BddManager& mgr,
                              NodeRef f) {
  if (f >= mgr.arena_size()) throw std::out_of_range("save_bdd: bad root");
  std::vector<NodeRef> order;
  std::vector<std::uint32_t> index(mgr.arena_size(), kUnvisited);
  // Terminals always occupy local slots 0 and 1.
  index[kFalse] = 0;
  index[kTrue] = 1;
  order.push_back(kFalse);
  order.push_back(kTrue);
  collect_post_order(mgr, f, order, index);

  write_pod(out, kMagic);
  write_pod(out, mgr.num_vars());
  write_pod(out, static_cast<std::uint32_t>(order.size()));
  for (std::size_t i = 2; i < order.size(); ++i) {
    const auto nv = mgr.view(order[i]);
    write_pod(out, nv.var);
    write_pod(out, index[nv.lo]);
    write_pod(out, index[nv.hi]);
  }
  write_pod(out, index[f]);
  return order;
}

NodeRef load_bdd(std::istream& in, BddManager& mgr) {
  return load_bdd_nodes(in, mgr).root;
}

LoadedBdd load_bdd_nodes(std::istream& in, BddManager& mgr) {
  if (read_pod<std::uint32_t>(in) != kMagic) {
    throw std::runtime_error("load_bdd: bad magic");
  }
  const auto saved_vars = read_pod<std::uint32_t>(in);
  if (saved_vars > mgr.num_vars()) {
    throw std::runtime_error(
        "load_bdd: manager has fewer variables than saved BDD");
  }
  const auto count = read_pod<std::uint32_t>(in);
  if (count < 2) throw std::runtime_error("load_bdd: node count < 2");
  // A corrupted count would make the vector below zero-fill memory before
  // the per-node reads could detect truncation; bound it first. 2^24 is
  // an order of magnitude above the largest benchmarked artifact (~1.5M
  // nodes for bench_scalability's robust 1024-sample monitor) while
  // keeping the worst hostile up-front allocation at 64 MB.
  if (count > (1U << 24)) {
    throw std::runtime_error("load_bdd: implausible node count");
  }
  std::vector<NodeRef> local(count);
  local[0] = kFalse;
  local[1] = kTrue;
  for (std::uint32_t i = 2; i < count; ++i) {
    const auto var = read_pod<std::uint32_t>(in);
    const auto lo = read_pod<std::uint32_t>(in);
    const auto hi = read_pod<std::uint32_t>(in);
    if (lo >= i || hi >= i) {
      throw std::runtime_error("load_bdd: forward reference");
    }
    try {
      local[i] = mgr.make_node_checked(var, local[lo], local[hi]);
    } catch (const std::invalid_argument& e) {
      // Variable out of range or order violated: malformed input.
      throw std::runtime_error(std::string("load_bdd: ") + e.what());
    }
  }
  const auto root = read_pod<std::uint32_t>(in);
  if (root >= count) throw std::runtime_error("load_bdd: bad root index");
  return {local[root], std::move(local)};
}

}  // namespace ranm::bdd
