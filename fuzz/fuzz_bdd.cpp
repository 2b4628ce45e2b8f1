// libFuzzer harness for the standalone BDD artifact codec (bdd/bdd_io),
// the innermost decoder nested inside every on-off/interval monitor
// payload: node count (bounded before the slot vector allocates),
// backward-only child references, root index, and hash-consed
// reconstruction through make_node_checked.
//
// Invariant: load_bdd throws std::runtime_error or yields a node whose
// save -> load -> save is byte-identical in a fresh manager.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bdd/bdd.hpp"
#include "bdd/bdd_io.hpp"

#include "fuzz_util.hpp"

namespace {
// Matches the widest monitor coding the corpus uses; streams declaring
// more variables are rejected cleanly, which is itself a path worth
// fuzzing.
constexpr std::uint32_t kManagerVars = 256;
}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  ranm::bdd::BddManager mgr(kManagerVars);
  ranm::bdd::NodeRef root = ranm::bdd::kFalse;
  try {
    root = ranm::bdd::load_bdd(in, mgr);
  } catch (const std::runtime_error&) {
    return 0;  // the clean rejection bdd/bdd_io.hpp documents
  } catch (const std::exception& e) {
    ranm::fuzz::wrong_exception("fuzz_bdd", e);
  }
  std::ostringstream first;
  (void)ranm::bdd::save_bdd(first, mgr, root);
  std::istringstream again(first.str());
  ranm::bdd::BddManager mgr2(kManagerVars);
  const ranm::bdd::NodeRef root2 = ranm::bdd::load_bdd(again, mgr2);
  std::ostringstream second;
  (void)ranm::bdd::save_bdd(second, mgr2, root2);
  ranm::fuzz::require(first.str() == second.str(), "fuzz_bdd",
                      "save -> load -> save is not byte-identical");
  return 0;
}
