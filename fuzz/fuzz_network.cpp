// libFuzzer harness for the network loader: layer tags, per-layer config
// words (the Dense/Conv2D/Pooling fields that historically drove
// unbounded allocations), shapes, and parameter tensors.
//
// Invariant: load_network throws std::runtime_error or the network
// re-serialises byte-identically through save -> load -> save.
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/serialize.hpp"
#include "nn/network.hpp"

#include "fuzz_util.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  std::optional<ranm::Network> net;
  try {
    net.emplace(ranm::load_network(in));
  } catch (const std::runtime_error&) {
    return 0;  // the clean rejection io/serialize.hpp documents
  } catch (const std::exception& e) {
    ranm::fuzz::wrong_exception("fuzz_network", e);
  }
  // A network that loaded must re-save and round-trip stably; a throw
  // past this point means the loader accepted something the saver (or a
  // second load) refuses, which is a finding, not noise.
  std::ostringstream first;
  ranm::save_network(first, *net);
  std::istringstream again(first.str());
  ranm::Network reloaded = ranm::load_network(again);
  std::ostringstream second;
  ranm::save_network(second, reloaded);
  ranm::fuzz::require(first.str() == second.str(), "fuzz_network",
                      "save -> load -> save is not byte-identical");
  return 0;
}
