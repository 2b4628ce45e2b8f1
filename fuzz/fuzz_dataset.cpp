// libFuzzer harness for the dataset loader: the sample-count field (whose
// unbounded reserve() was one of the seed-era loader bugs) and the
// per-sample input/target tensor pairs.
//
// Invariant: load_dataset throws std::runtime_error or the dataset
// re-serialises byte-identically through save -> load -> save.
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "data/dataset.hpp"
#include "io/serialize.hpp"

#include "fuzz_util.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  std::optional<ranm::Dataset> ds;
  try {
    ds.emplace(ranm::load_dataset(in));
  } catch (const std::runtime_error&) {
    return 0;  // the clean rejection io/serialize.hpp documents
  } catch (const std::exception& e) {
    ranm::fuzz::wrong_exception("fuzz_dataset", e);
  }
  std::ostringstream first;
  ranm::save_dataset(first, *ds);
  std::istringstream again(first.str());
  const ranm::Dataset reloaded = ranm::load_dataset(again);
  std::ostringstream second;
  ranm::save_dataset(second, reloaded);
  ranm::fuzz::require(first.str() == second.str(), "fuzz_dataset",
                      "save -> load -> save is not byte-identical");
  return 0;
}
