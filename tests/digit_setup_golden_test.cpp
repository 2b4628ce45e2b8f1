// Byte pin for the trained digit network. make_digit_setup(DigitLabConfig{})
// is the network every digit experiment, the CLI examples and the
// benchmark fixtures monitor; its bytes depend on every training kernel
// (forward and backward of each layer, the loss, the optimizer), so a
// one-ulp drift anywhere in training changes them. The size, FNV-1a and
// accuracy bits below were recorded before the batched training kernels
// learned to skip zero gradients; they must reproduce them exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "eval/experiment.hpp"
#include "io/serialize.hpp"

namespace ranm {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

TEST(DigitSetupGolden, NetworkBytesAndAccuracyArePinned) {
  DigitLabSetup setup = make_digit_setup(DigitLabConfig{});
  std::ostringstream out(std::ios::binary);
  save_network(out, setup.net);
  const std::string bytes = out.str();
  EXPECT_EQ(bytes.size(), 51240U);
  EXPECT_EQ(fnv1a(bytes), 0x19C8F26C4FB874BEULL)
      << "0x" << std::hex << fnv1a(bytes);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(setup.accuracy), 0x3F747AE1U)
      << setup.accuracy;
}

}  // namespace
}  // namespace ranm
