// Branch-free float select for the batched nn kernels.
#pragma once

#include <bit>
#include <cstdint>

namespace ranm {

/// `take_a ? a : b`, returning exactly one operand's bits. Written as a
/// bitwise blend because a float `?:` lets the compiler move an
/// operand's arithmetic into a data-dependent branch (it may not
/// speculate a trapping operation), which neither vectorizes nor
/// predicts; the blend computes both operands, then picks one.
[[nodiscard]] inline float blend(bool take_a, float a, float b) noexcept {
  const std::uint32_t mask = take_a ? ~std::uint32_t{0} : 0;
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & mask) |
                              (std::bit_cast<std::uint32_t>(b) & ~mask));
}

}  // namespace ranm
