// Branch-free float selects for the batched nn kernels.
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

/// `term` where `mask` is all ones, -0.0F where it is zero. Adding -0.0F
/// leaves every float unchanged (x + -0 == x bit for bit, -0 + -0 == -0,
/// and a NaN keeps its payload), so `acc += masked_term(m, t)` is exactly
/// `if (m) acc += t` with the select off the accumulator's critical path.
[[nodiscard]] inline float masked_term(std::uint32_t mask,
                                       float term) noexcept {
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(term) & mask) |
                              (~mask & 0x80000000U));
}

/// The mask masked_term expects: all ones when `keep`, else zero.
[[nodiscard]] inline std::uint32_t lane_mask(bool keep) noexcept {
  return keep ? ~std::uint32_t{0} : 0;
}

}  // namespace ranm
