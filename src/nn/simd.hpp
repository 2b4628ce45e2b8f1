// 16-byte vectors for the batched nn kernels.
//
// GCC and clang lower these generic vector types to the target's SIMD
// registers (one SSE2 register on baseline x86-64): no intrinsics, no ISA
// dispatch. The kernels use them where the autovectorizer keeps a loop
// scalar: float-to-double accumulation (f64x2) and short per-window
// select chains (f32x4). Each lane performs the same IEEE operation as
// the scalar oracle, so results stay bit-identical.
#pragma once

#include <cstdint>
#include <cstring>

namespace ranm::simd {

using f64x2 = double __attribute__((vector_size(16)));
using f32x4 = float __attribute__((vector_size(16)));
using u32x4 = std::uint32_t __attribute__((vector_size(16)));

[[nodiscard]] inline f32x4 load4(const float* p) noexcept {
  f32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, f32x4 v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

/// p[0..3] = static_cast<float>(lo[0], lo[1], hi[0], hi[1]) + bias.
inline void store4_narrowed(float* p, f64x2 lo, f64x2 hi,
                            float bias) noexcept {
  f32x4 f = {static_cast<float>(lo[0]), static_cast<float>(lo[1]),
             static_cast<float>(hi[0]), static_cast<float>(hi[1])};
  f += bias;
  std::memcpy(p, &f, sizeof f);
}

/// p[0], p[1] widened to double (exact).
[[nodiscard]] inline f64x2 load2_widened(const float* p) noexcept {
  return f64x2{p[0], p[1]};
}


}  // namespace ranm::simd
