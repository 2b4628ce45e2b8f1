#include "tensor/linalg.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace ranm {
namespace {

TEST(Linalg, MatvecMatchesLoop) {
  Rng rng(4);
  Tensor a = Tensor::random_uniform({5, 7}, rng);
  Tensor x = Tensor::random_uniform({7}, rng);
  Tensor y = matvec(a, x);
  ASSERT_EQ(y.numel(), 5U);
  for (std::size_t i = 0; i < 5; ++i) {
    float want = 0.0F;
    for (std::size_t p = 0; p < 7; ++p) want += a(i, p) * x[p];
    EXPECT_NEAR(y[i], want, 1e-4F);
  }
  EXPECT_THROW((void)matvec(a, Tensor({5})), std::invalid_argument);
}

TEST(Linalg, MatvecTIsTransposeProduct) {
  Rng rng(5);
  Tensor a = Tensor::random_uniform({5, 7}, rng);
  Tensor x = Tensor::random_uniform({5}, rng);
  Tensor y = matvec_t(a, x);
  ASSERT_EQ(y.numel(), 7U);
  for (std::size_t p = 0; p < 7; ++p) {
    float want = 0.0F;
    for (std::size_t i = 0; i < 5; ++i) want += a(i, p) * x[i];
    EXPECT_NEAR(y[p], want, 1e-4F);
  }
}

TEST(Linalg, Outer) {
  Tensor x = Tensor::vector({1, 2});
  Tensor y = Tensor::vector({3, 4, 5});
  Tensor m = outer(x, y);
  ASSERT_EQ(m.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(m(0, 2), 5.0F);
  EXPECT_FLOAT_EQ(m(1, 0), 6.0F);
}

}  // namespace
}  // namespace ranm
