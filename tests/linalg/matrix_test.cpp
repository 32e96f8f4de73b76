#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace powerlens::linalg {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, FillConstruction) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(Matrix, InitializerListConstruction) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityHasOnesOnDiagonal) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, FromRowsRoundTrip) {
  const double data[] = {1, 2, 3, 4, 5, 6};
  const Matrix m = Matrix::from_rows(2, 3, data);
  EXPECT_DOUBLE_EQ(m(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 4.0);
}

TEST(Matrix, FromRowsSizeMismatchThrows) {
  const double data[] = {1, 2, 3};
  EXPECT_THROW(Matrix::from_rows(2, 2, data), std::invalid_argument);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, TransposeSwapsIndices) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(Matrix, AdditionAndSubtraction) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{10, 20}, {30, 40}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 44.0);
  const Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 0), 9.0);
}

TEST(Matrix, ShapeMismatchAdditionThrows) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Matrix, ScalarMultiplication) {
  Matrix a{{1, -2}};
  const Matrix s = 2.0 * a;
  EXPECT_DOUBLE_EQ(s(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s(0, 1), -4.0);
}

TEST(Matrix, MatrixProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix p = a * b;
  EXPECT_DOUBLE_EQ(p(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(p(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 50.0);
}

TEST(Matrix, ProductDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, ProductWithIdentityIsNoop) {
  Matrix a{{1, 2}, {3, 4}};
  const Matrix p = a * Matrix::identity(2);
  EXPECT_EQ(p, a);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a{{1, 2}};
  Matrix b{{1.5, 1.0}};
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 1.0);
}

TEST(MatVec, ComputesProduct) {
  // A matrix-vector product is the product with a one-column matrix.
  const Matrix m{{1, 2}, {3, 4}};
  const Matrix x{{1.0}, {1.0}};
  const Matrix y = m * x;
  ASSERT_EQ(y.rows(), 2u);
  ASSERT_EQ(y.cols(), 1u);
  EXPECT_DOUBLE_EQ(y(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(y(1, 0), 7.0);
}

TEST(MatVec, DimensionMismatchThrows) {
  const Matrix m(2, 3);
  const Matrix x{{1.0}, {1.0}};
  EXPECT_THROW(m * x, std::invalid_argument);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix a{{3, 4}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

}  // namespace
}  // namespace powerlens::linalg
