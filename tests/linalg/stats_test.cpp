#include "linalg/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace powerlens::linalg {
namespace {

TEST(ColumnMeans, Computes) {
  const Matrix m{{1.0, 10.0}, {3.0, 20.0}};
  const std::vector<double> mu = column_means(m);
  ASSERT_EQ(mu.size(), 2u);
  EXPECT_DOUBLE_EQ(mu[0], 2.0);
  EXPECT_DOUBLE_EQ(mu[1], 15.0);
}

TEST(ColumnMeans, EmptyThrows) {
  EXPECT_THROW(column_means(Matrix()), std::invalid_argument);
}

TEST(Covariance, KnownTwoColumn) {
  // Perfectly correlated columns: cov = var on and off diagonal.
  const Matrix m{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  const Matrix c = covariance(m);
  EXPECT_NEAR(c(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(c(1, 1), 4.0, 1e-12);
  EXPECT_NEAR(c(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(c(1, 0), 2.0, 1e-12);
}

TEST(Covariance, IndependentColumnsNearZeroOffDiagonal) {
  const Matrix m{{1.0, 1.0}, {-1.0, 1.0}, {1.0, -1.0}, {-1.0, -1.0}};
  const Matrix c = covariance(m);
  EXPECT_NEAR(c(0, 1), 0.0, 1e-12);
}

TEST(Covariance, SingleSampleIsZero) {
  const Matrix m{{5.0, 7.0}};
  const Matrix c = covariance(m);
  EXPECT_DOUBLE_EQ(c(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 0.0);
}

TEST(Covariance, SymmetricResult) {
  const Matrix m{{1, 2, 3}, {4, 1, 0}, {2, 2, 2}, {0, 5, 1}};
  const Matrix c = covariance(m);
  EXPECT_LT(Matrix::max_abs_diff(c, c.transposed()), 1e-12);
}

TEST(StandardScaler, TransformBeforeFitThrows) {
  StandardScaler s;
  EXPECT_THROW(s.transform(Matrix(1, 1)), std::logic_error);
}

TEST(StandardScaler, ZeroMeanUnitVariance) {
  const Matrix m{{1.0}, {2.0}, {3.0}, {4.0}};
  StandardScaler s;
  const Matrix t = s.fit_transform(m);
  double mean = 0.0;
  for (std::size_t r = 0; r < 4; ++r) mean += t(r, 0);
  mean /= 4.0;
  EXPECT_NEAR(mean, 0.0, 1e-12);
  double var = 0.0;
  for (std::size_t r = 0; r < 4; ++r) var += t(r, 0) * t(r, 0);
  var /= 3.0;  // matches the unbiased fit
  EXPECT_NEAR(var, 1.0, 1e-12);
}

TEST(StandardScaler, ConstantColumnMapsToZero) {
  const Matrix m{{5.0, 1.0}, {5.0, 2.0}, {5.0, 3.0}};
  StandardScaler s;
  const Matrix t = s.fit_transform(m);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(t(r, 0), 0.0);
}

TEST(StandardScaler, FeatureCountMismatchThrows) {
  StandardScaler s;
  s.fit(Matrix(3, 2, 1.0));
  EXPECT_THROW(s.transform(Matrix(3, 3)), std::invalid_argument);
}

TEST(StandardScaler, TransformRowMatchesMatrixTransform) {
  // One row transformed alone equals that row of the whole-matrix
  // transform: the scaling is per column, never across rows.
  const Matrix m{{1.0, 10.0}, {2.0, 30.0}, {3.0, 20.0}};
  StandardScaler s;
  const Matrix t = s.fit_transform(m);
  const Matrix row = s.transform(Matrix{{m(1, 0), m(1, 1)}});
  EXPECT_EQ(row(0, 0), t(1, 0));
  EXPECT_EQ(row(0, 1), t(1, 1));
}

TEST(StandardScaler, SingleSampleAllZero) {
  const Matrix m{{7.0, 9.0}};
  StandardScaler s;
  const Matrix t = s.fit_transform(m);
  EXPECT_DOUBLE_EQ(t(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 0.0);
}

}  // namespace
}  // namespace powerlens::linalg
