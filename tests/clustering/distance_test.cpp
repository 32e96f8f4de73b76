// The triangular power-distance pipeline against the dense full-matrix
// oracle (bitwise, on every dispatch path) and the metric's own properties
// on the oracle's Mahalanobis / Euclidean / spacing terms.
#include "clustering/distance.hpp"

#include "linalg/kernels.hpp"
#include "linalg/workspace.hpp"
#include "support/distance_oracles.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace powerlens::clustering {
namespace {

using linalg::Matrix;
using oracle::euclidean_distances;
using oracle::mahalanobis_distances;
using oracle::mahalanobis_distances_naive;
using oracle::spacing_penalty;

// The production pipeline's output with its lower triangle mirrored into
// the (unspecified) upper half, so full-matrix assertions apply.
Matrix power_distance_matrix(const Matrix& x, const DistanceParams& p) {
  linalg::Workspace ws;
  Matrix out;
  EpsAdjacency adj;
  power_distance_matrix_adj_into(x, p, 0.5, ws, out, adj);
  for (std::size_t i = 0; i < out.rows(); ++i) {
    for (std::size_t j = 0; j < i; ++j) out(j, i) = out(i, j);
  }
  return out;
}

// Lower triangle + diagonal bitwise equality — the pipeline's contract.
void expect_lower_eq(const Matrix& got, const Matrix& want,
                     const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(got(i, j), want(i, j))
          << what << " at (" << i << ", " << j << ")";
    }
  }
}

TEST(Mahalanobis, ZeroDiagonalSymmetric) {
  const Matrix x{{1.0, 2.0}, {3.0, 1.0}, {0.0, 5.0}, {2.0, 2.0}};
  const Matrix d = mahalanobis_distances(x);
  for (std::size_t i = 0; i < d.rows(); ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < d.cols(); ++j) {
      EXPECT_DOUBLE_EQ(d(i, j), d(j, i));
    }
  }
}

TEST(Mahalanobis, ScaleInvariance) {
  // Mahalanobis whitens by covariance: multiplying one feature column by a
  // constant must not change pairwise distances (unlike Euclidean).
  Matrix x{{1.0, 2.0}, {3.0, 1.0}, {0.0, 5.0}, {2.0, 2.0}, {4.0, 0.5}};
  const Matrix d1 = mahalanobis_distances(x);
  Matrix scaled = x;
  for (std::size_t r = 0; r < x.rows(); ++r) scaled(r, 1) *= 1000.0;
  const Matrix d2 = mahalanobis_distances(scaled);
  EXPECT_LT(Matrix::max_abs_diff(d1, d2), 1e-6);
}

TEST(Mahalanobis, EuclideanIsNotScaleInvariant) {
  Matrix x{{1.0, 2.0}, {3.0, 1.0}, {0.0, 5.0}};
  const Matrix d1 = euclidean_distances(x);
  Matrix scaled = x;
  for (std::size_t r = 0; r < x.rows(); ++r) scaled(r, 1) *= 1000.0;
  const Matrix d2 = euclidean_distances(scaled);
  EXPECT_GT(Matrix::max_abs_diff(d1, d2), 1.0);
}

TEST(Mahalanobis, HandlesConstantColumn) {
  // Constant features make the covariance singular; the pseudo-inverse must
  // cope without NaNs.
  const Matrix x{{1.0, 7.0}, {2.0, 7.0}, {3.0, 7.0}, {4.0, 7.0}};
  const Matrix d = mahalanobis_distances(x);
  for (std::size_t i = 0; i < d.rows(); ++i) {
    for (std::size_t j = 0; j < d.cols(); ++j) {
      EXPECT_FALSE(std::isnan(d(i, j)));
      EXPECT_GE(d(i, j), 0.0);
    }
  }
  EXPECT_GT(d(0, 3), 0.0);
}

TEST(Euclidean, MatchesHandComputed) {
  const Matrix x{{0.0, 0.0}, {3.0, 4.0}};
  const Matrix d = euclidean_distances(x);
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
}

TEST(SpacingPenalty, ZeroOnDiagonalGrowsWithSeparation) {
  const Matrix r = spacing_penalty(5, 0.3);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(r(i, i), 0.0);
  EXPECT_LT(r(0, 1), r(0, 2));
  EXPECT_LT(r(0, 2), r(0, 4));
  EXPECT_NEAR(r(0, 1), 1.0 - std::exp(-0.3), 1e-12);
}

TEST(SpacingPenalty, LambdaControlsDecay) {
  const Matrix slow = spacing_penalty(4, 0.05);
  const Matrix fast = spacing_penalty(4, 1.0);
  EXPECT_LT(slow(0, 3), fast(0, 3));
}

TEST(SpacingPenalty, BadArgsThrow) {
  EXPECT_THROW(spacing_penalty(0, 0.1), std::invalid_argument);
  EXPECT_THROW(spacing_penalty(4, -0.1), std::invalid_argument);
}

TEST(PowerDistance, AlphaBlendsTerms) {
  const Matrix x{{1.0, 0.0}, {0.0, 1.0}, {5.0, 5.0}};
  DistanceParams p;
  p.lambda = 0.5;

  p.alpha = 1.0;  // pure feature distance (normalized)
  const Matrix d_feat = power_distance_matrix(x, p);
  p.alpha = 0.0;  // pure spacing penalty
  const Matrix d_space = power_distance_matrix(x, p);
  EXPECT_LT(Matrix::max_abs_diff(d_space, spacing_penalty(3, 0.5)), 1e-12);

  p.alpha = 0.5;
  const Matrix d_mix = power_distance_matrix(x, p);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(d_mix(i, j), 0.5 * d_feat(i, j) + 0.5 * d_space(i, j),
                  1e-12);
    }
  }
}

TEST(PowerDistance, FeatureTermNormalizedToUnitMax) {
  const Matrix x{{0.0, 0.0}, {100.0, 0.0}, {0.0, 100.0}};
  DistanceParams p;
  p.alpha = 1.0;
  const Matrix d = power_distance_matrix(x, p);
  double mx = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) mx = std::max(mx, d(i, j));
  }
  EXPECT_NEAR(mx, 1.0, 1e-12);
}

TEST(PowerDistance, AlphaOutOfRangeThrows) {
  const Matrix x{{1.0}, {2.0}};
  DistanceParams p;
  p.alpha = 1.5;
  EXPECT_THROW(power_distance_matrix(x, p), std::invalid_argument);
}

TEST(PowerDistance, EuclideanMetricOption) {
  const Matrix x{{1.0, 2.0}, {3.0, 1.0}, {0.0, 5.0}};
  DistanceParams p;
  p.metric = FeatureMetric::kEuclidean;
  EXPECT_NO_THROW(power_distance_matrix(x, p));
}

TEST(Mahalanobis, EmptyThrows) {
  DistanceParams p;
  EXPECT_THROW(power_distance_matrix(Matrix(), p), std::invalid_argument);
  p.metric = FeatureMetric::kEuclidean;
  EXPECT_THROW(power_distance_matrix(Matrix(), p), std::invalid_argument);
  EXPECT_THROW(mahalanobis_distances_naive(Matrix()), std::invalid_argument);
}

TEST(PowerDistance, NonPositiveEpsThrows) {
  const Matrix x{{1.0, 2.0}, {3.0, 1.0}, {0.0, 5.0}};
  linalg::Workspace ws;
  Matrix out;
  EpsAdjacency adj;
  for (const double eps : {0.0, -0.25}) {
    EXPECT_THROW(power_distance_matrix_adj_into(x, {}, eps, ws, out, adj),
                 std::invalid_argument);
  }
}

Matrix random_table(std::size_t n, std::size_t d, std::uint64_t seed) {
  Matrix x(n, d);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  for (double& v : x.data()) v = dist(rng);
  return x;
}

TEST(MahalanobisWhitened, MatchesNaiveQuadraticFormOracle) {
  // The whitened path (whiten + Gram; the production lower triangle equals
  // this dense matrix bitwise, see TriangularPathMatchesDenseOraclePerTable)
  // and the O(n^2 d^2) per-pair quadratic form compute the same metric
  // through different factorizations; they must agree to factorization
  // rounding.
  for (const std::size_t n : {5ul, 17ul, 40ul}) {
    const Matrix x = random_table(n, 9, 1000 + n);
    const Matrix fast = mahalanobis_distances(x);
    const Matrix naive = mahalanobis_distances_naive(x);
    EXPECT_LT(Matrix::max_abs_diff(fast, naive), 1e-8) << "n=" << n;
  }
}

TEST(MahalanobisWhitened, MatchesNaiveOnRankDeficientTable) {
  // Duplicate and constant columns force the eigenvalue cutoff to drop
  // directions; both paths must agree on the resulting degenerate metric.
  Matrix x = random_table(20, 3, 42);
  Matrix deficient(20, 6);
  for (std::size_t r = 0; r < 20; ++r) {
    deficient(r, 0) = x(r, 0);
    deficient(r, 1) = x(r, 1);
    deficient(r, 2) = x(r, 2);
    deficient(r, 3) = x(r, 0);        // duplicate
    deficient(r, 4) = 7.0;            // constant
    deficient(r, 5) = x(r, 1) * 2.0;  // linear combination
  }
  const Matrix fast = mahalanobis_distances(deficient);
  const Matrix naive = mahalanobis_distances_naive(deficient);
  EXPECT_LT(Matrix::max_abs_diff(fast, naive), 1e-8);
}

TEST(MahalanobisWhitened, ExactSymmetryAndZeroDiagonal) {
  // Each pair is computed once and mirrored: symmetry is bitwise, not just
  // within tolerance, and the diagonal is exactly zero.
  const Matrix x = random_table(31, 7, 9);
  const Matrix d = mahalanobis_distances(x);
  for (std::size_t i = 0; i < d.rows(); ++i) {
    EXPECT_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < d.cols(); ++j) {
      EXPECT_EQ(d(i, j), d(j, i));
    }
  }
}

TEST(MahalanobisWhitened, AllConstantTableGivesZeroDistances) {
  // Zero covariance keeps no whitened directions; the old pinv(0) = 0 path
  // also produced all-zero distances. With alpha = 1 the pipeline's output
  // is the normalized feature term alone.
  Matrix x(6, 4);
  for (double& v : x.data()) v = 3.5;
  const Matrix whitened = mahalanobis_distances(x);
  for (const double v : whitened.data()) EXPECT_EQ(v, 0.0);
  DistanceParams p;
  p.alpha = 1.0;
  const Matrix d = power_distance_matrix(x, p);
  for (const double v : d.data()) EXPECT_EQ(v, 0.0);
}

// Workspace reuse: a second pass over a warmed pool reproduces the dense
// oracle bit for bit and creates no buffers.
void expect_workspace_reuse_matches_oracle(const Matrix& x,
                                           const DistanceParams& p) {
  const Matrix want = oracle::power_distance_matrix(x, p);
  linalg::Workspace ws;
  Matrix pooled;
  EpsAdjacency adj;
  power_distance_matrix_adj_into(x, p, 0.3, ws, pooled, adj);
  expect_lower_eq(pooled, want, "first pass");
  const std::size_t created = ws.created();
  power_distance_matrix_adj_into(x, p, 0.3, ws, pooled, adj);
  expect_lower_eq(pooled, want, "warm pass");
  EXPECT_EQ(ws.created(), created);
}

TEST(MahalanobisWhitened, WorkspaceVariantIsBitwiseIdentical) {
  DistanceParams p;
  p.alpha = 1.0;  // the whitened Mahalanobis term alone
  expect_workspace_reuse_matches_oracle(random_table(23, 8, 77), p);
}

TEST(PowerDistance, WorkspaceVariantIsBitwiseIdentical) {
  expect_workspace_reuse_matches_oracle(random_table(19, 6, 5),
                                        DistanceParams{});
}

// The triangular pipeline reproduces the dense full-matrix oracle bit for
// bit — lower triangle, diagonal and ε-adjacency — on every dispatch path,
// including rank-deficient tables and the Euclidean metric.
TEST(PowerDistance, TriangularPathMatchesDenseOraclePerTable) {
  std::vector<Matrix> tables;
  tables.push_back(random_table(19, 6, 5));
  tables.push_back(random_table(31, 6, 99));
  tables.push_back(random_table(7, 4, 3));
  tables.push_back(random_table(70, 9, 8));
  Matrix constant_col = random_table(11, 5, 21);
  for (std::size_t r = 0; r < constant_col.rows(); ++r) {
    constant_col(r, 2) = 4.25;  // rank-deficient covariance member
  }
  tables.push_back(constant_col);

  for (const auto path :
       {linalg::kernels::DispatchPath::kScalar,
        linalg::kernels::DispatchPath::kAvx2,
        linalg::kernels::DispatchPath::kNeon}) {
    if (!linalg::kernels::path_available(path)) continue;
    struct PathGuard {
      explicit PathGuard(linalg::kernels::DispatchPath p) {
        linalg::kernels::set_path_override(p);
      }
      ~PathGuard() { linalg::kernels::set_path_override(std::nullopt); }
    } guard(path);
    for (const FeatureMetric metric :
         {FeatureMetric::kMahalanobis, FeatureMetric::kEuclidean}) {
      DistanceParams p;
      p.metric = metric;
      linalg::Workspace ws;
      for (std::size_t i = 0; i < tables.size(); ++i) {
        const std::string what =
            std::string(linalg::kernels::path_name(path)) + " table " +
            std::to_string(i) + " metric " +
            std::to_string(static_cast<int>(metric));
        const Matrix want = oracle::power_distance_matrix(tables[i], p);
        Matrix got;
        EpsAdjacency adj;
        power_distance_matrix_adj_into(tables[i], p, 0.35, ws, got, adj);
        expect_lower_eq(got, want, what);
        const EpsAdjacency scan = oracle::eps_adjacency_full_scan(want, 0.35);
        EXPECT_EQ(adj.offsets, scan.offsets) << what;
        EXPECT_EQ(adj.neighbors, scan.neighbors) << what;
      }
    }
  }
}

}  // namespace
}  // namespace powerlens::clustering
