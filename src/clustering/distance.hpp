// Power-behavior distance computation (Algorithm 1, lines 2-12).
//
// The "power distance" between two operators combines:
//   - the Mahalanobis distance between their scaled depthwise feature
//     vectors, using the pseudo-inverse of the feature covariance (scale-free
//     across heterogeneous feature dimensions), and
//   - an operator-spacing regularization exp(-lambda * |i - j|) that keeps
//     physically distant operators from clustering merely because their
//     features look alike.
//
// NOTE on the regularization sign: Algorithm 1 writes
//   D_final = alpha * D + (1 - alpha) * R,  R = exp(-lambda |i-j|),
// but R as written *shrinks* the distance between far-apart operators,
// the opposite of the stated intent ("only physically adjacent operators
// are considered"). We therefore use the spacing *penalty*
//   R' = 1 - exp(-lambda |i-j|),
// which is zero for an operator and itself, grows with |i-j|, and matches
// the paper's described behaviour. DESIGN.md records this correction.
//
// Cost model: the Mahalanobis path factors the pseudo-inverse as
// P = Wᵀ W (linalg::whitening_factor_spd), whitens the feature table with
// one GEMM (Y = X Wᵀ), and reads every pairwise distance from
// ‖yᵢ‖² + ‖yⱼ‖² − 2·(Y Yᵀ)ᵢⱼ — O(n·d²) + two GEMMs instead of the naive
// O(n²·d²) per-pair quadratic form. Only the lower triangle is ever
// computed: one fused sweep writes the blended distances and the
// ε-neighbor bitmap DBSCAN consumes. This is the library's one distance
// computation; the naive quadratic form and the dense full-matrix pipeline
// live in tests/support/distance_oracles.hpp as equivalence oracles.
#pragma once

#include "clustering/dbscan.hpp"
#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"

namespace powerlens::clustering {

enum class FeatureMetric {
  kMahalanobis,  // the paper's choice
  kEuclidean,    // ablation comparator
};

struct DistanceParams {
  double alpha = 0.7;    // weight of the feature distance vs spacing penalty
  double lambda = 0.15;  // spacing decay rate
  FeatureMetric metric = FeatureMetric::kMahalanobis;
};

// Final power distance of a (scaled) feature table: alpha · feature
// distance (normalized to [0, 1] by its max) + (1 − alpha) · spacing
// penalty, plus its ε-threshold CSR adjacency, both from the distance
// kernels' own sweeps — DBSCAN never rescans the matrix.
//
// TRIANGULAR contract: `out` is n x n with the blended LOWER triangle and a
// zero diagonal; the upper triangle is unspecified (the Mahalanobis path
// never writes it). Blended values are symmetric, so consumers index
// (max(i, j), min(i, j)). `adj` equals EpsAdjacency::from_distances(out,
// eps): row i lists every j (ascending, self included) within eps.
// Throws std::invalid_argument on an empty table, alpha outside [0, 1] or
// eps <= 0.
void power_distance_matrix_adj_into(const linalg::Matrix& scaled_features,
                                    const DistanceParams& params, double eps,
                                    linalg::Workspace& ws, linalg::Matrix& out,
                                    EpsAdjacency& adj);

}  // namespace powerlens::clustering
