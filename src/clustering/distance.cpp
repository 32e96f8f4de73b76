#include "clustering/distance.hpp"

#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"
#include "linalg/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace powerlens::clustering {

namespace {

// Per-offset spacing-penalty table shared by both blend tails:
// penalty[t] = 1 - exp(-lambda * t), penalty[0] = 0.
void fill_penalty(double lambda, std::size_t n, linalg::Matrix& penalty) {
  penalty(0, 0) = 0.0;
  for (std::size_t t = 1; t < n; ++t) {
    penalty(0, t) = 1.0 - std::exp(-lambda * static_cast<double>(t));
  }
}

// Full-matrix normalize-and-blend + ε-bitmap over the raw feature
// distances in `out`, whose maximum is `max_d`: the tail of the Euclidean
// path and of the zero-covariance Mahalanobis case (an all-zero matrix).
void blend_full_adj(const DistanceParams& params, double max_d, double eps,
                    linalg::Workspace& ws, linalg::Matrix& out,
                    EpsAdjacency& adj) {
  const std::size_t n = out.rows();
  const double inv_max = max_d > 0.0 ? 1.0 / max_d : 1.0;
  linalg::Workspace::Lease penalty = ws.lease_uninit(1, n);
  fill_penalty(params.lambda, n, *penalty);
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> bits(n * words);
  std::vector<std::size_t> degree(n);
  linalg::kernels::dist_blend_adj(n, params.alpha, inv_max, 1.0 - params.alpha,
                                  penalty->data().data(), out.data().data(), n,
                                  eps, bits.data(), words, degree.data());
  adj = EpsAdjacency::from_bitmap(n, bits.data(), words, degree.data());
}

// Pairwise Euclidean distances between rows (the ablation comparator),
// each pair computed once and mirrored.
void euclidean_distances_into(const linalg::Matrix& x, linalg::Matrix& dist) {
  const std::size_t n = x.rows();
  dist.reshape(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < x.cols(); ++k) {
        const double d = x(i, k) - x(j, k);
        acc += d * d;
      }
      const double dd = std::sqrt(acc);
      dist(i, j) = dd;
      dist(j, i) = dd;
    }
  }
}

}  // namespace

void power_distance_matrix_adj_into(const linalg::Matrix& x,
                                    const DistanceParams& params, double eps,
                                    linalg::Workspace& ws, linalg::Matrix& out,
                                    EpsAdjacency& adj) {
  if (params.alpha < 0.0 || params.alpha > 1.0) {
    throw std::invalid_argument("power_distance_matrix: alpha outside [0,1]");
  }
  if (eps <= 0.0) {
    throw std::invalid_argument("power_distance_matrix: eps must be > 0");
  }
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  if (n == 0 || d == 0) {
    throw std::invalid_argument("power_distance_matrix: empty feature table");
  }

  if (params.metric == FeatureMetric::kEuclidean) {
    euclidean_distances_into(x, out);
    double max_d = 0.0;
    for (const double v : out.data()) max_d = std::max(max_d, v);
    blend_full_adj(params, max_d, eps, ws, out, adj);
    return;
  }

  // P = Wᵀ W; d²(i,j) = ‖W(xᵢ − xⱼ)‖² = ‖yᵢ − yⱼ‖² with Y = X Wᵀ. The mean
  // never needs subtracting — it cancels in the row differences.
  linalg::Matrix w;
  {
    linalg::Workspace::Lease cov = ws.lease(d, d);
    linalg::covariance_into(x, *cov);
    w = linalg::whitening_factor_spd(*cov);
  }
  const std::size_t k = w.rows();
  if (k == 0) {
    // Zero covariance: every pairwise feature distance is 0.
    out.reshape(n, n);
    blend_full_adj(params, 0.0, eps, ws, out, adj);
    return;
  }

  linalg::Workspace::Lease y = ws.lease_uninit(n, k);
  linalg::kernels::gemm_nt(n, k, d, x.data().data(), d, w.data().data(), d,
                           y->data().data(), k);
  // Lower Gram triangle only (each entry one fused multiply-add chain — see
  // syrk_nt's contract), then a max prepass straight out of the Gram
  // matrix, then ONE sweep writing the blended lower triangle + zero
  // diagonal and the symmetric ε-bitmap. The mirror half is never computed.
  linalg::Workspace::Lease gram = ws.lease_uninit(n, n);
  {
    linalg::Workspace::Lease at = ws.lease_uninit(k, n);  // syrk Aᵀ scratch
    linalg::kernels::syrk_nt(n, k, y->data().data(), k, at->data().data(),
                             gram->data().data(), n);
  }
  linalg::Workspace::Lease norms = ws.lease_uninit(1, n);
  double max_d = 0.0;
  linalg::kernels::gram_dist_max(n, gram->data().data(), n,
                                 norms->data().data(), &max_d);
  const double inv_max = max_d > 0.0 ? 1.0 / max_d : 1.0;

  linalg::Workspace::Lease penalty = ws.lease_uninit(1, n);
  fill_penalty(params.lambda, n, *penalty);
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> bits(n * words);
  std::vector<std::size_t> degree(n);
  out.reshape_no_fill(n, n);  // lower triangle fully overwritten below
  linalg::kernels::gram_blend_adj(
      n, gram->data().data(), n, norms->data().data(), params.alpha, inv_max,
      1.0 - params.alpha, penalty->data().data(), out.data().data(), n, eps,
      bits.data(), words, degree.data());
  adj = EpsAdjacency::from_bitmap(n, bits.data(), words, degree.data());
}

}  // namespace powerlens::clustering
