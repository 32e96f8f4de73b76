// Reference oracles for the clustering pipeline (Algorithm 1), kept out of
// the library: the library computes power distances one way only — the
// triangular fused pipeline of clustering/distance.hpp — and the tests pin
// it against the straightforward formulations below.
//
//   - mahalanobis_distances_naive: the O(n²·d²) per-pair quadratic form
//     diffᵀ·pinv(cov)·diff. Agrees with the whitened path to
//     factorization rounding, not bitwise.
//   - mahalanobis_distances / power_distance_matrix / power_distances: the
//     dense FULL-matrix pipeline — whitening GEMM, lower Gram (the same
//     syrk_nt kernel), then a scalar mirror epilogue and a separate
//     normalize-and-blend pass over every element. The epilogue copies the
//     distance kernels' scalar expression order,
//       sqrt(max0((g(i,i) + g(j,j)) + -2·g(i,j))),
//     and the blend is alpha·(v·inv_max) + beta·penalty[|i−j|]. The Gram
//     entries are fused multiply-add chains, pinned by IEEE-754 on every
//     dispatch path, so the lower triangle of the production output must
//     equal these matrices BITWISE — no tolerance.
//   - eps_adjacency_full_scan: the ε-adjacency from a scan of every row of
//     a full symmetric matrix.
//   - dbscan_reference: the dense-matrix DBSCAN with O(n) neighbor rescans
//     and a frontier that re-enqueues labeled points; the CSR
//     implementation must reproduce its labels exactly.
//   - dbscan_csr: not an oracle — the library's DBSCAN on a matrix, i.e.
//     EpsAdjacency::from_distances followed by the CSR expansion.
#pragma once

#include "clustering/dbscan.hpp"
#include "clustering/distance.hpp"
#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <vector>

namespace powerlens::oracle {

inline linalg::Matrix mahalanobis_distances_naive(const linalg::Matrix& x) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  if (n == 0 || d == 0) {
    throw std::invalid_argument("mahalanobis_distances: empty feature table");
  }
  const linalg::Matrix cov = linalg::covariance(x);
  const linalg::Matrix p = linalg::pseudo_inverse_spd(cov);

  linalg::Matrix dist(n, n);
  std::vector<double> diff(d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      for (std::size_t k = 0; k < d; ++k) diff[k] = x(i, k) - x(j, k);
      // d^2 = diff^T P diff
      double acc = 0.0;
      for (std::size_t r = 0; r < d; ++r) {
        if (diff[r] == 0.0) continue;
        double row = 0.0;
        for (std::size_t c = 0; c < d; ++c) row += p(r, c) * diff[c];
        acc += diff[r] * row;
      }
      const double dd = std::sqrt(std::max(acc, 0.0));
      dist(i, j) = dd;
      dist(j, i) = dd;
    }
  }
  return dist;
}

// Full symmetric whitened Mahalanobis distances, zero diagonal.
inline linalg::Matrix mahalanobis_distances(const linalg::Matrix& x) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  if (n == 0 || d == 0) {
    throw std::invalid_argument("mahalanobis_distances: empty feature table");
  }
  const linalg::Matrix w = linalg::whitening_factor_spd(linalg::covariance(x));
  const std::size_t k = w.rows();
  linalg::Matrix dist(n, n);
  if (k == 0) return dist;  // zero covariance: all rows identical under P

  linalg::Matrix y(n, k);
  linalg::kernels::gemm_nt(n, k, d, x.data().data(), d, w.data().data(), d,
                           y.data().data(), k);
  linalg::Matrix gram(n, n);
  std::vector<double> at(k * n);
  linalg::kernels::syrk_nt(n, k, y.data().data(), k, at.data(),
                           gram.data().data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double s = gram(i, i) + gram(j, j);
      const double t = s + -2.0 * gram(i, j);
      const double v = std::sqrt(t > 0.0 ? t : 0.0);
      dist(i, j) = v;
      dist(j, i) = v;
    }
  }
  return dist;
}

inline linalg::Matrix euclidean_distances(const linalg::Matrix& x) {
  const std::size_t n = x.rows();
  if (n == 0 || x.cols() == 0) {
    throw std::invalid_argument("euclidean_distances: empty feature table");
  }
  linalg::Matrix dist(n, n);
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
  return dist;
}

// Spacing penalty matrix R'[i,j] = 1 - exp(-lambda * |i - j|).
inline linalg::Matrix spacing_penalty(std::size_t n, double lambda) {
  if (n == 0 || lambda < 0.0) {
    throw std::invalid_argument("spacing_penalty: bad arguments");
  }
  linalg::Matrix r(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = 1.0 - std::exp(-lambda * static_cast<double>(j - i));
      r(i, j) = v;
      r(j, i) = v;
    }
  }
  return r;
}

// Dense full-matrix power distance of a scaled feature table: feature
// distances, a max scan over the whole matrix, then the blend.
inline linalg::Matrix power_distance_matrix(
    const linalg::Matrix& scaled_features,
    const clustering::DistanceParams& params) {
  if (params.alpha < 0.0 || params.alpha > 1.0) {
    throw std::invalid_argument("power_distance_matrix: alpha outside [0,1]");
  }
  linalg::Matrix out =
      params.metric == clustering::FeatureMetric::kMahalanobis
          ? mahalanobis_distances(scaled_features)
          : euclidean_distances(scaled_features);
  const std::size_t n = out.rows();
  double max_d = 0.0;
  for (const double v : out.data()) max_d = std::max(max_d, v);
  const double inv_max = max_d > 0.0 ? 1.0 / max_d : 1.0;
  const double beta = 1.0 - params.alpha;
  std::vector<double> penalty(n, 0.0);
  for (std::size_t t = 1; t < n; ++t) {
    penalty[t] = 1.0 - std::exp(-params.lambda * static_cast<double>(t));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t off = i < j ? j - i : i - j;
      out(i, j) = params.alpha * (out(i, j) * inv_max) + beta * penalty[off];
    }
  }
  return out;
}

// power_distance_matrix on the z-score-scaled unscaled depthwise table.
inline linalg::Matrix power_distances(
    const linalg::Matrix& depthwise_features,
    const clustering::DistanceParams& params) {
  linalg::StandardScaler scaler;
  return power_distance_matrix(scaler.fit_transform(depthwise_features),
                               params);
}

// ε-adjacency from scanning every row of a full symmetric matrix.
inline clustering::EpsAdjacency eps_adjacency_full_scan(
    const linalg::Matrix& distances, double eps) {
  const std::size_t n = distances.rows();
  clustering::EpsAdjacency adj;
  adj.n = n;
  adj.offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t deg = 0;
    for (std::size_t j = 0; j < n; ++j) deg += distances(i, j) <= eps ? 1 : 0;
    adj.offsets[i + 1] = adj.offsets[i] + deg;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (distances(i, j) <= eps) {
        adj.neighbors.push_back(static_cast<std::uint32_t>(j));
      }
    }
  }
  return adj;
}

inline std::vector<int> dbscan_reference(
    const linalg::Matrix& distances, const clustering::DbscanParams& params) {
  if (!distances.square() || distances.rows() == 0) {
    throw std::invalid_argument("dbscan: distance matrix must be square");
  }
  if (params.eps <= 0.0 || params.min_pts == 0) {
    throw std::invalid_argument("dbscan: eps must be > 0 and min_pts >= 1");
  }
  const std::size_t n = distances.rows();

  auto neighbors = [&](std::size_t i) {
    std::vector<std::size_t> out;
    for (std::size_t j = 0; j < n; ++j) {
      if (distances(i, j) <= params.eps) out.push_back(j);  // includes i
    }
    return out;
  };

  constexpr int kUnvisited = -2;
  std::vector<int> labels(n, kUnvisited);
  int next_cluster = 0;

  for (std::size_t i = 0; i < n; ++i) {
    if (labels[i] != kUnvisited) continue;
    std::vector<std::size_t> nbrs = neighbors(i);
    if (nbrs.size() < params.min_pts) {
      labels[i] = clustering::kNoise;
      continue;
    }
    const int cluster = next_cluster++;
    labels[i] = cluster;
    std::deque<std::size_t> frontier(nbrs.begin(), nbrs.end());
    while (!frontier.empty()) {
      const std::size_t q = frontier.front();
      frontier.pop_front();
      if (labels[q] == clustering::kNoise) labels[q] = cluster;  // border
      if (labels[q] != kUnvisited) continue;
      labels[q] = cluster;
      const std::vector<std::size_t> q_nbrs = neighbors(q);
      if (q_nbrs.size() >= params.min_pts) {
        frontier.insert(frontier.end(), q_nbrs.begin(), q_nbrs.end());
      }
    }
  }
  return labels;
}

// The library's DBSCAN over the lower triangle of a distance matrix. Bad
// matrices and eps <= 0 throw std::invalid_argument from from_distances,
// min_pts == 0 from dbscan.
inline std::vector<int> dbscan_csr(const linalg::Matrix& distances,
                                   const clustering::DbscanParams& params) {
  return clustering::dbscan(
      clustering::EpsAdjacency::from_distances(distances, params.eps), params);
}

}  // namespace powerlens::oracle
