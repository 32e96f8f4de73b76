// DBSCAN over a precomputed distance matrix (Algorithm 1, line 13).
//
// DBSCAN runs over an ε-threshold CSR adjacency: emitted by the distance
// pipeline's own sweeps (clustering/distance.hpp) on the plan path, or
// built in one lower-triangle pass over a distance matrix for
// hyperparameter sweeps. Expansion order matches the classic dense
// implementation — seeds ascend, the frontier is FIFO over first
// insertions, and CSR rows list neighbors in ascending index — so labels
// are identical to it; that implementation is the test oracle
// dbscan_reference (tests/support/distance_oracles.hpp).
#pragma once

#include "linalg/matrix.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace powerlens::clustering {

inline constexpr int kNoise = -1;

struct DbscanParams {
  double eps = 0.2;          // neighborhood radius in the power-distance space
  std::size_t min_pts = 3;   // least number of operators per cluster
};

// ε-threshold adjacency in CSR form: row i lists every j (self included,
// ascending) with dist(i, j) <= eps. Built once per clustering; DBSCAN's
// neighbor queries become O(degree) row lookups instead of O(n) matrix
// rescans.
struct EpsAdjacency {
  std::size_t n = 0;
  std::vector<std::uint32_t> offsets;    // n + 1 row starts
  std::vector<std::uint32_t> neighbors;  // ascending within each row

  std::size_t degree(std::size_t i) const noexcept {
    return offsets[i + 1] - offsets[i];
  }
  const std::uint32_t* row(std::size_t i) const noexcept {
    return neighbors.data() + offsets[i];
  }

  // One row-major pass over the LOWER triangle (diagonal included) of a
  // symmetric distance matrix — the path for hyperparameter sweeps where
  // eps is not known when the matrix is built. The upper triangle is never
  // read, so the distance pipeline's triangular output is valid input.
  // Throws std::invalid_argument on a non-square/empty matrix or eps <= 0,
  // std::length_error when the neighbor count overflows the 32-bit offsets.
  static EpsAdjacency from_distances(const linalg::Matrix& distances,
                                     double eps);
  // Assembly from the packed per-row bitmaps the fused blend kernels emit
  // (kernels::dist_blend_adj / gram_blend_adj): bits[i*words + w] bit b set
  // means j = 64*w + b is a neighbor of i. Scanning words ascending yields
  // ascending neighbor order for free. Throws std::length_error when the
  // summed degrees overflow the 32-bit offsets.
  static EpsAdjacency from_bitmap(std::size_t n, const std::uint64_t* bits,
                                  std::size_t words,
                                  const std::size_t* degree);
};

// Returns one label per adjacency row: 0..k-1 for cluster membership,
// kNoise for noise points. The adjacency already encodes eps, so only
// min_pts is read from `params`. Labels are identical to the dense
// reference on the matrix the adjacency was built from (property-tested).
// Throws std::invalid_argument on a malformed adjacency, eps <= 0 or
// min_pts == 0.
std::vector<int> dbscan(const EpsAdjacency& adjacency,
                        const DbscanParams& params);

}  // namespace powerlens::clustering
