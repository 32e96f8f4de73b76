// End-to-end power behavior similarity clustering (Algorithm 1).
//
// Chains: z-score scaling of the depthwise feature table -> regularized
// Mahalanobis power-distance matrix -> DBSCAN -> contiguity post-processing
// -> PowerView.
#pragma once

#include "clustering/dbscan.hpp"
#include "clustering/distance.hpp"
#include "clustering/postprocess.hpp"
#include "clustering/power_view.hpp"
#include "dnn/graph.hpp"
#include "linalg/workspace.hpp"

namespace powerlens::clustering {

// The hyperparameters the clustering-hyperparameter prediction model chooses
// per network (paper Figure 3): DBSCAN's neighborhood radius and minimum
// operator count.
struct ClusteringHyperparams {
  double eps = 0.2;
  std::size_t min_pts = 3;

  bool operator==(const ClusteringHyperparams&) const noexcept = default;
};

struct ClusteringConfig {
  ClusteringHyperparams hyper;
  DistanceParams distance;  // alpha, lambda, metric
};

// Runs Algorithm 1 on a graph: extracts + scales depthwise features, builds
// the power-distance matrix, clusters, and post-processes into a PowerView.
// When `ws` is non-null, all matrix temporaries (scaled table, distance
// pipeline scratch) are drawn from it — the serving hot path passes its
// per-worker Workspace so repeated calls do no heap traffic after warmup.
PowerView build_power_view(const dnn::Graph& graph,
                           const ClusteringConfig& config,
                           linalg::Workspace* ws = nullptr);

// Variant taking a pre-extracted *unscaled* depthwise feature table (row i ==
// layer i); used by the dataset generator to avoid re-extraction in sweeps.
PowerView build_power_view(const linalg::Matrix& depthwise_features,
                           const ClusteringConfig& config,
                           linalg::Workspace* ws = nullptr);

// Scaled features -> power-distance matrix (Algorithm 1 lines 2-12). Compute
// once per network, then sweep hyperparameters cheaply with the overload
// below — the distance matrix does not depend on eps/minPts.
linalg::Matrix power_distances_for(const linalg::Matrix& depthwise_features,
                                   const DistanceParams& params);
// Workspace variant: the result lands in `dist` (reshaped) and every
// temporary comes from `ws`.
void power_distances_into(const linalg::Matrix& depthwise_features,
                          const DistanceParams& params, linalg::Workspace& ws,
                          linalg::Matrix& dist);

// Batched variant over many networks' unscaled feature tables: scales each
// table with its own fitted scaler (exactly as power_distances_into does),
// then computes every distance matrix through one shared
// eigendecomposition batch (power_distance_matrix_batch_into). dists[i] is
// bitwise identical to power_distances_into on tables[i]; `tables` and
// `dists` must be the same length. This is PowerLens::optimize_batch's
// entry into Algorithm 1.
void power_distances_batch_into(
    std::span<const linalg::Matrix* const> depthwise_tables,
    const DistanceParams& params, linalg::Workspace& ws,
    std::span<linalg::Matrix* const> dists);

// Eps-aware variant of power_distances_into for when the clustering
// hyperparameters are already predicted (the cold-plan serving path): the
// power-distance matrix lands in `dist` and its ε-threshold CSR adjacency
// in `adj`, emitted inside the distance kernels' own sweeps — DBSCAN then
// runs on neighbor lists without ever rescanning the matrix. On the
// Mahalanobis path `dist` follows power_distance_matrix_adj_into's
// TRIANGULAR contract: lower half + zero diagonal bitwise identical to
// power_distances_into, upper half unspecified — consumers must index
// (max(i, j), min(i, j)). `adj` always matches the full symmetric matrix.
void power_distances_adj_into(const linalg::Matrix& depthwise_features,
                              const DistanceParams& params, double eps,
                              linalg::Workspace& ws, linalg::Matrix& dist,
                              EpsAdjacency& adj);

// Batched eps-aware variant (per-graph eps from per-graph hyperparameter
// predictions); dists[i]/adjs[i] match power_distances_adj_into on
// tables[i]. All spans must be the same length.
void power_distances_adj_batch_into(
    std::span<const linalg::Matrix* const> depthwise_tables,
    const DistanceParams& params, std::span<const double> eps,
    linalg::Workspace& ws, std::span<linalg::Matrix* const> dists,
    std::span<EpsAdjacency* const> adjs);

// DBSCAN + post-processing on a precomputed power-distance matrix.
PowerView build_power_view_from_distances(const linalg::Matrix& distances,
                                          const ClusteringHyperparams& hyper);

// Same, with the ε-neighborhoods taken from a prebuilt CSR adjacency (the
// fused distance-pipeline output). `adj` must have been built from
// `distances` at hyper.eps; labels — and therefore the PowerView — are
// identical to build_power_view_from_distances.
PowerView build_power_view_from_adjacency(const linalg::Matrix& distances,
                                          const EpsAdjacency& adj,
                                          const ClusteringHyperparams& hyper);

}  // namespace powerlens::clustering
