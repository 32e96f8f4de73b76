// End-to-end power behavior similarity clustering (Algorithm 1).
//
// Chains: z-score scaling of the depthwise feature table -> regularized
// Mahalanobis power distances + ε-adjacency (one triangular pipeline,
// clustering/distance.hpp) -> DBSCAN -> contiguity post-processing ->
// PowerView. One network per call, as in the paper; PowerLens::optimize
// runs these pieces phase by phase, and the offline grid sweep computes
// the distances once per network and re-clusters per grid point.
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

// Runs Algorithm 1 on a graph: extracts + scales depthwise features,
// computes the power distances with their ε-adjacency, clusters, and
// post-processes into a PowerView. All matrix temporaries come from `ws`
// (the serving hot path passes its per-worker Workspace, so repeated calls
// do no matrix heap traffic after warmup); a null `ws` means a call-local
// one.
PowerView build_power_view(const dnn::Graph& graph,
                           const ClusteringConfig& config,
                           linalg::Workspace* ws = nullptr);

// Variant taking a pre-extracted *unscaled* depthwise feature table (row i ==
// layer i).
PowerView build_power_view(const linalg::Matrix& depthwise_features,
                           const ClusteringConfig& config,
                           linalg::Workspace* ws = nullptr);

// Scales the unscaled depthwise table with its own fitted z-score scaler,
// then power_distance_matrix_adj_into: `dist` gets the TRIANGULAR power
// distances (lower half + zero diagonal; upper half unspecified — index
// (max(i, j), min(i, j))) and `adj` their ε-threshold CSR adjacency. The
// distances do not depend on eps, so a hyperparameter sweep computes them
// once and re-clusters per grid point through build_power_view_from_adjacency
// with an EpsAdjacency::from_distances built at each further eps.
void power_distances_adj_into(const linalg::Matrix& depthwise_features,
                              const DistanceParams& params, double eps,
                              linalg::Workspace& ws, linalg::Matrix& dist,
                              EpsAdjacency& adj);

// DBSCAN + post-processing on a precomputed power-distance matrix, with the
// ε-neighborhoods taken from a prebuilt CSR adjacency (the fused
// distance-pipeline output, or EpsAdjacency::from_distances). `adj` must
// have been built from `distances` at hyper.eps. Reads only the lower
// triangle of `distances`.
PowerView build_power_view_from_adjacency(const linalg::Matrix& distances,
                                          const EpsAdjacency& adj,
                                          const ClusteringHyperparams& hyper);

}  // namespace powerlens::clustering
