#include "clustering/cluster.hpp"

#include "features/depthwise.hpp"
#include "linalg/stats.hpp"

#include <stdexcept>
#include <vector>

namespace powerlens::clustering {

PowerView build_power_view(const dnn::Graph& graph,
                           const ClusteringConfig& config,
                           linalg::Workspace* ws) {
  return build_power_view(features::DepthwiseFeatureExtractor::extract(graph),
                          config, ws);
}

PowerView build_power_view(const linalg::Matrix& depthwise_features,
                           const ClusteringConfig& config,
                           linalg::Workspace* ws) {
  linalg::Workspace local_ws;
  linalg::Workspace& w = ws != nullptr ? *ws : local_ws;
  const std::size_t n = depthwise_features.rows();
  linalg::Workspace::Lease dist = w.lease_uninit(n, n);
  EpsAdjacency adj;
  power_distances_adj_into(depthwise_features, config.distance,
                           config.hyper.eps, w, *dist, adj);
  return build_power_view_from_adjacency(*dist, adj, config.hyper);
}

void power_distances_adj_into(const linalg::Matrix& depthwise_features,
                              const DistanceParams& params, double eps,
                              linalg::Workspace& ws, linalg::Matrix& dist,
                              EpsAdjacency& adj) {
  linalg::StandardScaler scaler;
  scaler.fit(depthwise_features);
  linalg::Workspace::Lease scaled =
      ws.lease(depthwise_features.rows(), depthwise_features.cols());
  scaler.transform_into(depthwise_features, *scaled);
  power_distance_matrix_adj_into(*scaled, params, eps, ws, dist, adj);
}

PowerView build_power_view_from_adjacency(const linalg::Matrix& distances,
                                          const EpsAdjacency& adj,
                                          const ClusteringHyperparams& hyper) {
  if (adj.n != distances.rows()) {
    throw std::invalid_argument(
        "build_power_view_from_adjacency: adjacency/matrix size mismatch");
  }
  const std::vector<int> labels = dbscan(adj, {hyper.eps, hyper.min_pts});
  return process_clusters(labels, distances,
                          {.min_block_layers = hyper.min_pts});
}

}  // namespace powerlens::clustering
