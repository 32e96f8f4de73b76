// Global (coarse-grained) power-sensitive feature extraction — paper
// section 2.1.2, "Global Feature Extractor".
//
// Two facets, kept as separate vectors because the prediction models inject
// them at different network stages (Figure 3):
//   - structural: macro parameters of the topology — layer count, depth,
//     residual / concat / branch structure, operator-type histogram;
//   - statistics: aggregations of the fine-grained features — total FLOPs,
//     parameters, memory traffic, arithmetic-intensity statistics, and the
//     compute/memory operator proportions.
// The same extractor runs on a whole DNN (clustering-hyperparameter model
// input) and on a single power block (decision-model input) via the
// [begin, end) overloads.
#pragma once

#include "dnn/graph.hpp"

#include <vector>

namespace powerlens::features {

struct GlobalFeatures {
  std::vector<double> structural;
  std::vector<double> statistics;
};

inline constexpr std::size_t kStructuralDim = 7 + dnn::kNumOpTypes;
inline constexpr std::size_t kStatisticsDim = 12;

class GlobalFeatureExtractor {
 public:
  // Whole-network features.
  static GlobalFeatures extract(const dnn::Graph& graph);

  // Features of the contiguous layer range [begin, end) — a power block.
  // Join/branch counts consider only layers inside the range.
  // Throws std::invalid_argument on an empty or out-of-bounds range.
  static GlobalFeatures extract(const dnn::Graph& graph, std::size_t begin,
                                std::size_t end);
};

}  // namespace powerlens::features
