// Depthwise (fine-grained, layer-level) power-sensitive feature extraction —
// paper section 2.1.2, "Depthwise Feature Extractor".
//
// For every layer the extractor emits a fixed-width vector covering the
// attributes the paper lists: computational load, parameter count, memory
// access volume, operator type (one-hot), channel counts and feature-map
// dimensions, plus deep attributes for power-dominant operator classes
// (convolution kernel/stride/filters/groups; attention heads / matrix
// dimensions). Heavy-tailed magnitudes (FLOPs, bytes, params) enter as
// log1p so the Mahalanobis covariance is not dominated by a single layer.
#pragma once

#include "dnn/graph.hpp"
#include "linalg/matrix.hpp"

#include <span>
#include <vector>

namespace powerlens::features {

// Indices of the scalar block of the depthwise feature vector; the operator
// one-hot block follows at kOpTypeOffset.
enum DepthwiseIndex : std::size_t {
  kLogFlops = 0,
  kLogParams,
  kLogMemBytes,
  kLogArithmeticIntensity,
  kLogInChannels,
  kLogOutChannels,
  kLogFmapH,
  kLogFmapW,
  kKernelH,
  kKernelW,
  kStride,
  kLogGroups,
  kAttnHeads,
  kLogAttnHeadDim,
  kLogAttnSeqLen,
  kOpTypeOffset,  // one-hot block starts here
};

inline constexpr std::size_t kDepthwiseFeatureDim =
    kOpTypeOffset + dnn::kNumOpTypes;

class DepthwiseFeatureExtractor {
 public:
  // Feature vector of a single layer.
  static std::vector<double> extract(const dnn::Layer& layer);

  // Feature table of a whole graph: one row per layer, in execution order
  // (including the kInput row so row index == layer index).
  static linalg::Matrix extract(const dnn::Graph& graph);
};

}  // namespace powerlens::features
