#include "features/depthwise.hpp"

#include <cmath>
#include <stdexcept>

namespace powerlens::features {

namespace {

double log1p_nonneg(double v) { return std::log1p(v < 0.0 ? 0.0 : v); }

}  // namespace

std::vector<double> DepthwiseFeatureExtractor::extract(
    const dnn::Layer& layer) {
  std::vector<double> f(kDepthwiseFeatureDim, 0.0);
  f[kLogFlops] = log1p_nonneg(static_cast<double>(layer.flops));
  f[kLogParams] = log1p_nonneg(static_cast<double>(layer.params));
  f[kLogMemBytes] = log1p_nonneg(static_cast<double>(layer.mem_bytes));
  f[kLogArithmeticIntensity] = log1p_nonneg(layer.arithmetic_intensity());
  f[kLogInChannels] = log1p_nonneg(static_cast<double>(layer.input.c));
  f[kLogOutChannels] = log1p_nonneg(static_cast<double>(layer.output.c));
  f[kLogFmapH] = log1p_nonneg(static_cast<double>(layer.output.h));
  f[kLogFmapW] = log1p_nonneg(static_cast<double>(layer.output.w));
  f[kKernelH] = static_cast<double>(layer.conv.kernel_h);
  f[kKernelW] = static_cast<double>(layer.conv.kernel_w);
  f[kStride] = static_cast<double>(layer.conv.stride);
  f[kLogGroups] = log1p_nonneg(static_cast<double>(layer.conv.groups));
  f[kAttnHeads] = static_cast<double>(layer.attn.heads);
  f[kLogAttnHeadDim] = log1p_nonneg(static_cast<double>(layer.attn.head_dim));
  f[kLogAttnSeqLen] = log1p_nonneg(static_cast<double>(layer.attn.seq_len));
  f[kOpTypeOffset + static_cast<std::size_t>(layer.type)] = 1.0;
  return f;
}

linalg::Matrix DepthwiseFeatureExtractor::extract(const dnn::Graph& graph) {
  if (graph.empty()) {
    throw std::invalid_argument("DepthwiseFeatureExtractor: empty graph");
  }
  linalg::Matrix table(graph.size(), kDepthwiseFeatureDim);
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const std::vector<double> row = extract(graph.layer(i));
    for (std::size_t c = 0; c < row.size(); ++c) table(i, c) = row[c];
  }
  return table;
}

}  // namespace powerlens::features
