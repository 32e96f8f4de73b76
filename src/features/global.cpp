#include "features/global.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace powerlens::features {

namespace {

double safe_log1p(double v) { return std::log1p(std::max(v, 0.0)); }

}  // namespace

GlobalFeatures GlobalFeatureExtractor::extract(const dnn::Graph& graph) {
  return extract(graph, 0, graph.size());
}

GlobalFeatures GlobalFeatureExtractor::extract(const dnn::Graph& graph,
                                               std::size_t begin,
                                               std::size_t end) {
  if (begin >= end || end > graph.size()) {
    throw std::invalid_argument("GlobalFeatureExtractor: bad layer range");
  }
  const std::size_t n = end - begin;

  // --- Structural facet -----------------------------------------------------
  std::vector<double> op_hist(dnn::kNumOpTypes, 0.0);
  std::size_t residuals = 0;
  std::size_t concats = 0;
  std::size_t branches = 0;
  std::size_t attention_layers = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const dnn::Layer& l = graph.layer(i);
    op_hist[static_cast<std::size_t>(l.type)] += 1.0;
    if (l.type == dnn::OpType::kAdd) ++residuals;
    if (l.type == dnn::OpType::kConcat) ++concats;
    if (l.type == dnn::OpType::kMultiHeadAttention) ++attention_layers;
    // A branch point inside the range: >1 consumers within [begin, end).
    std::size_t in_range_consumers = 0;
    for (dnn::NodeId c : graph.consumers(i)) {
      if (c >= begin && c < end) ++in_range_consumers;
    }
    if (in_range_consumers > 1) ++branches;
  }
  for (double& h : op_hist) h /= static_cast<double>(n);

  GlobalFeatures g;
  g.structural.reserve(kStructuralDim);
  g.structural.push_back(safe_log1p(static_cast<double>(n)));
  g.structural.push_back(
      safe_log1p(static_cast<double>(graph.depth())));  // network depth
  g.structural.push_back(safe_log1p(static_cast<double>(residuals)));
  g.structural.push_back(safe_log1p(static_cast<double>(concats)));
  g.structural.push_back(safe_log1p(static_cast<double>(branches)));
  g.structural.push_back(safe_log1p(static_cast<double>(attention_layers)));
  g.structural.push_back(
      safe_log1p(static_cast<double>(graph.batch_size())));
  g.structural.insert(g.structural.end(), op_hist.begin(), op_hist.end());

  // --- Statistics facet -------------------------------------------------------
  double flops = 0.0;
  double params = 0.0;
  double mem = 0.0;
  double compute_flops = 0.0;
  double max_layer_flops = 0.0;
  double ai_sum = 0.0;
  double ai_max = 0.0;
  std::size_t compute_ops = 0;
  std::size_t memory_ops = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const dnn::Layer& l = graph.layer(i);
    const double lf = static_cast<double>(l.flops);
    flops += lf;
    params += static_cast<double>(l.params);
    mem += static_cast<double>(l.mem_bytes);
    max_layer_flops = std::max(max_layer_flops, lf);
    const double ai = l.arithmetic_intensity();
    ai_sum += ai;
    ai_max = std::max(ai_max, ai);
    if (dnn::is_compute_op(l.type)) {
      ++compute_ops;
      compute_flops += lf;
    }
    if (dnn::is_memory_op(l.type)) ++memory_ops;
  }

  g.statistics.reserve(kStatisticsDim);
  g.statistics.push_back(safe_log1p(flops));
  g.statistics.push_back(safe_log1p(params));
  g.statistics.push_back(safe_log1p(mem));
  g.statistics.push_back(safe_log1p(flops / static_cast<double>(n)));
  g.statistics.push_back(safe_log1p(max_layer_flops));
  g.statistics.push_back(safe_log1p(ai_sum / static_cast<double>(n)));
  g.statistics.push_back(safe_log1p(ai_max));
  // Overall arithmetic intensity of the range: the single strongest
  // predictor of the energy-optimal frequency.
  g.statistics.push_back(safe_log1p(mem > 0.0 ? flops / mem : 0.0));
  g.statistics.push_back(static_cast<double>(compute_ops) /
                         static_cast<double>(n));
  g.statistics.push_back(static_cast<double>(memory_ops) /
                         static_cast<double>(n));
  g.statistics.push_back(flops > 0.0 ? compute_flops / flops : 0.0);
  g.statistics.push_back(safe_log1p(static_cast<double>(n)));

  return g;
}

}  // namespace powerlens::features
