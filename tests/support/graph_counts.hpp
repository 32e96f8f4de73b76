// Structural counts over a dnn::Graph for the graph, model-zoo and feature
// suites. The library's global feature extractor counts these itself while
// it walks the layers; the tests count them independently here.
#pragma once

#include "dnn/graph.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace powerlens::testing {

inline std::size_t count_of(const dnn::Graph& g, dnn::OpType t) {
  return static_cast<std::size_t>(
      std::ranges::count_if(g.layers(),
                            [t](const dnn::Layer& l) { return l.type == t; }));
}

// kAdd joins (residual connections).
inline std::size_t residual_count(const dnn::Graph& g) {
  return count_of(g, dnn::OpType::kAdd);
}

// kConcat joins (branching merge points).
inline std::size_t concat_count(const dnn::Graph& g) {
  return count_of(g, dnn::OpType::kConcat);
}

// Nodes whose output feeds more than one consumer.
inline std::size_t branch_count(const dnn::Graph& g) {
  std::size_t n = 0;
  for (dnn::NodeId id = 0; id < g.size(); ++id) {
    if (g.consumers(id).size() > 1) ++n;
  }
  return n;
}

inline std::int64_t total_mem_bytes(const dnn::Graph& g) {
  std::int64_t s = 0;
  for (const dnn::Layer& l : g.layers()) s += l.mem_bytes;
  return s;
}

}  // namespace powerlens::testing
