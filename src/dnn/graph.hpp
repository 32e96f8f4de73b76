// DNN computation graph.
//
// Layers are stored in execution (topological) order; the clustering stage of
// Algorithm 1 treats this order as the operator axis (the |i - j| spacing
// regularization). Edges record producers so the global feature extractor can
// count residual joins and branch points (section 2.1.2, macro structural
// features).
#pragma once

#include "dnn/layer.hpp"

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace powerlens::dnn {

using NodeId = std::size_t;

// Largest graph the planner accepts. The distance stage leases an n x n
// matrix of doubles, so this caps that lease at 512 MiB. Graph records
// over it fail to decode (io::MalformedError) and PowerLens::optimize
// rejects them (std::invalid_argument).
inline constexpr std::size_t kMaxGraphLayers = 8192;

class Graph {
 public:
  Graph() = default;
  Graph(std::string name, std::vector<Layer> layers,
        std::vector<std::vector<NodeId>> producers);

  const std::string& name() const noexcept { return name_; }
  std::size_t size() const noexcept { return layers_.size(); }
  bool empty() const noexcept { return layers_.empty(); }

  const Layer& layer(NodeId id) const { return layers_.at(id); }
  std::span<const Layer> layers() const noexcept { return layers_; }

  // Producer node ids feeding layer `id`, in argument order.
  std::span<const NodeId> producers(NodeId id) const {
    return producers_.at(id);
  }
  // Consumer node ids reading layer `id`'s output.
  std::span<const NodeId> consumers(NodeId id) const {
    return consumers_.at(id);
  }

  // --- Aggregates used by the global feature extractor and tests ---

  std::int64_t total_flops() const noexcept;
  std::int64_t total_params() const noexcept;

  // Longest producer->consumer path length (network depth).
  std::size_t depth() const;

  // The batch size of the graph's input layer (0 if the graph is empty).
  std::int64_t batch_size() const noexcept;

  // Validates the topological invariant (every producer id < consumer id),
  // shape consistency along edges, and that exactly the first layer is
  // kInput. Throws std::invalid_argument describing the first violation.
  void validate() const;

  // Field-exact equality (name, every layer, every edge); consumers are
  // derived from producers, so comparing them too costs nothing extra and
  // keeps this defaultable. The interchange round-trip tests assert
  // load(save(g)) == g through this.
  bool operator==(const Graph&) const = default;

 private:
  std::string name_;
  std::vector<Layer> layers_;
  std::vector<std::vector<NodeId>> producers_;
  std::vector<std::vector<NodeId>> consumers_;
};

}  // namespace powerlens::dnn
