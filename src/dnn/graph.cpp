#include "dnn/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace powerlens::dnn {

Graph::Graph(std::string name, std::vector<Layer> layers,
             std::vector<std::vector<NodeId>> producers)
    : name_(std::move(name)),
      layers_(std::move(layers)),
      producers_(std::move(producers)) {
  if (layers_.size() != producers_.size()) {
    throw std::invalid_argument("Graph: layers/producers size mismatch");
  }
  consumers_.resize(layers_.size());
  for (NodeId id = 0; id < layers_.size(); ++id) {
    for (NodeId p : producers_[id]) {
      if (p >= layers_.size()) {
        throw std::invalid_argument("Graph: producer id out of range");
      }
      consumers_[p].push_back(id);
    }
  }
}

std::int64_t Graph::total_flops() const noexcept {
  std::int64_t s = 0;
  for (const Layer& l : layers_) s += l.flops;
  return s;
}

std::int64_t Graph::total_params() const noexcept {
  std::int64_t s = 0;
  for (const Layer& l : layers_) s += l.params;
  return s;
}

std::size_t Graph::depth() const {
  // Layers are topologically ordered, so one forward pass suffices.
  std::vector<std::size_t> dist(layers_.size(), 0);
  std::size_t best = 0;
  for (NodeId id = 0; id < layers_.size(); ++id) {
    for (NodeId p : producers_[id]) {
      dist[id] = std::max(dist[id], dist[p] + 1);
    }
    best = std::max(best, dist[id]);
  }
  return best;
}

std::int64_t Graph::batch_size() const noexcept {
  return layers_.empty() ? 0 : layers_.front().output.n;
}

void Graph::validate() const {
  if (layers_.empty()) throw std::invalid_argument("Graph: empty");
  if (layers_.front().type != OpType::kInput) {
    throw std::invalid_argument("Graph: first layer must be kInput");
  }
  for (NodeId id = 0; id < layers_.size(); ++id) {
    const Layer& l = layers_[id];
    if (id > 0 && l.type == OpType::kInput) {
      throw std::invalid_argument("Graph: kInput layer not at position 0 in '" +
                                  name_ + "'");
    }
    if (id > 0 && producers_[id].empty()) {
      throw std::invalid_argument("Graph: non-input layer '" + l.name +
                                  "' has no producers");
    }
    for (NodeId p : producers_[id]) {
      if (p >= id) {
        throw std::invalid_argument(
            "Graph: producer does not precede consumer at layer '" + l.name +
            "'");
      }
    }
    if (!l.output.valid()) {
      throw std::invalid_argument("Graph: invalid output shape at layer '" +
                                  l.name + "'");
    }
    if (!producers_[id].empty()) {
      const Layer& first_prod = layers_[producers_[id].front()];
      if (first_prod.output != l.input) {
        throw std::invalid_argument(
            "Graph: input shape of layer '" + l.name +
            "' does not match its first producer's output");
      }
    }
    if (l.flops < 0 || l.params < 0 || l.mem_bytes < 0) {
      throw std::invalid_argument("Graph: negative cost at layer '" + l.name +
                                  "'");
    }
  }
}

}  // namespace powerlens::dnn
