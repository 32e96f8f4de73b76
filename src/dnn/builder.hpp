// GraphBuilder: constructs Graphs with shape inference and per-layer cost
// computation (FLOPs, parameters, DRAM traffic).
//
// Builder methods take the producer NodeId(s) explicitly and return the new
// node's id, which makes branching topologies (GoogLeNet inception modules,
// DenseNet concats, residual adds, squeeze-excitation) read like the model
// definitions they mirror.
#pragma once

#include "dnn/graph.hpp"

#include <string>
#include <vector>

namespace powerlens::dnn {

// Bytes per activation/weight element. The evaluated PyTorch models run fp32.
inline constexpr std::int64_t kBytesPerElement = 4;

class GraphBuilder {
 public:
  // Starts a graph with a single kInput node of the given shape.
  // Throws std::invalid_argument if the shape is not valid.
  GraphBuilder(std::string graph_name, TensorShape input_shape);

  NodeId input() const noexcept { return 0; }
  const TensorShape& shape(NodeId id) const { return layers_.at(id).output; }

  // --- convolution family -------------------------------------------------
  NodeId conv2d(NodeId in, std::int64_t out_channels, std::int64_t kernel,
                std::int64_t stride, std::int64_t padding,
                std::int64_t groups = 1, std::string name = "");
  // Non-square kernels (GoogLeNet reduction paths use none, but the random
  // generator exercises them).
  NodeId conv2d_rect(NodeId in, std::int64_t out_channels, std::int64_t kh,
                     std::int64_t kw, std::int64_t stride, std::int64_t padding,
                     std::int64_t groups = 1, std::string name = "");

  // --- dense ---------------------------------------------------------------
  // Applies a per-position linear map over the channel axis: (N,C,H,W) ->
  // (N,F,H,W). With H=W=1 this is a classic fully connected layer; with
  // H=tokens it is a transformer token-wise projection.
  NodeId linear(NodeId in, std::int64_t out_features, std::string name = "");

  // --- normalization ---------------------------------------------------------
  NodeId batch_norm(NodeId in, std::string name = "");
  NodeId layer_norm(NodeId in, std::string name = "");

  // --- activations -----------------------------------------------------------
  NodeId relu(NodeId in, std::string name = "");
  NodeId gelu(NodeId in, std::string name = "");
  NodeId hardswish(NodeId in, std::string name = "");
  NodeId sigmoid(NodeId in, std::string name = "");

  // --- pooling ---------------------------------------------------------------
  NodeId max_pool2d(NodeId in, std::int64_t kernel, std::int64_t stride,
                    std::int64_t padding = 0, std::string name = "");
  NodeId avg_pool2d(NodeId in, std::int64_t kernel, std::int64_t stride,
                    std::int64_t padding = 0, std::string name = "");
  // Pools to out_hw x out_hw (1 x 1 for global average pooling).
  NodeId adaptive_avg_pool2d(NodeId in, std::int64_t out_hw,
                             std::string name = "");

  // --- joins -----------------------------------------------------------------
  // Elementwise sum; shapes must match. Residual connections.
  NodeId add(NodeId a, NodeId b, std::string name = "");
  // Channel-axis concatenation; N/H/W must match across inputs.
  NodeId concat(std::vector<NodeId> ins, std::string name = "");
  // Elementwise / broadcast channel-wise product (squeeze-excitation gate).
  // `gate` must have matching channels with H=W=1, or an identical shape.
  NodeId mul(NodeId a, NodeId gate, std::string name = "");

  // --- transformer -------------------------------------------------------------
  // Tokenizes (N,3,H,W) into (N, embed_dim, tokens+1, 1) including the class
  // token, via a patch_size-strided convolution.
  NodeId patch_embed(NodeId in, std::int64_t patch_size,
                     std::int64_t embed_dim, std::string name = "");
  // Full multi-head self-attention over token tensor (N, D, S, 1):
  // QKV + output projections and the S x S attention map.
  NodeId attention(NodeId in, std::int64_t heads, std::string name = "");

  // --- misc -------------------------------------------------------------------
  NodeId flatten(NodeId in, std::string name = "");
  NodeId dropout(NodeId in, std::string name = "");

  // Finalizes and validates the graph. The builder is left empty.
  Graph build();

  std::size_t size() const noexcept { return layers_.size(); }

 private:
  NodeId append(Layer layer, std::vector<NodeId> producers);
  NodeId elementwise(NodeId in, OpType type, double flops_per_element,
                     std::string name);
  const Layer& at(NodeId id) const;
  std::string auto_name(std::string_view base);

  std::string graph_name_;
  std::vector<Layer> layers_;
  std::vector<std::vector<NodeId>> producers_;
  std::size_t name_counter_ = 0;
};

}  // namespace powerlens::dnn
