#include "dnn/builder.hpp"

#include <stdexcept>
#include <utility>

namespace powerlens::dnn {

namespace {

std::int64_t activation_bytes(const TensorShape& s) {
  return s.elements() * kBytesPerElement;
}

}  // namespace

GraphBuilder::GraphBuilder(std::string graph_name, TensorShape input_shape)
    : graph_name_(std::move(graph_name)) {
  if (!input_shape.valid()) {
    throw std::invalid_argument("GraphBuilder: invalid input shape");
  }
  Layer in;
  in.type = OpType::kInput;
  in.name = "input";
  in.input = input_shape;
  in.output = input_shape;
  layers_.push_back(std::move(in));
  producers_.emplace_back();
}

const Layer& GraphBuilder::at(NodeId id) const {
  if (id >= layers_.size()) {
    throw std::out_of_range("GraphBuilder: node id out of range");
  }
  return layers_[id];
}

std::string GraphBuilder::auto_name(std::string_view base) {
  return std::string(base) + "_" + std::to_string(name_counter_++);
}

NodeId GraphBuilder::append(Layer layer, std::vector<NodeId> producers) {
  layers_.push_back(std::move(layer));
  producers_.push_back(std::move(producers));
  return layers_.size() - 1;
}

NodeId GraphBuilder::conv2d(NodeId in, std::int64_t out_channels,
                            std::int64_t kernel, std::int64_t stride,
                            std::int64_t padding, std::int64_t groups,
                            std::string name) {
  return conv2d_rect(in, out_channels, kernel, kernel, stride, padding, groups,
                     std::move(name));
}

NodeId GraphBuilder::conv2d_rect(NodeId in, std::int64_t out_channels,
                                 std::int64_t kh, std::int64_t kw,
                                 std::int64_t stride, std::int64_t padding,
                                 std::int64_t groups, std::string name) {
  const TensorShape is = at(in).output;
  if (out_channels <= 0 || groups <= 0 || is.c % groups != 0 ||
      out_channels % groups != 0) {
    throw std::invalid_argument("conv2d: bad channel/group configuration");
  }
  TensorShape os{is.n, out_channels, conv_out_dim(is.h, kh, stride, padding),
                 conv_out_dim(is.w, kw, stride, padding)};

  Layer l;
  l.type = OpType::kConv2d;
  l.name = name.empty() ? auto_name("conv") : std::move(name);
  l.input = is;
  l.output = os;
  l.conv = {kh, kw, stride, padding, groups, out_channels};

  const std::int64_t macs =
      os.elements() * (is.c / groups) * kh * kw;
  l.flops = 2 * macs;
  l.params = out_channels * (is.c / groups) * kh * kw + out_channels;
  l.mem_bytes = activation_bytes(is) + activation_bytes(os) +
                l.params * kBytesPerElement;
  return append(std::move(l), {in});
}

NodeId GraphBuilder::linear(NodeId in, std::int64_t out_features,
                            std::string name) {
  const TensorShape is = at(in).output;
  if (out_features <= 0) {
    throw std::invalid_argument("linear: out_features must be positive");
  }
  TensorShape os{is.n, out_features, is.h, is.w};

  Layer l;
  l.type = OpType::kLinear;
  l.name = name.empty() ? auto_name("linear") : std::move(name);
  l.input = is;
  l.output = os;
  const std::int64_t positions = is.n * is.h * is.w;
  l.flops = 2 * positions * is.c * out_features;
  l.params = is.c * out_features + out_features;
  l.mem_bytes = activation_bytes(is) + activation_bytes(os) +
                l.params * kBytesPerElement;
  return append(std::move(l), {in});
}

NodeId GraphBuilder::elementwise(NodeId in, OpType type,
                                 double flops_per_element, std::string name) {
  const TensorShape is = at(in).output;
  Layer l;
  l.type = type;
  l.name = name.empty() ? auto_name(op_name(type)) : std::move(name);
  l.input = is;
  l.output = is;
  l.flops = static_cast<std::int64_t>(
      flops_per_element * static_cast<double>(is.elements()));
  l.mem_bytes = 2 * activation_bytes(is);
  return append(std::move(l), {in});
}

NodeId GraphBuilder::batch_norm(NodeId in, std::string name) {
  const NodeId id = elementwise(in, OpType::kBatchNorm, 2.0, std::move(name));
  Layer& l = layers_[id];
  l.params = 2 * l.input.c;  // affine scale + shift
  l.mem_bytes += l.params * kBytesPerElement;
  return id;
}

NodeId GraphBuilder::layer_norm(NodeId in, std::string name) {
  const NodeId id = elementwise(in, OpType::kLayerNorm, 5.0, std::move(name));
  Layer& l = layers_[id];
  l.params = 2 * l.input.c;
  l.mem_bytes += l.params * kBytesPerElement;
  return id;
}

NodeId GraphBuilder::relu(NodeId in, std::string name) {
  return elementwise(in, OpType::kReLU, 1.0, std::move(name));
}

NodeId GraphBuilder::gelu(NodeId in, std::string name) {
  return elementwise(in, OpType::kGELU, 8.0, std::move(name));
}

NodeId GraphBuilder::hardswish(NodeId in, std::string name) {
  return elementwise(in, OpType::kHardswish, 3.0, std::move(name));
}

NodeId GraphBuilder::sigmoid(NodeId in, std::string name) {
  return elementwise(in, OpType::kSigmoid, 4.0, std::move(name));
}

NodeId GraphBuilder::max_pool2d(NodeId in, std::int64_t kernel,
                                std::int64_t stride, std::int64_t padding,
                                std::string name) {
  const TensorShape is = at(in).output;
  TensorShape os{is.n, is.c, conv_out_dim(is.h, kernel, stride, padding),
                 conv_out_dim(is.w, kernel, stride, padding)};
  Layer l;
  l.type = OpType::kMaxPool2d;
  l.name = name.empty() ? auto_name("maxpool") : std::move(name);
  l.input = is;
  l.output = os;
  l.conv = {kernel, kernel, stride, padding, 1, is.c};
  l.flops = os.elements() * kernel * kernel;
  l.mem_bytes = activation_bytes(is) + activation_bytes(os);
  return append(std::move(l), {in});
}

NodeId GraphBuilder::avg_pool2d(NodeId in, std::int64_t kernel,
                                std::int64_t stride, std::int64_t padding,
                                std::string name) {
  const TensorShape is = at(in).output;
  TensorShape os{is.n, is.c, conv_out_dim(is.h, kernel, stride, padding),
                 conv_out_dim(is.w, kernel, stride, padding)};
  Layer l;
  l.type = OpType::kAvgPool2d;
  l.name = name.empty() ? auto_name("avgpool") : std::move(name);
  l.input = is;
  l.output = os;
  l.conv = {kernel, kernel, stride, padding, 1, is.c};
  l.flops = os.elements() * kernel * kernel;
  l.mem_bytes = activation_bytes(is) + activation_bytes(os);
  return append(std::move(l), {in});
}

NodeId GraphBuilder::adaptive_avg_pool2d(NodeId in, std::int64_t out_hw,
                                         std::string name) {
  const TensorShape is = at(in).output;
  if (out_hw <= 0 || out_hw > is.h || out_hw > is.w) {
    throw std::invalid_argument("adaptive_avg_pool2d: bad output size");
  }
  TensorShape os{is.n, is.c, out_hw, out_hw};
  Layer l;
  l.type = OpType::kAdaptiveAvgPool2d;
  l.name = name.empty() ? auto_name("gap") : std::move(name);
  l.input = is;
  l.output = os;
  l.flops = is.elements();  // every input element is summed once
  l.mem_bytes = activation_bytes(is) + activation_bytes(os);
  return append(std::move(l), {in});
}

NodeId GraphBuilder::add(NodeId a, NodeId b, std::string name) {
  const TensorShape sa = at(a).output;
  const TensorShape sb = at(b).output;
  if (sa != sb) {
    throw std::invalid_argument("add: shape mismatch " + sa.to_string() +
                                " vs " + sb.to_string());
  }
  Layer l;
  l.type = OpType::kAdd;
  l.name = name.empty() ? auto_name("add") : std::move(name);
  l.input = sa;
  l.output = sa;
  l.flops = sa.elements();
  l.mem_bytes = 3 * activation_bytes(sa);
  return append(std::move(l), {a, b});
}

NodeId GraphBuilder::concat(std::vector<NodeId> ins, std::string name) {
  if (ins.size() < 2) {
    throw std::invalid_argument("concat: needs at least two inputs");
  }
  const TensorShape first = at(ins.front()).output;
  std::int64_t channels = 0;
  std::int64_t in_bytes = 0;
  for (NodeId id : ins) {
    const TensorShape s = at(id).output;
    if (s.n != first.n || s.h != first.h || s.w != first.w) {
      throw std::invalid_argument("concat: spatial/batch shape mismatch");
    }
    channels += s.c;
    in_bytes += activation_bytes(s);
  }
  TensorShape os{first.n, channels, first.h, first.w};
  Layer l;
  l.type = OpType::kConcat;
  l.name = name.empty() ? auto_name("concat") : std::move(name);
  l.input = first;
  l.output = os;
  l.flops = 0;  // pure data movement
  l.mem_bytes = in_bytes + activation_bytes(os);
  return append(std::move(l), std::move(ins));
}

NodeId GraphBuilder::mul(NodeId a, NodeId gate, std::string name) {
  const TensorShape sa = at(a).output;
  const TensorShape sg = at(gate).output;
  const bool broadcast = sg.n == sa.n && sg.c == sa.c && sg.h == 1 && sg.w == 1;
  if (!broadcast && sa != sg) {
    throw std::invalid_argument("mul: incompatible shapes");
  }
  Layer l;
  l.type = OpType::kMul;
  l.name = name.empty() ? auto_name("mul") : std::move(name);
  l.input = sa;
  l.output = sa;
  l.flops = sa.elements();
  l.mem_bytes = 2 * activation_bytes(sa) + activation_bytes(sg);
  return append(std::move(l), {a, gate});
}

NodeId GraphBuilder::patch_embed(NodeId in, std::int64_t patch_size,
                                 std::int64_t embed_dim, std::string name) {
  const TensorShape is = at(in).output;
  if (patch_size <= 0 || is.h % patch_size != 0 || is.w % patch_size != 0) {
    throw std::invalid_argument("patch_embed: image not divisible by patch");
  }
  const std::int64_t tokens = (is.h / patch_size) * (is.w / patch_size) + 1;
  TensorShape os{is.n, embed_dim, tokens, 1};

  Layer l;
  l.type = OpType::kPatchEmbed;
  l.name = name.empty() ? auto_name("patch_embed") : std::move(name);
  l.input = is;
  l.output = os;
  l.conv = {patch_size, patch_size, patch_size, 0, 1, embed_dim};
  const std::int64_t macs =
      is.n * embed_dim * (tokens - 1) * is.c * patch_size * patch_size;
  l.flops = 2 * macs;
  // Projection weights + class token + positional embeddings.
  l.params = embed_dim * is.c * patch_size * patch_size + embed_dim +
             embed_dim + tokens * embed_dim;
  l.mem_bytes = activation_bytes(is) + activation_bytes(os) +
                l.params * kBytesPerElement;
  return append(std::move(l), {in});
}

NodeId GraphBuilder::attention(NodeId in, std::int64_t heads,
                               std::string name) {
  const TensorShape is = at(in).output;
  if (is.w != 1 || heads <= 0 || is.c % heads != 0) {
    throw std::invalid_argument(
        "attention: expects token tensor (N, D, S, 1) with D divisible by "
        "heads");
  }
  const std::int64_t d = is.c;
  const std::int64_t s = is.h;

  Layer l;
  l.type = OpType::kMultiHeadAttention;
  l.name = name.empty() ? auto_name("mha") : std::move(name);
  l.input = is;
  l.output = is;
  l.attn = {heads, d, d / heads, s};
  // QKV projections (3 s d^2) + scores (s^2 d) + value mix (s^2 d) +
  // output projection (s d^2), in MACs, per sample.
  const std::int64_t macs = is.n * (4 * s * d * d + 2 * s * s * d);
  l.flops = 2 * macs;
  l.params = 4 * d * d + 4 * d;
  l.mem_bytes = 2 * activation_bytes(is) + l.params * kBytesPerElement +
                is.n * heads * s * s * kBytesPerElement;  // attention map
  return append(std::move(l), {in});
}

NodeId GraphBuilder::flatten(NodeId in, std::string name) {
  const TensorShape is = at(in).output;
  TensorShape os{is.n, is.elements_per_sample(), 1, 1};
  Layer l;
  l.type = OpType::kFlatten;
  l.name = name.empty() ? auto_name("flatten") : std::move(name);
  l.input = is;
  l.output = os;
  l.flops = 0;
  l.mem_bytes = 0;  // view only
  return append(std::move(l), {in});
}

NodeId GraphBuilder::dropout(NodeId in, std::string name) {
  // Inference-time dropout is an identity; it stays in the graph because the
  // operator-type histogram is a global feature.
  const TensorShape is = at(in).output;
  Layer l;
  l.type = OpType::kDropout;
  l.name = name.empty() ? auto_name("dropout") : std::move(name);
  l.input = is;
  l.output = is;
  l.flops = 0;
  l.mem_bytes = 0;
  return append(std::move(l), {in});
}

Graph GraphBuilder::build() {
  Graph g(std::move(graph_name_), std::move(layers_), std::move(producers_));
  g.validate();
  layers_.clear();
  producers_.clear();
  name_counter_ = 0;
  return g;
}

}  // namespace powerlens::dnn
