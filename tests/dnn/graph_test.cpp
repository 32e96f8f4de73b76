#include "dnn/builder.hpp"
#include "dnn/graph.hpp"
#include "support/graph_counts.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace powerlens::dnn {
namespace {

Graph small_residual_graph() {
  GraphBuilder b("small", TensorShape{2, 3, 32, 32});
  NodeId x = b.conv2d(b.input(), 16, 3, 1, 1);
  const NodeId skip = x;
  x = b.conv2d(x, 16, 3, 1, 1);
  x = b.batch_norm(x);
  x = b.add(x, skip);
  x = b.relu(x);
  x = b.adaptive_avg_pool2d(x, 1);
  x = b.flatten(x);
  x = b.linear(x, 10);
  return b.build();
}

TEST(Graph, AggregatesSumLayers) {
  const Graph g = small_residual_graph();
  std::int64_t flops = 0;
  for (const Layer& l : g.layers()) flops += l.flops;
  EXPECT_EQ(g.total_flops(), flops);
  EXPECT_GT(g.total_params(), 0);
  EXPECT_GT(testing::total_mem_bytes(g), 0);
}

TEST(Graph, CountsStructure) {
  const Graph g = small_residual_graph();
  EXPECT_EQ(testing::residual_count(g), 1u);
  EXPECT_EQ(testing::concat_count(g), 0u);
  EXPECT_EQ(testing::branch_count(g), 1u);
  EXPECT_EQ(testing::count_of(g, OpType::kConv2d), 2u);
  EXPECT_EQ(testing::count_of(g, OpType::kLinear), 1u);
}

TEST(Graph, DepthIsLongestPath) {
  const Graph g = small_residual_graph();
  // input -> conv -> conv -> bn -> add -> relu -> pool -> flatten -> linear.
  EXPECT_EQ(g.depth(), 8u);
}

TEST(Graph, BatchSizeFromInput) {
  const Graph g = small_residual_graph();
  EXPECT_EQ(g.batch_size(), 2);
}

TEST(Graph, ConsumersAreInverseOfProducers) {
  const Graph g = small_residual_graph();
  for (NodeId id = 0; id < g.size(); ++id) {
    for (NodeId p : g.producers(id)) {
      bool found = false;
      for (NodeId c : g.consumers(p)) {
        if (c == id) found = true;
      }
      EXPECT_TRUE(found) << "consumer list of " << p << " misses " << id;
    }
  }
}

TEST(Graph, ValidateRejectsForwardProducer) {
  std::vector<Layer> layers(2);
  layers[0].type = OpType::kInput;
  layers[0].output = {1, 1, 1, 1};
  layers[1].type = OpType::kReLU;
  layers[1].input = {1, 1, 1, 1};
  layers[1].output = {1, 1, 1, 1};
  // Producer id >= consumer id (a self-loop) breaks the topological
  // invariant; the constructor accepts it, validate() must not.
  const Graph g("bad", layers, {{}, {1}});
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(Graph, ValidateRejectsOrphanLayer) {
  std::vector<Layer> layers(2);
  layers[0].type = OpType::kInput;
  layers[0].output = {1, 1, 1, 1};
  layers[1].type = OpType::kReLU;
  layers[1].input = {1, 1, 1, 1};
  layers[1].output = {1, 1, 1, 1};
  const Graph g("orphan", layers, {{}, {}});
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(Graph, ValidateRejectsShapeBreak) {
  std::vector<Layer> layers(2);
  layers[0].type = OpType::kInput;
  layers[0].output = {1, 3, 8, 8};
  layers[1].type = OpType::kReLU;
  layers[1].input = {1, 4, 8, 8};  // does not match producer output
  layers[1].output = {1, 4, 8, 8};
  const Graph g("break", layers, {{}, {0}});
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(Graph, ProducerSizeMismatchThrows) {
  std::vector<Layer> layers(2);
  EXPECT_THROW(Graph("bad", layers, {{}}), std::invalid_argument);
}

TEST(Graph, ProducerOutOfRangeThrows) {
  std::vector<Layer> layers(1);
  layers[0].type = OpType::kInput;
  layers[0].output = {1, 1, 1, 1};
  EXPECT_THROW(Graph("bad", layers, {{5}}), std::invalid_argument);
}

}  // namespace
}  // namespace powerlens::dnn
