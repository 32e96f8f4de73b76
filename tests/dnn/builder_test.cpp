#include "dnn/builder.hpp"
#include "support/graph_counts.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace powerlens::dnn {
namespace {

constexpr TensorShape kInput{1, 3, 224, 224};

TEST(GraphBuilder, InvalidInputShapeThrows) {
  EXPECT_THROW(GraphBuilder("g", TensorShape{0, 3, 224, 224}),
               std::invalid_argument);
}

TEST(GraphBuilder, ConvShapeAndCosts) {
  GraphBuilder b("g", kInput);
  const NodeId c = b.conv2d(b.input(), 64, 7, 2, 3);
  const TensorShape s = b.shape(c);
  EXPECT_EQ(s, (TensorShape{1, 64, 112, 112}));

  Graph g = b.build();
  const Layer& conv = g.layer(c);
  // MACs = 112*112*64 * 3 * 49; FLOPs = 2x.
  EXPECT_EQ(conv.flops, 2LL * 112 * 112 * 64 * 3 * 49);
  // Params = 64*3*49 + 64 bias.
  EXPECT_EQ(conv.params, 64LL * 3 * 49 + 64);
  EXPECT_GT(conv.mem_bytes, 0);
}

TEST(GraphBuilder, GroupedConvDividesChannels) {
  GraphBuilder b("g", TensorShape{1, 64, 56, 56});
  const NodeId c = b.conv2d(b.input(), 64, 3, 1, 1, /*groups=*/64);
  Graph g = b.build();
  const Layer& conv = g.layer(c);
  // Depthwise: each filter sees 1 input channel.
  EXPECT_EQ(conv.params, 64LL * 1 * 9 + 64);
  EXPECT_TRUE(conv.conv.depthwise(64));
}

TEST(GraphBuilder, BadGroupConfigurationThrows) {
  GraphBuilder b("g", TensorShape{1, 10, 28, 28});
  EXPECT_THROW(b.conv2d(b.input(), 16, 3, 1, 1, /*groups=*/3),
               std::invalid_argument);
}

TEST(GraphBuilder, LinearOnFlattenedTensor) {
  GraphBuilder b("g", TensorShape{4, 512, 1, 1});
  const NodeId fc = b.linear(b.input(), 1000);
  Graph g = b.build();
  const Layer& l = g.layer(fc);
  EXPECT_EQ(l.output, (TensorShape{4, 1000, 1, 1}));
  EXPECT_EQ(l.params, 512LL * 1000 + 1000);
  EXPECT_EQ(l.flops, 2LL * 4 * 512 * 1000);
}

TEST(GraphBuilder, LinearPerTokenProjection) {
  // Token tensor (N=2, D=8, S=5): linear applies per token.
  GraphBuilder b("g", TensorShape{2, 8, 5, 1});
  const NodeId fc = b.linear(b.input(), 16);
  Graph g = b.build();
  EXPECT_EQ(g.layer(fc).output, (TensorShape{2, 16, 5, 1}));
  EXPECT_EQ(g.layer(fc).flops, 2LL * 2 * 5 * 8 * 16);
}

TEST(GraphBuilder, AddRequiresMatchingShapes) {
  GraphBuilder b("g", kInput);
  const NodeId a = b.conv2d(b.input(), 8, 3, 1, 1);
  const NodeId c = b.conv2d(b.input(), 16, 3, 1, 1);
  EXPECT_THROW(b.add(a, c), std::invalid_argument);
}

TEST(GraphBuilder, ResidualAddTracksProducers) {
  GraphBuilder b("g", kInput);
  const NodeId a = b.conv2d(b.input(), 8, 3, 1, 1);
  const NodeId c = b.conv2d(a, 8, 3, 1, 1);
  const NodeId s = b.add(c, a);
  Graph g = b.build();
  const auto prods = g.producers(s);
  ASSERT_EQ(prods.size(), 2u);
  EXPECT_EQ(prods[0], c);
  EXPECT_EQ(prods[1], a);
  EXPECT_EQ(testing::residual_count(g), 1u);
  // Node a feeds both c and s: one branch point.
  EXPECT_EQ(testing::branch_count(g), 1u);
}

TEST(GraphBuilder, ConcatSumsChannels) {
  GraphBuilder b("g", kInput);
  const NodeId a = b.conv2d(b.input(), 8, 1, 1, 0);
  const NodeId c = b.conv2d(b.input(), 24, 1, 1, 0);
  const NodeId cat = b.concat({a, c});
  EXPECT_EQ(b.shape(cat).c, 32);
  Graph g = b.build();
  EXPECT_EQ(testing::concat_count(g), 1u);
}

TEST(GraphBuilder, ConcatRejectsSpatialMismatch) {
  GraphBuilder b("g", kInput);
  const NodeId a = b.conv2d(b.input(), 8, 1, 1, 0);
  const NodeId c = b.conv2d(b.input(), 8, 3, 2, 1);
  EXPECT_THROW(b.concat({a, c}), std::invalid_argument);
}

TEST(GraphBuilder, ConcatNeedsTwoInputs) {
  GraphBuilder b("g", kInput);
  const NodeId a = b.conv2d(b.input(), 8, 1, 1, 0);
  EXPECT_THROW(b.concat({a}), std::invalid_argument);
}

TEST(GraphBuilder, MulBroadcastGate) {
  GraphBuilder b("g", TensorShape{1, 32, 28, 28});
  NodeId gate = b.adaptive_avg_pool2d(b.input(), 1);
  const NodeId m = b.mul(b.input(), gate);
  EXPECT_EQ(b.shape(m), (TensorShape{1, 32, 28, 28}));
}

TEST(GraphBuilder, MulRejectsIncompatibleGate) {
  GraphBuilder b("g", TensorShape{1, 32, 28, 28});
  const NodeId gate = b.conv2d(b.input(), 16, 1, 1, 0);
  EXPECT_THROW(b.mul(b.input(), gate), std::invalid_argument);
}

TEST(GraphBuilder, PatchEmbedTokenCount) {
  GraphBuilder b("g", kInput);
  const NodeId p = b.patch_embed(b.input(), 16, 768);
  // 14*14 patches + class token = 197.
  EXPECT_EQ(b.shape(p), (TensorShape{1, 768, 197, 1}));
}

TEST(GraphBuilder, PatchEmbedRejectsIndivisible) {
  GraphBuilder b("g", kInput);
  EXPECT_THROW(b.patch_embed(b.input(), 15, 768), std::invalid_argument);
}

TEST(GraphBuilder, AttentionPreservesShape) {
  GraphBuilder b("g", TensorShape{1, 768, 197, 1});
  const NodeId a = b.attention(b.input(), 12);
  EXPECT_EQ(b.shape(a), (TensorShape{1, 768, 197, 1}));
  Graph g = b.build();
  const Layer& l = g.layer(a);
  EXPECT_EQ(l.attn.heads, 12);
  EXPECT_EQ(l.attn.head_dim, 64);
  EXPECT_EQ(l.attn.seq_len, 197);
  EXPECT_EQ(l.params, 4LL * 768 * 768 + 4 * 768);
}

TEST(GraphBuilder, AttentionRejectsBadHeads) {
  GraphBuilder b("g", TensorShape{1, 768, 197, 1});
  EXPECT_THROW(b.attention(b.input(), 7), std::invalid_argument);
}

TEST(GraphBuilder, FlattenCollapsesSpatial) {
  GraphBuilder b("g", TensorShape{2, 512, 7, 7});
  const NodeId f = b.flatten(b.input());
  EXPECT_EQ(b.shape(f), (TensorShape{2, 512 * 49, 1, 1}));
}

TEST(GraphBuilder, ElementwiseCostsScaleWithElements) {
  GraphBuilder b("g", TensorShape{1, 8, 4, 4});
  const NodeId r = b.relu(b.input());
  Graph g = b.build();
  EXPECT_EQ(g.layer(r).flops, 128);  // 1 FLOP per element
  EXPECT_EQ(g.layer(r).mem_bytes, 2 * 128 * kBytesPerElement);
}

TEST(GraphBuilder, BatchNormHasAffineParams) {
  GraphBuilder b("g", TensorShape{1, 32, 8, 8});
  const NodeId bn = b.batch_norm(b.input());
  Graph g = b.build();
  EXPECT_EQ(g.layer(bn).params, 64);
}

TEST(GraphBuilder, BuildValidatesAndResets) {
  GraphBuilder b("g", kInput);
  b.conv2d(b.input(), 8, 3, 1, 1);
  Graph g = b.build();
  EXPECT_EQ(g.size(), 2u);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(b.size(), 0u);  // builder consumed
}

TEST(GraphBuilder, AdaptivePoolRejectsUpsample) {
  GraphBuilder b("g", TensorShape{1, 8, 4, 4});
  EXPECT_THROW(b.adaptive_avg_pool2d(b.input(), 8), std::invalid_argument);
}

}  // namespace
}  // namespace powerlens::dnn
