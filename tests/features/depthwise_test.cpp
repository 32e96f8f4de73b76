#include "features/depthwise.hpp"

#include "dnn/builder.hpp"
#include "dnn/models.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace powerlens::features {
namespace {

using dnn::GraphBuilder;
using dnn::OpType;
using dnn::TensorShape;

TEST(DepthwiseExtractor, VectorHasFixedWidth) {
  dnn::Layer l;
  l.type = OpType::kReLU;
  const std::vector<double> f = DepthwiseFeatureExtractor::extract(l);
  EXPECT_EQ(f.size(), kDepthwiseFeatureDim);
}

TEST(DepthwiseExtractor, OpTypeOneHot) {
  dnn::Layer l;
  l.type = OpType::kConv2d;
  const std::vector<double> f = DepthwiseFeatureExtractor::extract(l);
  double one_hot_sum = 0.0;
  for (std::size_t i = kOpTypeOffset; i < kDepthwiseFeatureDim; ++i) {
    one_hot_sum += f[i];
  }
  EXPECT_DOUBLE_EQ(one_hot_sum, 1.0);
  EXPECT_DOUBLE_EQ(
      f[kOpTypeOffset + static_cast<std::size_t>(OpType::kConv2d)], 1.0);
}

TEST(DepthwiseExtractor, LogScaledMagnitudes) {
  dnn::Layer l;
  l.type = OpType::kConv2d;
  l.flops = 1'000'000;
  l.params = 999;
  l.mem_bytes = 4096;
  const std::vector<double> f = DepthwiseFeatureExtractor::extract(l);
  EXPECT_NEAR(f[kLogFlops], std::log1p(1e6), 1e-12);
  EXPECT_NEAR(f[kLogParams], std::log1p(999.0), 1e-12);
  EXPECT_NEAR(f[kLogMemBytes], std::log1p(4096.0), 1e-12);
}

TEST(DepthwiseExtractor, ConvDeepAttributes) {
  GraphBuilder b("g", TensorShape{1, 16, 28, 28});
  b.conv2d(b.input(), 32, 5, 2, 2, /*groups=*/4);
  const dnn::Graph g = b.build();
  const std::vector<double> f =
      DepthwiseFeatureExtractor::extract(g.layer(1));
  EXPECT_DOUBLE_EQ(f[kKernelH], 5.0);
  EXPECT_DOUBLE_EQ(f[kKernelW], 5.0);
  EXPECT_DOUBLE_EQ(f[kStride], 2.0);
  EXPECT_NEAR(f[kLogGroups], std::log1p(4.0), 1e-12);
  EXPECT_NEAR(f[kLogInChannels], std::log1p(16.0), 1e-12);
  EXPECT_NEAR(f[kLogOutChannels], std::log1p(32.0), 1e-12);
}

TEST(DepthwiseExtractor, AttentionDeepAttributes) {
  GraphBuilder b("g", TensorShape{1, 768, 197, 1});
  b.attention(b.input(), 12);
  const dnn::Graph g = b.build();
  const std::vector<double> f =
      DepthwiseFeatureExtractor::extract(g.layer(1));
  EXPECT_DOUBLE_EQ(f[kAttnHeads], 12.0);
  EXPECT_NEAR(f[kLogAttnHeadDim], std::log1p(64.0), 1e-12);
  EXPECT_NEAR(f[kLogAttnSeqLen], std::log1p(197.0), 1e-12);
}

TEST(DepthwiseExtractor, GraphTableRowPerLayer) {
  const dnn::Graph g = dnn::make_alexnet(1);
  const linalg::Matrix table = DepthwiseFeatureExtractor::extract(g);
  EXPECT_EQ(table.rows(), g.size());
  EXPECT_EQ(table.cols(), kDepthwiseFeatureDim);
  // Row 0 is the input layer: one-hot at kInput, zero compute features.
  EXPECT_DOUBLE_EQ(
      table(0, kOpTypeOffset + static_cast<std::size_t>(OpType::kInput)),
      1.0);
  EXPECT_DOUBLE_EQ(table(0, kLogFlops), 0.0);
}

TEST(DepthwiseExtractor, DistinguishesComputeFromMemoryLayers) {
  const dnn::Graph g = dnn::make_vgg19(1);
  const linalg::Matrix table = DepthwiseFeatureExtractor::extract(g);
  double conv_ai = 0.0, relu_ai = 0.0;
  std::size_t convs = 0, relus = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g.layer(i).type == OpType::kConv2d) {
      conv_ai += table(i, kLogArithmeticIntensity);
      ++convs;
    }
    if (g.layer(i).type == OpType::kReLU) {
      relu_ai += table(i, kLogArithmeticIntensity);
      ++relus;
    }
  }
  ASSERT_GT(convs, 0u);
  ASSERT_GT(relus, 0u);
  EXPECT_GT(conv_ai / static_cast<double>(convs),
            relu_ai / static_cast<double>(relus));
}

TEST(DepthwiseExtractor, EmptyGraphThrows) {
  EXPECT_THROW(DepthwiseFeatureExtractor::extract(dnn::Graph()),
               std::invalid_argument);
}

}  // namespace
}  // namespace powerlens::features
