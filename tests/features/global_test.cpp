#include "features/global.hpp"

#include "dnn/models.hpp"
#include "support/graph_counts.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace powerlens::features {
namespace {

TEST(GlobalExtractor, DimensionsMatchConstants) {
  const dnn::Graph g = dnn::make_alexnet(1);
  const GlobalFeatures f = GlobalFeatureExtractor::extract(g);
  EXPECT_EQ(f.structural.size(), kStructuralDim);
  EXPECT_EQ(f.statistics.size(), kStatisticsDim);
}

TEST(GlobalExtractor, WholeNetworkEqualsFullRange) {
  const dnn::Graph g = dnn::make_resnet34(1);
  const GlobalFeatures whole = GlobalFeatureExtractor::extract(g);
  const GlobalFeatures range =
      GlobalFeatureExtractor::extract(g, 0, g.size());
  EXPECT_EQ(whole.structural, range.structural);
  EXPECT_EQ(whole.statistics, range.statistics);
}

TEST(GlobalExtractor, TotalsMatchGraphAggregates) {
  const dnn::Graph g = dnn::make_googlenet(1);
  const GlobalFeatures f = GlobalFeatureExtractor::extract(g);
  EXPECT_NEAR(f.statistics[0],
              std::log1p(static_cast<double>(g.total_flops())), 1e-9);
  EXPECT_NEAR(f.statistics[1],
              std::log1p(static_cast<double>(g.total_params())), 1e-9);
  EXPECT_NEAR(f.statistics[2],
              std::log1p(static_cast<double>(testing::total_mem_bytes(g))),
              1e-9);
}

TEST(GlobalExtractor, StructuralCountsResidualsAndConcats) {
  const dnn::Graph g = dnn::make_resnet34(1);
  const GlobalFeatures f = GlobalFeatureExtractor::extract(g);
  EXPECT_NEAR(f.structural[2],
              std::log1p(static_cast<double>(testing::residual_count(g))),
              1e-9);
  EXPECT_NEAR(f.structural[3], std::log1p(0.0), 1e-12);  // no concats
}

TEST(GlobalExtractor, OpHistogramSumsToOne) {
  const dnn::Graph g = dnn::make_vgg19(1);
  const GlobalFeatures f = GlobalFeatureExtractor::extract(g);
  double hist = 0.0;
  for (std::size_t i = 7; i < kStructuralDim; ++i) hist += f.structural[i];
  EXPECT_NEAR(hist, 1.0, 1e-9);
}

TEST(GlobalExtractor, BlockRangeIsolatesLayers) {
  const dnn::Graph g = dnn::make_vgg19(1);
  const std::size_t half = g.size() / 2;
  const GlobalFeatures a = GlobalFeatureExtractor::extract(g, 0, half);
  const GlobalFeatures b = GlobalFeatureExtractor::extract(g, half, g.size());
  // Early VGG layers have high-resolution activations, later ones carry the
  // FC parameters: the parameter mass must sit in the second half.
  EXPECT_LT(a.statistics[1], b.statistics[1]);
  // And log-FLOPs of both halves are below the whole network's.
  const GlobalFeatures whole = GlobalFeatureExtractor::extract(g);
  EXPECT_LT(a.statistics[0], whole.statistics[0]);
  EXPECT_LT(b.statistics[0], whole.statistics[0]);
}

TEST(GlobalExtractor, TransformerDetected) {
  const dnn::Graph vit = dnn::make_vit_base_16(1);
  const dnn::Graph cnn = dnn::make_resnet34(1);
  const GlobalFeatures fv = GlobalFeatureExtractor::extract(vit);
  const GlobalFeatures fc = GlobalFeatureExtractor::extract(cnn);
  EXPECT_GT(fv.structural[5], 0.0);  // attention-layer count
  EXPECT_DOUBLE_EQ(fc.structural[5], 0.0);
}

TEST(GlobalExtractor, BatchSizeEncoded) {
  const dnn::Graph g1 = dnn::make_alexnet(1);
  const dnn::Graph g8 = dnn::make_alexnet(8);
  EXPECT_LT(GlobalFeatureExtractor::extract(g1).structural[6],
            GlobalFeatureExtractor::extract(g8).structural[6]);
}

TEST(GlobalExtractor, BadRangeThrows) {
  const dnn::Graph g = dnn::make_alexnet(1);
  EXPECT_THROW(GlobalFeatureExtractor::extract(g, 5, 5),
               std::invalid_argument);
  EXPECT_THROW(GlobalFeatureExtractor::extract(g, 0, g.size() + 1),
               std::invalid_argument);
  EXPECT_THROW(GlobalFeatureExtractor::extract(g, 7, 3),
               std::invalid_argument);
}

TEST(GlobalExtractor, ComputeFlopsShareInUnitRange) {
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    const dnn::Graph g = spec.build(1);
    const GlobalFeatures f = GlobalFeatureExtractor::extract(g);
    const double share = f.statistics[10];
    EXPECT_GE(share, 0.0) << spec.name;
    EXPECT_LE(share, 1.0) << spec.name;
    // Compute operators dominate FLOPs in every zoo model.
    EXPECT_GT(share, 0.5) << spec.name;
  }
}

}  // namespace
}  // namespace powerlens::features
