#include "core/dataset_gen.hpp"

#include "dnn/models.hpp"
#include "features/global.hpp"
#include "hw/analytic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace powerlens::core {
namespace {

TEST(HyperparamGrid, IndexRoundTrip) {
  const HyperparamGrid grid;
  // Class i is (eps_values[i / |min_pts|], min_pts_values[i % |min_pts|]).
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const clustering::ClusteringHyperparams hp = grid.at(i);
    const auto e = std::ranges::find(grid.eps_values, hp.eps);
    const auto m = std::ranges::find(grid.min_pts_values, hp.min_pts);
    ASSERT_NE(e, grid.eps_values.end());
    ASSERT_NE(m, grid.min_pts_values.end());
    EXPECT_EQ(static_cast<std::size_t>(e - grid.eps_values.begin()) *
                      grid.min_pts_values.size() +
                  static_cast<std::size_t>(m - grid.min_pts_values.begin()),
              i);
  }
  EXPECT_THROW(grid.at(grid.size()), std::out_of_range);
}

TEST(HyperparamGrid, SizeIsProductOfAxes) {
  const HyperparamGrid grid;
  EXPECT_EQ(grid.size(),
            grid.eps_values.size() * grid.min_pts_values.size());
}

TEST(EvaluateViewOracle, SingleBlockMatchesOptimalLevel) {
  const hw::Platform platform = hw::make_tx2();
  const dnn::Graph g = dnn::make_resnet34(8);
  const clustering::PowerView view({{0, g.size()}}, g.size());
  const ViewEvaluation ev =
      evaluate_view_oracle(g, view, platform, platform.max_cpu_level());
  ASSERT_EQ(ev.block_levels.size(), 1u);
  EXPECT_EQ(ev.block_levels[0],
            hw::optimal_gpu_level(platform, g.layers(),
                                  platform.max_cpu_level()));
  EXPECT_GT(ev.time_s, 0.0);
  EXPECT_GT(ev.energy_j, 0.0);
}

TEST(EvaluateViewOracle, MoreBlocksNeverWorseBeforeSwitchCost) {
  // With zero switch cost, finer partitions can only reduce energy (each
  // block gets its own optimum).
  hw::Platform platform = hw::make_tx2();
  platform.dvfs = {0.0, 0.0};
  const dnn::Graph g = dnn::make_resnet152(8);

  const clustering::PowerView one({{0, g.size()}}, g.size());
  const std::size_t half = g.size() / 2;
  const clustering::PowerView two({{0, half}, {half, g.size()}}, g.size());

  const std::size_t cpu = platform.max_cpu_level();
  const ViewEvaluation e1 = evaluate_view_oracle(g, one, platform, cpu);
  const ViewEvaluation e2 = evaluate_view_oracle(g, two, platform, cpu);
  EXPECT_LE(e2.energy_j, e1.energy_j + 1e-9);
}

TEST(EvaluateViewOracle, SwitchCostChargedPerLevelChange) {
  hw::Platform platform = hw::make_tx2();
  const dnn::Graph g = dnn::make_resnet152(8);
  const std::size_t half = g.size() / 2;
  const clustering::PowerView two({{0, half}, {half, g.size()}}, g.size());
  const std::size_t cpu = platform.max_cpu_level();

  const ViewEvaluation with_cost =
      evaluate_view_oracle(g, two, platform, cpu);
  hw::Platform free = platform;
  free.dvfs = {0.0, 0.0};
  const ViewEvaluation without_cost =
      evaluate_view_oracle(g, two, free, cpu);
  EXPECT_GE(with_cost.time_s, without_cost.time_s);
}

TEST(EvaluateViewOracle, MismatchedViewThrows) {
  const hw::Platform platform = hw::make_tx2();
  const dnn::Graph g = dnn::make_alexnet(1);
  const clustering::PowerView wrong({{0, 5}}, 5);
  EXPECT_THROW(evaluate_view_oracle(g, wrong, platform, 0),
               std::invalid_argument);
}

TEST(BestHyperparamClass, ReturnsGridIndex) {
  const hw::Platform platform = hw::make_tx2();
  DatasetGenConfig cfg;
  cfg.cpu_level_for_labels = platform.max_cpu_level();
  const dnn::Graph g = dnn::make_googlenet(8);
  const std::size_t cls = best_hyperparam_class(g, platform, cfg);
  EXPECT_LT(cls, cfg.grid.size());
}

class GenerateDatasetsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    platform_ = new hw::Platform(hw::make_tx2());
    DatasetGenConfig cfg;
    cfg.num_networks = 25;
    cfg.seed = 7;
    data_ = new GeneratedDatasets(generate_datasets(*platform_, cfg));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete platform_;
  }

  static hw::Platform* platform_;
  static GeneratedDatasets* data_;
};

hw::Platform* GenerateDatasetsTest::platform_ = nullptr;
GeneratedDatasets* GenerateDatasetsTest::data_ = nullptr;

TEST_F(GenerateDatasetsTest, CountsMatchConfig) {
  EXPECT_EQ(data_->networks_generated, 25u);
  EXPECT_EQ(data_->dataset_a.size(), 25u);
  EXPECT_EQ(data_->dataset_b.size(), data_->blocks_generated);
  EXPECT_GE(data_->blocks_generated, 25u);  // at least one block per net
}

TEST_F(GenerateDatasetsTest, FeatureDimensionsMatchExtractors) {
  EXPECT_EQ(data_->dataset_a.structural.cols(), features::kStructuralDim);
  EXPECT_EQ(data_->dataset_a.statistics.cols(), features::kStatisticsDim);
  EXPECT_EQ(data_->dataset_b.structural.cols(), features::kStructuralDim);
  EXPECT_EQ(data_->dataset_b.statistics.cols(), features::kStatisticsDim);
}

TEST_F(GenerateDatasetsTest, LabelsWithinRanges) {
  const HyperparamGrid grid;
  for (int label : data_->dataset_a.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(static_cast<std::size_t>(label), grid.size());
  }
  for (int label : data_->dataset_b.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(static_cast<std::size_t>(label), platform_->gpu_levels());
  }
}

TEST_F(GenerateDatasetsTest, FrequencyLabelsAreDiverse) {
  // Different blocks must prefer different frequencies, otherwise the
  // decision model has nothing to learn.
  std::set<int> unique(data_->dataset_b.labels.begin(),
                       data_->dataset_b.labels.end());
  EXPECT_GE(unique.size(), 2u);
}

TEST_F(GenerateDatasetsTest, DeterministicInSeed) {
  DatasetGenConfig cfg;
  cfg.num_networks = 5;
  cfg.seed = 7;
  const GeneratedDatasets a = generate_datasets(*platform_, cfg);
  const GeneratedDatasets b = generate_datasets(*platform_, cfg);
  EXPECT_EQ(a.dataset_a.labels, b.dataset_a.labels);
  EXPECT_EQ(a.dataset_b.labels, b.dataset_b.labels);
}

TEST(GenerateDatasets, ZeroNetworksThrows) {
  const hw::Platform platform = hw::make_tx2();
  DatasetGenConfig cfg;
  cfg.num_networks = 0;
  EXPECT_THROW(generate_datasets(platform, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace powerlens::core
