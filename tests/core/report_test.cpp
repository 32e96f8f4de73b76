#include "core/report.hpp"

#include "dnn/models.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace powerlens::core {
namespace {

TEST(Report, LayerProfileListsEveryLayer) {
  const hw::Platform p = hw::make_tx2();
  const dnn::Graph g = dnn::make_alexnet(1);
  std::stringstream ss;
  write_layer_profile(ss, g, p, p.gpu_levels() / 2);
  const std::string out = ss.str();
  // Header + one line per layer.
  std::size_t lines = 0;
  for (char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, g.size() + 2);
  EXPECT_NE(out.find("alexnet"), std::string::npos);
  EXPECT_NE(out.find("conv2d"), std::string::npos);
  EXPECT_NE(out.find("memory"), std::string::npos);  // FC layers at batch 1
}

TEST(Report, PlanSummaryShowsBlocksAndFrequencies) {
  const hw::Platform p = hw::make_agx();
  const dnn::Graph g = dnn::make_resnet34(8);
  OptimizationPlan plan;
  plan.hyper = {0.1, 3};
  plan.view = clustering::PowerView({{0, g.size() / 2},
                                     {g.size() / 2, g.size()}},
                                    g.size());
  plan.block_levels = {3, 5};
  std::stringstream ss;
  write_plan_summary(ss, g, p, plan);
  const std::string out = ss.str();
  EXPECT_NE(out.find("2 power block(s)"), std::string::npos);
  EXPECT_NE(out.find("block 0"), std::string::npos);
  EXPECT_NE(out.find("block 1"), std::string::npos);
  EXPECT_NE(out.find("MHz"), std::string::npos);
  EXPECT_NE(out.find("conv2d"), std::string::npos);  // dominant op
}

}  // namespace
}  // namespace powerlens::core
