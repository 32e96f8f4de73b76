#include "core/metrics.hpp"

#include <gtest/gtest.h>

namespace powerlens::core {
namespace {

hw::ExecutionResult result(double time_s, double energy_j,
                           std::int64_t images) {
  hw::ExecutionResult r;
  r.time_s = time_s;
  r.energy_j = energy_j;
  r.images = images;
  return r;
}

TEST(Metrics, EnergyEfficiencyIsImagesPerJoule) {
  EXPECT_DOUBLE_EQ(result(2.0, 50.0, 100).energy_efficiency(), 2.0);
}

TEST(Metrics, EeGainMatchesTableDefinition) {
  // (EE_powerlens - EE_baseline) / EE_baseline.
  EXPECT_DOUBLE_EQ(ee_gain(3.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(ee_gain(2.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(ee_gain(1.0, 2.0), -0.5);
}

TEST(Metrics, EeGainFromResults) {
  const hw::ExecutionResult ours = result(1.0, 10.0, 100);   // EE 10
  const hw::ExecutionResult base = result(1.0, 20.0, 100);   // EE 5
  EXPECT_DOUBLE_EQ(ee_gain(ours, base), 1.0);
}

TEST(Metrics, EeGainRejectsZeroBaseline) {
  EXPECT_THROW(ee_gain(1.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace powerlens::core
