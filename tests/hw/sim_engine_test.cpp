#include "hw/sim_engine.hpp"

#include "dnn/models.hpp"
#include "hw/analytic.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

namespace powerlens::hw {
namespace {

class SimEngineTest : public ::testing::Test {
 protected:
  Platform platform_ = make_tx2();
  SimEngine engine_{platform_};
  dnn::Graph graph_ = dnn::make_alexnet(/*batch=*/8);
};

TEST_F(SimEngineTest, FixedLevelRunMatchesAnalyticModel) {
  // With no governor, no schedule, and no inter-pass gap the engine holds
  // the initial levels; totals must match the closed-form model (same
  // latency/power equations).
  RunPolicy policy = engine_.default_policy();
  policy.inter_pass_gap_s = 0.0;
  const ExecutionResult r = engine_.run(graph_, /*passes=*/3, policy);

  BlockCost expected = analytic_block_cost(
      platform_, graph_.layers(), platform_.max_gpu_level(),
      platform_.max_cpu_level(), policy.cpu_load);
  // The engine adds the launch share to CPU activity; allow a small margin.
  EXPECT_NEAR(r.time_s, 3.0 * expected.time_s, 1e-9);
  EXPECT_NEAR(r.energy_j, 3.0 * expected.energy_j,
              0.05 * 3.0 * expected.energy_j);
  EXPECT_EQ(r.images, 24);
  EXPECT_EQ(r.dvfs_transitions, 0u);
}

TEST_F(SimEngineTest, MetricsConsistent) {
  const ExecutionResult r =
      engine_.run(graph_, 5, engine_.default_policy());
  EXPECT_NEAR(r.avg_power_w(), r.energy_j / r.time_s, 1e-12);
  EXPECT_NEAR(r.fps(), static_cast<double>(r.images) / r.time_s, 1e-9);
  EXPECT_NEAR(r.energy_efficiency(),
              static_cast<double>(r.images) / r.energy_j, 1e-12);
}

TEST_F(SimEngineTest, LowerFixedLevelUsesLessPower) {
  RunPolicy high = engine_.default_policy();
  RunPolicy low = engine_.default_policy();
  low.initial_gpu_level = 2;
  const ExecutionResult rh = engine_.run(graph_, 3, high);
  const ExecutionResult rl = engine_.run(graph_, 3, low);
  EXPECT_GT(rl.time_s, rh.time_s);
  EXPECT_LT(rl.avg_power_w(), rh.avg_power_w());
}

TEST_F(SimEngineTest, PresetScheduleAppliesAndCountsTransitions) {
  // Long-running graph so each switch settles (effect latency is 40 ms).
  const dnn::Graph big = dnn::make_resnet152(8);
  PresetSchedule schedule;
  schedule.points.push_back({0, 4});
  schedule.points.push_back({big.size() / 2, 8});

  RunPolicy policy = engine_.default_policy();
  policy.schedule = &schedule;
  const ExecutionResult r = engine_.run(big, /*passes=*/2, policy);
  // Two switches in pass 1 (max->4, 4->8), then 8->4 and 4->8 in pass 2.
  EXPECT_EQ(r.dvfs_transitions, 4u);
  // Trace records the initial level plus every applied change.
  EXPECT_EQ(r.gpu_trace.size(), 5u);
  EXPECT_EQ(r.gpu_trace.front().gpu_level, platform_.max_gpu_level());
  EXPECT_EQ(r.gpu_trace.back().gpu_level, 8u);
}

TEST_F(SimEngineTest, RedundantPresetPointDoesNotSwitch) {
  PresetSchedule schedule;
  schedule.points.push_back({0, platform_.max_gpu_level()});
  RunPolicy policy = engine_.default_policy();
  policy.schedule = &schedule;
  const ExecutionResult r = engine_.run(graph_, 2, policy);
  EXPECT_EQ(r.dvfs_transitions, 0u);
}

TEST_F(SimEngineTest, TransitionsCostTime) {
  PresetSchedule schedule;
  schedule.points.push_back({0, 4});
  schedule.points.push_back({graph_.size() / 2, platform_.max_gpu_level()});
  RunPolicy with = engine_.default_policy();
  with.schedule = &schedule;

  // Same passes; the scheduled run switches twice per pass and must pay the
  // stall each time, and the stall total is accounted exactly.
  const ExecutionResult r_with = engine_.run(graph_, 4, with);
  EXPECT_GT(r_with.dvfs_transitions, 0u);
  EXPECT_GT(r_with.time_s, 0.0);
  EXPECT_DOUBLE_EQ(r_with.dvfs_stall_s,
                   static_cast<double>(r_with.dvfs_transitions) *
                       platform_.dvfs.stall_s);
}

TEST_F(SimEngineTest, FixedLevelRunHasNoStallTime) {
  RunPolicy policy = engine_.default_policy();
  const ExecutionResult r = engine_.run(graph_, 3, policy);
  EXPECT_EQ(r.dvfs_transitions, 0u);
  EXPECT_DOUBLE_EQ(r.dvfs_stall_s, 0.0);
}

TEST_F(SimEngineTest, TelemetryCoversRun) {
  const ExecutionResult r = engine_.run(graph_, 10, engine_.default_policy());
  // The telemetry rail integrates the whole run and its samples carry
  // plausible board power (the mean is 0 only when no sample was taken).
  EXPECT_EQ(r.telemetry_energy_j, r.energy_j);
  EXPECT_GT(r.telemetry_mean_power_w, 0.0);
  EXPECT_LE(r.telemetry_mean_power_w, r.telemetry_peak_power_w);
  EXPECT_LT(r.telemetry_peak_power_w, 50.0);
}

TEST_F(SimEngineTest, WorkloadAggregatesItems) {
  const dnn::Graph g2 = dnn::make_resnet34(8);
  const std::vector<WorkItem> items{{&graph_, 2}, {&g2, 1}};
  const ExecutionResult r =
      engine_.run_workload(items, engine_.default_policy());
  EXPECT_EQ(r.images, 2 * 8 + 8);

  const ExecutionResult r1 = engine_.run(graph_, 2, engine_.default_policy());
  const ExecutionResult r2 = engine_.run(g2, 1, engine_.default_policy());
  EXPECT_NEAR(r.time_s, r1.time_s + r2.time_s, 1e-9);
}

TEST_F(SimEngineTest, ZeroPassesThrows) {
  EXPECT_THROW(engine_.run(graph_, 0, engine_.default_policy()),
               std::invalid_argument);
}

TEST_F(SimEngineTest, NullGraphInWorkloadThrows) {
  const std::vector<WorkItem> items{{nullptr, 1}};
  EXPECT_THROW(engine_.run_workload(items, engine_.default_policy()),
               std::invalid_argument);
}

TEST_F(SimEngineTest, BadScheduleLevelThrows) {
  PresetSchedule schedule;
  schedule.points.push_back({0, platform_.gpu_levels() + 5});
  RunPolicy policy = engine_.default_policy();
  policy.schedule = &schedule;
  EXPECT_THROW(engine_.run(graph_, 1, policy), std::out_of_range);
}

// A governor that always requests one specific level pair.
class PinGovernor final : public Governor {
 public:
  explicit PinGovernor(std::size_t gpu) : gpu_(gpu) {}
  void reset(const Platform&) override { samples_ = 0; }
  double sample_period_s() const noexcept override { return 0.01; }
  GovernorDecision on_sample(const GovernorSample& s) override {
    ++samples_;
    last_ = s;
    GovernorDecision d;
    if (s.gpu_level != gpu_) d.gpu_level = gpu_;
    return d;
  }
  std::string_view name() const noexcept override { return "pin"; }

  int samples_ = 0;
  GovernorSample last_;

 private:
  std::size_t gpu_;
};

TEST_F(SimEngineTest, GovernorSampledAndApplied) {
  PinGovernor governor(3);
  RunPolicy policy = engine_.default_policy();
  policy.governor = &governor;
  const ExecutionResult r = engine_.run(graph_, 5, policy);
  EXPECT_GT(governor.samples_, 3);
  EXPECT_EQ(r.dvfs_transitions, 1u);  // one switch down to level 3
  EXPECT_EQ(r.gpu_trace.back().gpu_level, 3u);
  // Observations carry meaningful utilization and power.
  EXPECT_GT(governor.last_.power_w, 0.0);
  EXPECT_GE(governor.last_.gpu_util, 0.0);
  EXPECT_LE(governor.last_.gpu_util, 1.0);
}

TEST_F(SimEngineTest, TracingDoesNotPerturbResults) {
  PresetSchedule schedule;
  schedule.points.push_back({0, 4});
  schedule.points.push_back({graph_.size() / 2, platform_.max_gpu_level()});
  PinGovernor governor(3);
  RunPolicy policy = engine_.default_policy();
  policy.schedule = &schedule;
  policy.governor = &governor;

  const ExecutionResult quiet = engine_.run(graph_, 4, policy);

  const std::string path = testing::TempDir() + "sim_engine_trace_test.json";
  obs::TraceWriter tw;
  ASSERT_TRUE(tw.open(path));
  policy.trace = &tw;
  policy.trace_label = "traced";
  const ExecutionResult traced = engine_.run(graph_, 4, policy);
  tw.close();
  std::remove(path.c_str());

  // Tracing must be a pure observer: identical results bit for bit.
  EXPECT_EQ(traced.time_s, quiet.time_s);
  EXPECT_EQ(traced.energy_j, quiet.energy_j);
  EXPECT_EQ(traced.images, quiet.images);
  EXPECT_EQ(traced.dvfs_transitions, quiet.dvfs_transitions);
  EXPECT_EQ(traced.dvfs_stall_s, quiet.dvfs_stall_s);
  EXPECT_EQ(traced.telemetry_energy_j, quiet.telemetry_energy_j);
}

TEST_F(SimEngineTest, ScheduleOverridesGovernorGpuDecision) {
  PinGovernor governor(0);
  PresetSchedule schedule;
  schedule.points.push_back({0, 6});
  RunPolicy policy = engine_.default_policy();
  policy.governor = &governor;
  policy.schedule = &schedule;
  const ExecutionResult r = engine_.run(graph_, 3, policy);
  // The governor wanted level 0 but the schedule owns the GPU ladder.
  EXPECT_EQ(r.gpu_trace.back().gpu_level, 6u);
}

}  // namespace
}  // namespace powerlens::hw
