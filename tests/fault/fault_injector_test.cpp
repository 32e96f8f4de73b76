// FaultInjector: decisions are counter-based pure functions of
// (seed, domain, index) — replayable, order-robust, decorrelated across
// purposes — and the two pieces of sequential physics (the stuck-clock
// window and the thermal chain) advance deterministically with the run
// clock.
#include "fault/fault_injector.hpp"

#include "hw/fault_hooks.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace powerlens::fault {
namespace {

FaultSpec dvfs_spec(double rate, double sticky = 0.0) {
  FaultSpec spec;
  spec.dvfs_fail_rate = rate;
  spec.dvfs_sticky_s = sticky;
  return spec;
}

// A stream seed whose first DVFS draw fails at `rate` but whose second
// draw passes — found by search so the tests don't hardcode hash output.
std::uint64_t seed_with_fail0_pass1(double rate) {
  for (std::uint64_t seed = 0; seed < 100000; ++seed) {
    FaultInjector first(dvfs_spec(rate), seed);
    if (!first.dvfs_request_fails(0, 0.0)) continue;
    FaultInjector second(dvfs_spec(rate), seed);
    if (!second.dvfs_request_fails(1, /*time_s=*/1e9)) return seed;
  }
  ADD_FAILURE() << "no seed found with fail@0 / pass@1 at rate " << rate;
  return 0;
}

TEST(FaultInjectorTest, ConstructorValidatesSpec) {
  EXPECT_THROW(FaultInjector(dvfs_spec(1.5), 0), std::invalid_argument);
}

TEST(FaultInjectorTest, ZeroRatesNeverFire) {
  FaultInjector inj(FaultSpec{}, /*stream_seed=*/99);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.dvfs_request_fails(i, static_cast<double>(i)));
    EXPECT_FALSE(inj.drop_telemetry_sample(i));
    EXPECT_DOUBLE_EQ(inj.layer_latency_factor(i), 1.0);
  }
  const hw::ThermalState th = inj.thermal_at(50.0);
  EXPECT_EQ(th.levels_off, 0u);
  EXPECT_TRUE(std::isinf(th.until_s));
  EXPECT_EQ(inj.counters(), hw::FaultCounters{});
}

TEST(FaultInjectorTest, RateOneAlwaysFires) {
  FaultSpec spec = dvfs_spec(1.0);
  spec.telemetry_drop_rate = 1.0;
  spec.latency_rate = 1.0;
  spec.latency_factor = 2.0;
  FaultInjector inj(spec, 7);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(inj.dvfs_request_fails(i, static_cast<double>(i)));
    EXPECT_TRUE(inj.drop_telemetry_sample(i));
    EXPECT_DOUBLE_EQ(inj.layer_latency_factor(i), 2.0);
  }
  EXPECT_EQ(inj.counters().dvfs_failed, 10u);
  EXPECT_EQ(inj.counters().telemetry_dropped, 10u);
  EXPECT_EQ(inj.counters().latency_inflated, 10u);
}

TEST(FaultInjectorTest, DecisionsReplayIdentically) {
  FaultSpec spec = dvfs_spec(0.3);
  spec.telemetry_drop_rate = 0.3;
  spec.latency_rate = 0.3;
  FaultInjector a(spec, 2024);
  FaultInjector b(spec, 2024);
  for (std::size_t i = 0; i < 200; ++i) {
    const double t = 0.01 * static_cast<double>(i);
    EXPECT_EQ(a.dvfs_request_fails(i, t), b.dvfs_request_fails(i, t)) << i;
    EXPECT_EQ(a.drop_telemetry_sample(i), b.drop_telemetry_sample(i)) << i;
    EXPECT_EQ(a.layer_latency_factor(i), b.layer_latency_factor(i)) << i;
  }
  EXPECT_EQ(a.counters(), b.counters());
}

TEST(FaultInjectorTest, DrawsAreCounterBasedNotSequential) {
  // Telemetry and latency decisions depend only on the index, not on how
  // many draws happened before — the worker-count-invariance property.
  FaultSpec spec;
  spec.telemetry_drop_rate = 0.4;
  spec.latency_rate = 0.4;
  FaultInjector dense(spec, 31);
  std::vector<bool> drops;
  std::vector<double> factors;
  for (std::size_t i = 0; i < 64; ++i) {
    drops.push_back(dense.drop_telemetry_sample(i));
    factors.push_back(dense.layer_latency_factor(i));
  }
  // A second injector that only ever touches the even indices must agree
  // with the dense one on them.
  FaultInjector sparse(spec, 31);
  for (std::size_t i = 0; i < 64; i += 2) {
    EXPECT_EQ(sparse.drop_telemetry_sample(i), drops[i]) << i;
    EXPECT_EQ(sparse.layer_latency_factor(i), factors[i]) << i;
  }
}

TEST(FaultInjectorTest, DifferentSeedsDecorrelate) {
  FaultSpec spec;
  spec.telemetry_drop_rate = 0.5;
  FaultInjector a(spec, 1);
  FaultInjector b(spec, 2);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < 256; ++i) {
    if (a.drop_telemetry_sample(i) != b.drop_telemetry_sample(i)) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjectorTest, RatesRoughlyMatchLongRunFrequency) {
  FaultSpec spec;
  spec.telemetry_drop_rate = 0.25;
  FaultInjector inj(spec, 17);
  constexpr std::size_t kDraws = 20000;
  for (std::size_t i = 0; i < kDraws; ++i) {
    inj.drop_telemetry_sample(i);
  }
  const double freq =
      static_cast<double>(inj.counters().telemetry_dropped) / kDraws;
  EXPECT_NEAR(freq, 0.25, 0.02);
}

// --- the stuck-clock window ---

TEST(FaultInjectorTest, StickyWindowWedgesSubsequentRequests) {
  const double kRate = 0.3;
  const std::uint64_t seed = seed_with_fail0_pass1(kRate);

  // Without stickiness the second request succeeds on its own draw.
  FaultInjector free_inj(dvfs_spec(kRate, /*sticky=*/0.0), seed);
  EXPECT_TRUE(free_inj.dvfs_request_fails(0, 0.0));
  EXPECT_FALSE(free_inj.dvfs_request_fails(1, 0.1));

  // With a sticky window the same second request is wedged...
  FaultInjector stuck(dvfs_spec(kRate, /*sticky=*/0.5), seed);
  EXPECT_TRUE(stuck.dvfs_request_fails(0, 0.0));
  EXPECT_TRUE(stuck.dvfs_request_fails(1, 0.1));
  EXPECT_EQ(stuck.counters().dvfs_failed, 2u);

  // ...but a request after the window falls back to its own (passing) draw.
  FaultInjector recovered(dvfs_spec(kRate, /*sticky=*/0.5), seed);
  EXPECT_TRUE(recovered.dvfs_request_fails(0, 0.0));
  EXPECT_FALSE(recovered.dvfs_request_fails(1, 0.6));
}

// --- the thermal chain ---

TEST(FaultInjectorTest, ThermalChainIsDeterministicAndWellFormed) {
  FaultSpec spec;
  spec.thermal_rate_hz = 2.0;
  spec.thermal_duration_s = 0.25;
  spec.thermal_levels_off = 3;

  FaultInjector a(spec, 404);
  FaultInjector b(spec, 404);
  std::size_t active_queries = 0;
  double t = 0.0;
  for (int step = 0; step < 400; ++step) {
    const hw::ThermalState sa = a.thermal_at(t);
    const hw::ThermalState sb = b.thermal_at(t);
    EXPECT_EQ(sa.levels_off, sb.levels_off);
    EXPECT_EQ(sa.until_s, sb.until_s);
    // The cap is all-or-nothing and the horizon is strictly ahead of the
    // query (the engine relies on this to bound dt without spinning).
    EXPECT_TRUE(sa.levels_off == 0 || sa.levels_off == 3u);
    EXPECT_GT(sa.until_s, t);
    if (sa.levels_off > 0) ++active_queries;
    t += 0.05;
  }
  // At 2 events/s over 20 s with 0.25 s windows, throttling must show up.
  EXPECT_GT(active_queries, 0u);
  EXPECT_GT(a.counters().thermal_events, 0u);
  EXPECT_EQ(a.counters().thermal_events, b.counters().thermal_events);
}

TEST(FaultInjectorTest, ThermalDisabledByZeroLevels) {
  FaultSpec spec;
  spec.thermal_rate_hz = 5.0;
  spec.thermal_levels_off = 0;
  FaultInjector inj(spec, 1);
  const hw::ThermalState th = inj.thermal_at(100.0);
  EXPECT_EQ(th.levels_off, 0u);
  EXPECT_TRUE(std::isinf(th.until_s));
  EXPECT_EQ(inj.counters().thermal_events, 0u);
}

TEST(FaultInjectorTest, ThermalEventCountMatchesWindowsEntered) {
  FaultSpec spec;
  spec.thermal_rate_hz = 1.0;
  spec.thermal_duration_s = 0.5;
  spec.thermal_levels_off = 1;
  FaultInjector inj(spec, 55);
  // Jump far ahead: the chain must replay every window in between (the
  // counter advances once per window entered, never per query).
  inj.thermal_at(0.0);
  const std::size_t after_start = inj.counters().thermal_events;
  inj.thermal_at(50.0);
  const std::size_t after_jump = inj.counters().thermal_events;
  EXPECT_GE(after_jump, after_start);
  // ~50 expected events at rate 1/s; allow wide slack, just not zero.
  EXPECT_GT(after_jump, 10u);
  // Re-querying the same instant is idempotent.
  inj.thermal_at(50.0);
  EXPECT_EQ(inj.counters().thermal_events, after_jump);
}

}  // namespace
}  // namespace powerlens::fault
