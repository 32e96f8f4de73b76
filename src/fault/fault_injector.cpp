#include "fault/fault_injector.hpp"

#include "util/rng.hpp"

#include <cmath>

namespace powerlens::fault {

namespace {
// Per-purpose domain salts; each decision stream draws from its own family.
constexpr std::uint64_t kDvfsDomain = 0xd1f5a3c79b2e4680ULL;
constexpr std::uint64_t kThermalDomain = 0x7e3c91b5d4a2f068ULL;
constexpr std::uint64_t kTelemetryDomain = 0x2b8f6e1a9c4d7305ULL;
constexpr std::uint64_t kLatencyDomain = 0x5a0d3f8e6b1c2947ULL;

double to_unit(std::uint64_t bits) noexcept {
  // Top 53 bits -> [0, 1), the standard double conversion.
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}
}  // namespace

FaultInjector::FaultInjector(const FaultSpec& spec, std::uint64_t stream_seed)
    : spec_(spec), seed_(stream_seed) {
  spec_.validate();
}

double FaultInjector::u01(std::uint64_t domain,
                          std::uint64_t index) const noexcept {
  return to_unit(util::split_seed(seed_ ^ domain, index));
}

bool FaultInjector::dvfs_request_fails(std::size_t request_index,
                                       double time_s) {
  if (spec_.dvfs_fail_rate <= 0.0) return false;
  if (time_s < dvfs_stuck_until_) {
    // The clock driver is still wedged from an earlier failure.
    ++counters_.dvfs_failed;
    return true;
  }
  if (u01(kDvfsDomain, request_index) < spec_.dvfs_fail_rate) {
    ++counters_.dvfs_failed;
    dvfs_stuck_until_ = time_s + spec_.dvfs_sticky_s;
    return true;
  }
  return false;
}

void FaultInjector::advance_thermal(double time_s) {
  if (!th_initialized_) {
    // First inter-arrival gap from t = 0.
    const double gap = -std::log1p(-u01(kThermalDomain, th_index_++)) /
                       spec_.thermal_rate_hz;
    th_next_start_ = gap;
    th_initialized_ = true;
  }
  for (;;) {
    if (th_active_) {
      if (time_s < th_end_) return;
      // Window over; draw the gap to the next one.
      th_active_ = false;
      const double gap = -std::log1p(-u01(kThermalDomain, th_index_++)) /
                         spec_.thermal_rate_hz;
      th_next_start_ = th_end_ + gap;
    }
    if (time_s < th_next_start_) return;
    th_active_ = true;
    th_end_ = th_next_start_ + spec_.thermal_duration_s;
    ++counters_.thermal_events;
  }
}

hw::ThermalState FaultInjector::thermal_at(double time_s) {
  if (spec_.thermal_rate_hz <= 0.0 || spec_.thermal_levels_off == 0) {
    return {};  // uncapped forever
  }
  advance_thermal(time_s);
  if (th_active_) {
    return {spec_.thermal_levels_off, th_end_};
  }
  return {0, th_next_start_};
}

bool FaultInjector::drop_telemetry_sample(std::size_t sample_index) {
  if (spec_.telemetry_drop_rate <= 0.0) return false;
  if (u01(kTelemetryDomain, sample_index) < spec_.telemetry_drop_rate) {
    ++counters_.telemetry_dropped;
    return true;
  }
  return false;
}

double FaultInjector::layer_latency_factor(std::size_t layer_ordinal) {
  if (spec_.latency_rate <= 0.0) return 1.0;
  if (u01(kLatencyDomain, layer_ordinal) < spec_.latency_rate) {
    ++counters_.latency_inflated;
    return spec_.latency_factor;
  }
  return 1.0;
}

}  // namespace powerlens::fault
