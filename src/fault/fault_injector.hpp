// Seeded deterministic fault injector (the hw::FaultModel implementation).
//
// Every decision is a counter-based SplitMix64 draw — u01(domain, index) is
// a pure function of (stream seed, purpose domain, decision index) with no
// shared sequential generator — so fault sequences are byte-identical
// whatever thread executes the run and whatever order runs interleave in.
// The only intra-run state is inherently sequential physics: the stuck-clock
// window after a failed DVFS actuation and the lazily generated thermal
// window chain, both of which advance monotonically with the run's own
// simulated clock.
//
// Use one injector per simulator run (see hw/fault_hooks.hpp); the serving
// layer seeds each one with fault::request_fault_seed / reactive_fault_seed.
#pragma once

#include "fault/fault_spec.hpp"
#include "hw/fault_hooks.hpp"

#include <cstdint>

namespace powerlens::fault {

class FaultInjector final : public hw::FaultModel {
 public:
  // Throws std::invalid_argument if `spec` fails validate().
  FaultInjector(const FaultSpec& spec, std::uint64_t stream_seed);

  bool dvfs_request_fails(std::size_t request_index, double time_s) override;
  hw::ThermalState thermal_at(double time_s) override;
  bool drop_telemetry_sample(std::size_t sample_index) override;
  double layer_latency_factor(std::size_t layer_ordinal) override;
  const hw::FaultCounters& counters() const noexcept override {
    return counters_;
  }

  const FaultSpec& spec() const noexcept { return spec_; }
  std::uint64_t stream_seed() const noexcept { return seed_; }

 private:
  // Uniform [0, 1) draw for decision `index` in `domain`.
  double u01(std::uint64_t domain, std::uint64_t index) const noexcept;
  // Advances the lazy thermal window chain until it covers `time_s`.
  void advance_thermal(double time_s);

  FaultSpec spec_;
  std::uint64_t seed_;
  hw::FaultCounters counters_;

  // Stuck-clock window: requests before this instant fail unconditionally.
  double dvfs_stuck_until_ = -1.0;

  // Thermal chain state: the current window is [th_start_, th_end_) when
  // th_active_; th_next_start_ is the next window's start otherwise.
  bool th_active_ = false;
  double th_end_ = 0.0;
  double th_next_start_ = 0.0;
  std::size_t th_index_ = 0;  // draw index of the next inter-arrival gap
  bool th_initialized_ = false;
};

}  // namespace powerlens::fault
