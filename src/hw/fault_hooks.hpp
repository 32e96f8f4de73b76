// Fault-injection seam of the simulated hardware.
//
// The engine's DVFS requests, telemetry and layer timing consult this
// interface at the points where real embedded boards misbehave:
// clock-relock requests that silently fail (and stay stuck for a window),
// thermal events that cap the top of the GPU ladder, tegrastats samples
// that never arrive, and kernels that transiently run slow under
// interference. The interface lives in hw so the simulation layer has no
// dependency on any concrete fault model; the seeded deterministic
// implementation is fault::FaultInjector.
//
// Contract: one FaultModel instance per simulator run. Query times are
// non-decreasing within a run (the engine's clock only moves forward), and
// counters() accumulates over the instance's lifetime, so a fresh instance
// per run yields exact per-run fault accounting.
#pragma once

#include <cstddef>
#include <limits>

namespace powerlens::hw {

// Per-run totals of injected faults; owned by the model (it makes every
// decision), read by the engine into ExecutionResult at run end.
struct FaultCounters {
  std::size_t dvfs_failed = 0;       // transition requests that did not land
  std::size_t thermal_events = 0;    // throttle windows entered
  std::size_t telemetry_dropped = 0; // samples lost from the stream
  std::size_t latency_inflated = 0;  // layers hit by transient slowdown

  FaultCounters& operator+=(const FaultCounters& o) noexcept {
    dvfs_failed += o.dvfs_failed;
    thermal_events += o.thermal_events;
    telemetry_dropped += o.telemetry_dropped;
    latency_inflated += o.latency_inflated;
    return *this;
  }
  bool operator==(const FaultCounters&) const noexcept = default;
};

// Thermal throttle state at a query instant: how many levels are chopped
// off the top of the GPU ladder (0 = uncapped), and the earliest time the
// state may change — the engine bounds its integration slices by `until_s`
// so power integrates exactly across window edges.
struct ThermalState {
  std::size_t levels_off = 0;
  double until_s = std::numeric_limits<double>::infinity();
};

class FaultModel {
 public:
  virtual ~FaultModel() = default;

  // Whether the `request_index`-th GPU DVFS transition request of the run,
  // issued at simulated time `time_s`, fails to actuate (the host still
  // pays the driver stall; the clock keeps its old frequency).
  virtual bool dvfs_request_fails(std::size_t request_index,
                                  double time_s) = 0;

  // Thermal cap in effect at `time_s`. Queries must be non-decreasing in
  // time within a run.
  virtual ThermalState thermal_at(double time_s) = 0;

  // Whether the `sample_index`-th telemetry sample of the run is lost.
  // The energy integral is unaffected — only the sample stream thins.
  virtual bool drop_telemetry_sample(std::size_t sample_index) = 0;

  // Latency multiplier (>= 1) for the `layer_ordinal`-th executed layer.
  virtual double layer_latency_factor(std::size_t layer_ordinal) = 0;

  virtual const FaultCounters& counters() const noexcept = 0;
};

}  // namespace powerlens::hw
