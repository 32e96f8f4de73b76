// Shared declarations of the PowerLens benchmark driver.
//
// One binary, three workloads (see README.md). A run sets the workload up
// several times (setup_s is the median), performs an untimed check pass
// whose failures feed `failed`, then either times the end-to-end metrics
// (--trace 0) or times calls into each layer's public functions (--trace 1).
// The last line of stdout is the result object the harness reads.
#pragma once

#include "core/powerlens.hpp"
#include "hw/platform.hpp"
#include "obs/journal.hpp"
#include "obs/residuals.hpp"
#include "serve/server.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

namespace pl = powerlens;

enum class Workload { kTaskflowWarm, kColdPlan, kChaosAdapt };

const char* workload_name(Workload w) noexcept;

struct Options {
  Workload workload = Workload::kTaskflowWarm;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Every workload serves on 4 host workers: a fixed value, never read from
// the host.
inline constexpr std::size_t kWorkers = 4;

// ---- measurement helpers ----

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Wall-clock seconds of one call.
double time_call(const std::function<void()>& fn);

// Linear-interpolated quantile (numpy's default) over a copy; NaN if empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// Peak resident set size of this process, in MB.
double peak_rss_mb();

// Milliseconds of one fixed-shape GEMM (256^3, active dispatch path),
// median of repetitions: the host-speed reference every record carries.
double calib_gemm_ms();

// ---- results ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const noexcept { return items_; }

 private:
  std::vector<Metric> items_;
};

// Operations attempted and failed. Each served stream, timed plan round and
// output check counts as one operation; a failure is also reported on
// stderr with what failed.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok, const std::string& what);
};

// ---- the deployed workload ----

// A server with its own journal and residual sinks, declared first so they
// outlive it.
struct ServerHandle {
  std::unique_ptr<pl::obs::Journal> journal;
  std::unique_ptr<pl::obs::Residuals> residuals;
  std::unique_ptr<pl::serve::Server> server;
};

// Everything one set-up produces. Held by pointer: the framework and the
// servers keep the platform's address.
struct Deployment {
  Workload workload = Workload::kTaskflowWarm;
  pl::hw::Platform platform;
  std::unique_ptr<pl::core::PowerLens> framework;
  std::vector<pl::serve::DeployedModel> models;
  std::vector<pl::serve::Task> tasks;
  // The timed serving configuration (policy, workers, faults, adaptation).
  pl::serve::ServerConfig config;
  // chaos-adapt only: plans of every deployed model, computed in set-up
  // and preloaded into each fresh server.
  std::vector<pl::serve::PlanCache::PlanPtr> plans;
  // taskflow-warm only: long-lived warm servers keyed by (workers,
  // instrumented).
  std::map<std::pair<std::size_t, bool>, ServerHandle> warm;
};

// Offline configuration shared by every workload (train() takes ~0.9 s on
// 4 threads).
pl::core::PowerLensConfig framework_config();

// Trains, deploys and warms one workload; the duration is one setup_s
// sample.
std::unique_ptr<Deployment> set_up(Workload workload, std::uint64_t seed);

// A server in the deployment's configuration with its own journal and
// residual sinks (they must outlive it). `workers` overrides the worker
// count; `instrumented` = false turns journal and residuals off. Plans are
// preloaded when the workload times a warm plan cache.
ServerHandle make_server(const Deployment& d, std::size_t workers,
                         bool instrumented = true);

// One timed serve in the workload's timed form: the warm server for
// taskflow-warm, a fresh (cold or preloaded) server otherwise. Only the
// serve() call is timed.
struct TimedServe {
  double host_s = 0.0;
  pl::serve::ServeReport report;
  std::uint64_t journal_records = 0;
  std::uint64_t adapt_epochs = 0;
  std::uint64_t adapt_replans = 0;
};
TimedServe timed_serve(Deployment& d, std::size_t workers,
                       bool instrumented = true);

// Requests the report counts as completed (admitted, not shed).
std::size_t completed(const pl::serve::ServeReport& r);

// True when two reports describe the same simulated outcome (every
// aggregate and per-request field the simulator and fold produce; plan
// cache counters and plan provenance are excluded because they depend on
// whether the cache was warm).
bool same_simulation(const pl::serve::ServeReport& a,
                     const pl::serve::ServeReport& b);

// The graphs solo optimize() is timed over: the deployed models.
std::vector<const pl::dnn::Graph*> plan_population(const Deployment& d);

// The untimed check pass. Returns the reference report (4 workers), the
// BiM report on the same stream, and the solo plan of every graph in
// plan_population().
struct CheckResult {
  pl::serve::ServeReport reference;
  pl::serve::ServeReport bim;
  std::vector<pl::core::OptimizationPlan> plans;
};
CheckResult check_outputs(Deployment& d, Ledger& ledger);

// --trace 0: every end-to-end metric.
void measure_end_to_end(Deployment& d, const CheckResult& ref,
                        const Options& opts, double setup_s, Ledger& ledger,
                        Metrics& out);

// --trace 1: every per-layer metric.
void measure_layers(Deployment& d, const CheckResult& ref,
                    const Options& opts, Ledger& ledger, Metrics& out);

}  // namespace perfbench
