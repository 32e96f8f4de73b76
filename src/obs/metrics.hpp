// Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.
//
// Writes are sharded: each thread hashes to one of kMetricShards
// cache-line-padded slots (relaxed atomics), so pool workers claiming lanes
// concurrently never contend on a shared line. Reads merge the shards in
// fixed index order and iterate metrics in name order (std::map), so a
// snapshot of a quiesced registry is deterministic — same workload, same
// exported bytes, whatever the thread count.
//
// Registration (`counter()`/`gauge()`/`histogram()`) takes a mutex; hoist
// the returned reference out of hot loops. The handles themselves are
// stable for the registry's lifetime and their update methods are wait-free
// on x86 (atomic fetch_add).
//
// Exports: JSON (one object, `python3 -m json.tool` clean) and Prometheus
// text exposition (metric names sanitised to [a-zA-Z0-9_:]).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace powerlens::obs {

inline constexpr std::size_t kMetricShards = 16;

namespace detail {
// Stable shard slot of the calling thread, < kMetricShards.
std::size_t thread_shard() noexcept;
}  // namespace detail

// Monotonically increasing value.
class Counter {
 public:
  void inc(double v = 1.0) noexcept {
    shards_[detail::thread_shard()].v.fetch_add(v,
                                                std::memory_order_relaxed);
  }
  double value() const noexcept {
    double total = 0.0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  struct alignas(64) Shard {
    std::atomic<double> v{0.0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

// Last-writer-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept { v_.fetch_add(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> v_{0.0};
};

// Fixed-bucket histogram with Prometheus `le` semantics: an observation v
// lands in the first bucket whose upper bound satisfies v <= bound; values
// above the last bound land in the implicit +Inf bucket. NaN and infinite
// observations are rejected (counted, never recorded) — a single NaN would
// otherwise poison the sum forever.
class Histogram {
 public:
  void observe(double v) noexcept;

  struct Snapshot {
    std::vector<double> bounds;         // ascending upper bounds
    std::vector<std::uint64_t> counts;  // bounds.size() + 1 (+Inf last)
    double sum = 0.0;
    std::uint64_t count = 0;

    // Linear-interpolated quantile estimate, q in [0, 1] (clamped). NaN
    // when the snapshot is empty; observations in the +Inf bucket resolve
    // to the last finite bound.
    double quantile(double q) const noexcept;
  };
  Snapshot snapshot() const;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  // Non-finite observations dropped since construction.
  std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;
  std::atomic<std::uint64_t> rejected_{0};
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;
    std::atomic<double> sum{0.0};
    std::atomic<std::uint64_t> n{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returns the metric registered under `name`, creating it on first use.
  // Throws std::logic_error if `name` is already registered as a different
  // kind. Re-registration ignores `help`/`bounds` and returns the original.
  Counter& counter(std::string_view name, std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view help = {});
  Histogram& histogram(std::string_view name, std::span<const double> bounds,
                       std::string_view help = {});

  void write_json(std::ostream& os) const;
  void write_prometheus(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry(std::string_view name, Kind kind, std::string_view help,
               std::span<const double> bounds);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

// The process-wide registry all built-in instrumentation reports into.
MetricsRegistry& global_metrics();

// Default latency buckets (seconds) for pipeline-phase histograms.
std::span<const double> default_seconds_buckets() noexcept;

// Default buckets (milliseconds) for sub-millisecond phase timers, where
// the seconds buckets would collapse everything into the first bin.
std::span<const double> default_milliseconds_buckets() noexcept;

// The repo's metric naming scheme: powerlens_<subsystem>_<name>_<unit>
// with subsystem in {offline, train, sim, serve, plan, fault, obs} and a
// trailing unit token in {total, seconds, ms, joules, images, ratio,
// count, depth, bytes}; all tokens [a-z0-9]. Names outside the powerlens_
// prefix (tests, ad-hoc tools) are exempt. Registration of an invalid
// powerlens_* name throws std::invalid_argument so drift is caught at the
// first register, not in a dashboard review.
bool valid_metric_name(std::string_view name) noexcept;

// Escapes a value for use inside a Prometheus label ( \ -> \\, " -> \",
// newline -> \n ) per the text-exposition spec.
std::string prometheus_escape_label(std::string_view value);

}  // namespace powerlens::obs
