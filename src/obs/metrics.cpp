#include "obs/metrics.hpp"

#include "obs/json.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace powerlens::obs {

namespace detail {

std::size_t thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return slot;
}

}  // namespace detail

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be ascending");
  }
  for (Shard& s : shards_) {
    // Value-initialised -> all bucket counts start at zero.
    s.counts = std::make_unique<std::atomic<std::uint64_t>[]>(
        bounds_.size() + 1);
  }
}

void Histogram::observe(double v) noexcept {
  if (!std::isfinite(v)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  Shard& s = shards_[detail::thread_shard()];
  s.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  s.n.fetch_add(1, std::memory_order_relaxed);
}

double Histogram::Snapshot::quantile(double q) const noexcept {
  if (count == 0 || bounds.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    const std::uint64_t in_bucket = counts[b];
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) >= target && in_bucket > 0) {
      // Interpolate inside the bucket. The first bucket's lower edge is 0
      // for all-positive bounds and the bound itself when bounds go
      // negative (nothing below it to interpolate towards).
      const double upper = bounds[b];
      const double lower = b == 0 ? std::min(0.0, bounds[0]) : bounds[b - 1];
      const double before = static_cast<double>(cumulative - in_bucket);
      const double frac = std::clamp(
          (target - before) / static_cast<double>(in_bucket), 0.0, 1.0);
      return lower + (upper - lower) * frac;
    }
  }
  // Everything at or past the requested rank sits in the +Inf bucket; the
  // last finite bound is the best defensible answer.
  return bounds.back();
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      snap.counts[b] += s.counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
    snap.count += s.n.load(std::memory_order_relaxed);
  }
  return snap;
}

bool valid_metric_name(std::string_view name) noexcept {
  constexpr std::string_view kPrefix = "powerlens_";
  if (name.substr(0, kPrefix.size()) != kPrefix) {
    // Names outside the repo's namespace (tests, ad-hoc tools) are only
    // held to basic character hygiene.
    if (name.empty()) return false;
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      if (!ok) return false;
    }
    return true;
  }
  // powerlens_<subsystem>_<name...>_<unit>, all tokens [a-z0-9]+.
  static constexpr std::string_view kSubsystems[] = {
      "offline", "train", "sim", "serve", "plan", "fault", "obs", "adapt"};
  static constexpr std::string_view kUnits[] = {
      "total", "seconds", "ms",    "joules", "images",
      "ratio", "count",   "depth", "bytes"};
  std::vector<std::string_view> tokens;
  std::string_view rest = name.substr(kPrefix.size());
  while (!rest.empty()) {
    const std::size_t cut = rest.find('_');
    const std::string_view token =
        cut == std::string_view::npos ? rest : rest.substr(0, cut);
    if (token.empty()) return false;  // double underscore
    for (const char c : token) {
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))) return false;
    }
    tokens.push_back(token);
    if (cut == std::string_view::npos) break;
    rest = rest.substr(cut + 1);
    if (rest.empty()) return false;  // trailing underscore
  }
  if (tokens.size() < 2) return false;  // need a subsystem and a unit
  const auto in = [](std::span<const std::string_view> set,
                     std::string_view token) {
    return std::find(set.begin(), set.end(), token) != set.end();
  };
  return in(kSubsystems, tokens.front()) && in(kUnits, tokens.back());
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               Kind kind,
                                               std::string_view help,
                                               std::span<const double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("MetricsRegistry: '" + std::string(name) +
                             "' already registered as a different kind");
    }
    return it->second;
  }
  if (!valid_metric_name(name)) {
    throw std::invalid_argument(
        "MetricsRegistry: '" + std::string(name) +
        "' violates the powerlens_<subsystem>_<name>_<unit> naming scheme");
  }
  Entry e;
  e.kind = kind;
  e.help = std::string(help);
  switch (kind) {
    case Kind::kCounter:
      e.counter.reset(new Counter());
      break;
    case Kind::kGauge:
      e.gauge.reset(new Gauge());
      break;
    case Kind::kHistogram:
      e.histogram.reset(
          new Histogram(std::vector<double>(bounds.begin(), bounds.end())));
      break;
  }
  return entries_.emplace(std::string(name), std::move(e)).first->second;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  return *entry(name, Kind::kCounter, help, {}).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  return *entry(name, Kind::kGauge, help, {}).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds,
                                      std::string_view help) {
  return *entry(name, Kind::kHistogram, help, bounds).histogram;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (e.kind != Kind::kCounter) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": ";
    append_json_number(out, e.counter->value());
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, e] : entries_) {
    if (e.kind != Kind::kGauge) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": ";
    append_json_number(out, e.gauge->value());
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, e] : entries_) {
    if (e.kind != Kind::kHistogram) continue;
    out += first ? "\n" : ",\n";
    first = false;
    const Histogram::Snapshot snap = e.histogram->snapshot();
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": {\"bounds\": [";
    for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      append_json_number(out, snap.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      if (i > 0) out += ", ";
      append_json_number(out, static_cast<double>(snap.counts[i]));
    }
    out += "], \"sum\": ";
    append_json_number(out, snap.sum);
    out += ", \"count\": ";
    append_json_number(out, static_cast<double>(snap.count));
    out += "}";
  }
  out += first ? "}" : "\n  }";
  out += "\n}\n";
  os << out;
}

namespace {

std::string prom_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

// HELP text escaping per the exposition spec: backslash and newline only.
// A raw newline would otherwise split the comment and corrupt the scrape.
std::string prom_escape_help(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string prometheus_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, e] : entries_) {
    const std::string pname = prom_name(name);
    if (!e.help.empty()) {
      out += "# HELP " + pname + " " + prom_escape_help(e.help) + "\n";
    }
    switch (e.kind) {
      case Kind::kCounter:
        out += "# TYPE " + pname + " counter\n";
        out += pname + " " + json_number(e.counter->value()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + pname + " gauge\n";
        out += pname + " " + json_number(e.gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + pname + " histogram\n";
        const Histogram::Snapshot snap = e.histogram->snapshot();
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < snap.bounds.size(); ++b) {
          cumulative += snap.counts[b];
          out += pname + "_bucket{le=\"" +
                 prometheus_escape_label(json_number(snap.bounds[b])) +
                 "\"} " + std::to_string(cumulative) + "\n";
        }
        cumulative += snap.counts.back();
        out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
               "\n";
        out += pname + "_sum " + json_number(snap.sum) + "\n";
        out += pname + "_count " + std::to_string(snap.count) + "\n";
        break;
      }
    }
  }
  os << out;
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry registry;
  return registry;
}

std::span<const double> default_seconds_buckets() noexcept {
  static constexpr double kBuckets[] = {0.001, 0.003, 0.01, 0.03, 0.1,
                                        0.3,   1.0,   3.0,  10.0, 30.0};
  return kBuckets;
}

std::span<const double> default_milliseconds_buckets() noexcept {
  static constexpr double kBuckets[] = {0.01, 0.03, 0.1,  0.3,   1.0,
                                        3.0,  10.0, 30.0, 100.0, 300.0};
  return kBuckets;
}

}  // namespace powerlens::obs
