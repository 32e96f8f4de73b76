// Predicted-vs-observed accounting: how far did the serving layer's static
// cost predictions drift from what the (faulty, throttling) simulated
// hardware actually delivered?
//
// Every scored request contributes one latency and one energy *relative
// residual*, r = (observed - predicted) / predicted. Residuals are keyed
// twice: per (policy, model) — the operator's view — and per (policy,
// model, plan signature) — the future re-planning loop's view, since a
// drifting signature is the plan that needs recomputing. Each series keeps
// a count, running mean / mean-absolute error, a max, a fixed-bucket
// histogram of r, and an EWMA of r; |EWMA| crossing `drift_threshold`
// flags the key as drifting (sticky clocks and thermal throttling push
// observed latency/energy persistently above prediction, which is exactly
// the signal EWMA isolates from one-off fault noise).
//
// record() is mutex-guarded and must be called in deterministic order for
// deterministic snapshots — the server's single-threaded fold does so in
// task order, which makes json() byte-identical at any worker count.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace powerlens::obs {

class Residuals {
 public:
  struct Config {
    double ewma_alpha = 0.2;       // weight of the newest residual
    double drift_threshold = 0.3;  // |EWMA| above this flags drift
  };

  // Ascending upper bounds of the relative-error histogram; the implicit
  // last bucket is +Inf. Symmetric around 0 so under- and over-prediction
  // resolve equally.
  static std::span<const double> bucket_bounds() noexcept;
  static constexpr std::size_t kBuckets = 13;  // bounds (12) + overflow

  // One residual series (latency or energy) for one key.
  struct Series {
    std::uint64_t count = 0;
    double sum = 0.0;      // sum of r
    double sum_abs = 0.0;  // sum of |r|
    double max_abs = 0.0;
    double ewma = 0.0;  // seeded with the first residual
    std::array<std::uint64_t, kBuckets> hist{};

    double mean() const noexcept { return count > 0 ? sum / count : 0.0; }
    double mean_abs() const noexcept {
      return count > 0 ? sum_abs / count : 0.0;
    }
  };
  struct Stats {
    Series latency;
    Series energy;
  };

  Residuals();
  explicit Residuals(Config config);
  Residuals(const Residuals&) = delete;
  Residuals& operator=(const Residuals&) = delete;

  // Scores one served request. Non-finite or non-positive predictions make
  // that dimension unscorable and are skipped (never clamped into the
  // stats). `plan_signature` 0 means "no plan" — the per-signature key is
  // skipped, the per-model key still updates.
  void record(std::string_view policy, std::string_view model,
              std::uint64_t plan_signature, double predicted_time_s,
              double observed_time_s, double predicted_energy_j,
              double observed_energy_j);

  // Copies of one key's stats (nullopt-like: count == 0 when absent).
  Stats by_model(std::string_view policy, std::string_view model) const;

  std::uint64_t scored() const;
  // Model- and signature-level drift flags, counted separately: a drifting
  // model key and its plan-signature keys are different trigger surfaces
  // for the adaptation layer (the model-level series also absorbs
  // fallen-back requests), so summing them double-counted one drift.
  struct DriftCounts {
    std::size_t models = 0;      // drifting (policy, model) series
    std::size_t signatures = 0;  // drifting (policy, model, signature) series
  };
  DriftCounts drift_counts() const;
  const Config& config() const noexcept { return config_; }

  // One key's committed state, structured so the adaptation layer never
  // parses key strings. signature == 0 marks a model-level key.
  struct KeySnapshot {
    std::string policy;
    std::string model;
    std::uint64_t signature = 0;
    Stats stats;
    bool drifting = false;  // |EWMA| over threshold on latency or energy
  };
  // Every key under the lock in one deterministic pass: model-level keys
  // first, then signature-level, each in lexicographic key order. This is
  // the epoch-boundary commit point of the serving adaptation loop — all
  // re-plan decisions of an epoch derive from one such snapshot, never from
  // the live (mutating) maps.
  std::vector<KeySnapshot> snapshot() const;

  // Deterministic JSON snapshot: keys in lexicographic order, every number
  // a pure function of the record() call sequence.
  void write_json(std::ostream& os) const;
  std::string json() const;

  void clear();

 private:
  void update(Stats& stats, double latency_residual, bool score_latency,
              double energy_residual, bool score_energy);
  bool drifting(const Stats& stats) const noexcept;

  Config config_;
  mutable std::mutex mu_;
  Stats overall_;
  std::uint64_t scored_ = 0;
  // Keys render as "policy/model" and "policy/model/0x<sig>"; std::map
  // keeps snapshot order deterministic.
  std::map<std::string, Stats> by_model_;
  std::map<std::string, Stats> by_signature_;
};

// The process-wide sink the serving layer scores into by default.
Residuals& default_residuals();

}  // namespace powerlens::obs
