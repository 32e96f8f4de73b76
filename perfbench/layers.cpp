// Per-layer metrics (--trace 1): calls into each layer's public functions,
// timed from here, plus counters the program already exports. Every
// measurement runs on the workload's own graphs and stream.
#include "bench.hpp"

#include "baselines/ondemand.hpp"
#include "clustering/cluster.hpp"
#include "core/dataset_gen.hpp"
#include "fault/fault_injector.hpp"
#include "features/depthwise.hpp"
#include "features/global.hpp"
#include "hw/cost_table.hpp"
#include "hw/sim_engine.hpp"
#include "linalg/workspace.hpp"
#include "obs/metrics.hpp"
#include "serve/signature.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

namespace perfbench {
namespace {

using pl::core::OptimizationPlan;
using pl::serve::ServeReport;

// Calls `fn` until `budget_s` has passed and at least `min_reps` calls ran.
void repeat(double budget_s, std::size_t min_reps,
            const std::function<void()>& fn) {
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0; rep < min_reps || seconds_since(start) < budget_s;
       ++rep) {
    fn();
  }
}

// Keeps timed results observable so the calls producing them stay.
volatile std::uint64_t g_sink = 0;

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double per_request(double value, const ServeReport& r) {
  return value / static_cast<double>(r.total_tasks);
}

// The five powerlens_plan_phase_*_ms histograms optimize() feeds.
struct PhaseHistograms {
  static constexpr const char* kNames[] = {"predict", "cost_table",
                                           "distance", "cluster", "decide"};
  std::vector<pl::obs::Histogram*> hists;
  PhaseHistograms() {
    for (const char* name : kNames) {
      hists.push_back(&pl::obs::global_metrics().histogram(
          std::string("powerlens_plan_phase_") + name + "_ms",
          pl::obs::default_milliseconds_buckets()));
    }
  }
  // (sum ms, count) per phase.
  std::vector<std::pair<double, std::uint64_t>> read() const {
    std::vector<std::pair<double, std::uint64_t>> out;
    for (const pl::obs::Histogram* h : hists) {
      const pl::obs::Histogram::Snapshot s = h->snapshot();
      out.emplace_back(s.sum, s.count);
    }
    return out;
  }
};

// Re-runs the simulator work of a served report outside the server: every
// attempt of every served request, with the same fault stream, schedule
// and governor the serving worker used. Plans are the static ones, so under
// adaptation a re-planned request replays its original schedule (the
// simulator's cost per pass does not depend on the levels it is given).
struct Replay {
  double energy_j = 0.0;
  std::size_t passes = 0;
};
Replay replay(const Deployment& d, const ServeReport& r,
              const std::vector<OptimizationPlan>& plans) {
  pl::hw::SimEngine engine(d.platform);
  pl::baselines::OndemandGovernor governor;
  const pl::fault::FaultSpec& faults = d.config.faults;
  Replay out;
  for (const pl::serve::RequestOutcome& o : r.outcomes) {
    const pl::serve::Task& task = d.tasks.at(o.task_id);
    if (task.id != o.task_id) throw std::logic_error("replay: task order");
    const pl::dnn::Graph& graph = d.models[task.model_index].graph;
    for (std::size_t a = 0; a < o.attempts.size(); ++a) {
      pl::hw::RunPolicy policy = engine.default_policy();
      std::optional<pl::fault::FaultInjector> injector;
      if (faults.active()) {
        injector.emplace(faults, pl::fault::request_fault_seed(
                                     faults.seed, task.id, a));
        policy.faults = &*injector;
      }
      if (!o.attempts[a].pinned) {
        policy.schedule = &plans[task.model_index].schedule;
        policy.governor = &governor;
      }
      out.energy_j += engine.run(graph, task.passes, policy).energy_j;
      out.passes += static_cast<std::size_t>(task.passes);
    }
  }
  return out;
}

// A fresh server with every solo plan resident.
ServerHandle resident_server(const Deployment& d, std::size_t workers,
                             const std::vector<OptimizationPlan>& plans) {
  ServerHandle h = make_server(d, workers);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    h.server->plan_cache().preload(
        pl::serve::graph_signature(d.models[i].graph),
        std::make_shared<const OptimizationPlan>(plans[i]));
  }
  return h;
}

}  // namespace

void measure_layers(Deployment& d, const CheckResult& ref,
                    const Options& opts, Ledger& ledger, Metrics& out) {
  const std::string w = workload_name(d.workload);
  const double budget = opts.seconds;
  const std::vector<const pl::dnn::Graph*> graphs = plan_population(d);
  const std::size_t n = graphs.size();
  const pl::core::PowerLensConfig& fc = d.framework->config();

  // ---- serve: counters of one serve in the timed form ----
  const TimedServe t = timed_serve(d, kWorkers);
  const ServeReport& r = t.report;
  ledger.record(same_simulation(r, ref.reference),
                w + ": traced serve matches the checked reference");
  const double lookups =
      static_cast<double>(r.plan_cache_hits + r.plan_cache_misses);
  out.add("serve.plan_cache.hit_ratio",
          lookups > 0 ? static_cast<double>(r.plan_cache_hits) / lookups : 0.0,
          "ratio");

  // ---- serve.plan_cache / serve.signature: lookups of resident graphs ----
  {
    pl::serve::PlanCache cache;
    for (std::size_t i = 0; i < n; ++i) {
      cache.preload(pl::serve::graph_signature(*graphs[i]),
                    std::make_shared<const OptimizationPlan>(ref.plans[i]));
    }
    const pl::serve::PlanCache::PlanFactory never =
        [](const pl::dnn::Graph&) -> OptimizationPlan {
      throw std::logic_error("resident graph missed the plan cache");
    };
    std::vector<double> hit_us;
    std::vector<double> sig_us;
    bool hits_ok = true;
    repeat(0.05 * budget, 5, [&] {
      const std::uint64_t misses = cache.misses();
      hit_us.push_back(1e6 / static_cast<double>(n) * time_call([&] {
        for (const pl::dnn::Graph* g : graphs) {
          hits_ok = hits_ok && cache.get_or_compute(*g, never) != nullptr;
        }
      }));
      hits_ok = hits_ok && cache.misses() == misses;
      sig_us.push_back(1e6 / static_cast<double>(n) * time_call([&] {
        for (const pl::dnn::Graph* g : graphs) {
          g_sink = pl::serve::graph_signature(*g);
        }
      }));
    });
    ledger.record(hits_ok, w + ": resident lookups all hit");
    out.add("serve.plan_cache.hit_us", median(hit_us), "us");
    out.add("serve.signature_us", median(sig_us), "us");
  }

  // ---- serve self time and the SimEngine pass it wraps ----
  {
    std::vector<double> serve_s;
    std::vector<double> replay_s;
    Replay rp;
    bool same = true;
    repeat(0.15 * budget, 3, [&] {
      ServerHandle h = resident_server(d, 1, ref.plans);
      const Clock::time_point start = Clock::now();
      const ServeReport one = h.server->serve(d.tasks);
      serve_s.push_back(seconds_since(start));
      same = same && same_simulation(one, ref.reference);
      replay_s.push_back(time_call([&] { rp = replay(d, one, ref.plans); }));
    });
    ledger.record(same, w + ": 1-worker resident serve matches the reference");
    if (!d.config.adapt_enabled) {
      ledger.record(rp.energy_j == r.energy_j,
                    w + ": SimEngine replay reproduces the served energy");
    }
    out.add("serve.self_us_per_req",
            1e6 * per_request(median(serve_s) - median(replay_s), r), "us");
    out.add("hw.sim_run_us_per_pass",
            1e6 * median(replay_s) / static_cast<double>(rp.passes), "us");
  }

  // ---- serve.worker_scaling: 4 vs 1 workers, interleaved ----
  {
    std::vector<double> rps1;
    std::vector<double> rps4;
    bool same = true;
    repeat(0.2 * budget, 3, [&] {
      for (const std::size_t workers : {std::size_t{1}, kWorkers}) {
        const TimedServe s = timed_serve(d, workers);
        same = same && same_simulation(s.report, ref.reference);
        (workers == 1 ? rps1 : rps4)
            .push_back(static_cast<double>(completed(s.report)) / s.host_s);
      }
    });
    ledger.record(same, w + ": 1- and 4-worker serves match the reference");
    out.add("serve.worker_scaling", median(rps4) / median(rps1), "ratio");
  }
  out.add("serve.adapt.replans", static_cast<double>(t.adapt_replans),
          "count");
  out.add("serve.adapt.epochs", static_cast<double>(t.adapt_epochs), "count");

  // Sizing check: the simulated p99 of the first half of the stream against
  // the whole. An open-loop stream below capacity reads ~1; a closed-loop
  // batch reads ~2 by construction (its backlog is the batch).
  {
    std::vector<pl::serve::Task> half(d.tasks.begin(),
                                      d.tasks.begin() + d.tasks.size() / 2);
    ServerHandle h = resident_server(d, kWorkers, ref.plans);
    const ServeReport hr = h.server->serve(half);
    out.add("serve.p99_growth_ratio", r.latency_p99_s / hr.latency_p99_s,
            "ratio");
  }

  // ---- hw and fault: report counts ----
  out.add("hw.dvfs_transitions_per_req",
          per_request(static_cast<double>(r.dvfs_transitions), r), "count/req");
  out.add("hw.device_utilization", r.busy_s / r.makespan_s, "ratio");
  out.add("fault.retries_per_req",
          per_request(static_cast<double>(r.retries), r), "count/req");
  out.add("fault.fallback_ratio",
          per_request(static_cast<double>(r.fallbacks), r), "ratio");

  // ---- plan stages, timed from outside, and solo optimize() ----
  // The outside pipeline mirrors optimize(): depthwise features, the
  // one-plane cost table, the distance blend with its ε-adjacency, DBSCAN,
  // then cluster post-processing and the minimum-duration merge. Its view
  // must equal the plan's.
  {
    const PhaseHistograms phases;
    const auto phase_before = phases.read();
    std::vector<double> feat_us, cost_us, dist_us, dbscan_us, post_us;
    std::vector<double> plan_ms, stage_ms;
    pl::linalg::Workspace ws;
    bool same = true;
    const std::size_t cpu_levels[] = {d.platform.max_cpu_level()};
    repeat(0.2 * budget, 1, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        const pl::dnn::Graph& g = *graphs[i];
        const pl::clustering::ClusteringHyperparams hp = ref.plans[i].hyper;
        pl::linalg::Matrix table;
        const double dw = time_call([&] {
          table = pl::features::DepthwiseFeatureExtractor::extract(g);
        });
        const double gl = time_call(
            [&] { (void)pl::features::GlobalFeatureExtractor::extract(g); });
        std::optional<pl::hw::CostTable> costs;
        const double ct = time_call(
            [&] { costs.emplace(d.platform, g.layers(), cpu_levels); });
        pl::linalg::Workspace::Lease dist = ws.lease(0, 0);
        pl::clustering::EpsAdjacency adj;
        const double ds = time_call([&] {
          pl::clustering::power_distances_adj_into(table, fc.dataset.distance,
                                                   hp.eps, ws, *dist, adj);
        });
        std::vector<int> labels;
        const double db = time_call([&] {
          labels = pl::clustering::dbscan(adj, {hp.eps, hp.min_pts});
        });
        pl::clustering::PowerView view;
        const double pp = time_call([&] {
          const double min_s =
              pl::core::feasible_block_duration(*costs, d.platform);
          view = pl::core::enforce_min_block_duration(
              *costs,
              pl::clustering::process_clusters(
                  labels, *dist, {.min_block_layers = hp.min_pts}),
              d.platform, min_s);
        });
        same = same && view == ref.plans[i].view;

        const auto before = phases.read();
        OptimizationPlan plan;
        const double op =
            time_call([&] { plan = d.framework->optimize(g, &ws); });
        const auto after = phases.read();
        same = same && plan == ref.plans[i];
        // predict (global features + hyper MLP) and decide come from the
        // program's own phase histograms; the other stages from above.
        const double predict_ms = after[0].first - before[0].first;
        const double decide_ms = after[4].first - before[4].first;

        feat_us.push_back(1e6 * (dw + gl));
        cost_us.push_back(1e6 * ct);
        dist_us.push_back(1e6 * ds);
        dbscan_us.push_back(1e6 * db);
        post_us.push_back(1e6 * pp);
        plan_ms.push_back(1e3 * op);
        stage_ms.push_back(1e3 * (dw + ct + ds + db + pp) + predict_ms +
                           decide_ms);
      }
    });
    ledger.record(same, w + ": outside stage pipeline reproduces the plans");
    out.add("hw.cost_table_us", mean(cost_us), "us");
    out.add("features.extract_us", mean(feat_us), "us");
    out.add("clustering.distance_us_p50", quantile(dist_us, 0.50), "us");
    out.add("clustering.distance_us_p99", quantile(dist_us, 0.99), "us");
    out.add("clustering.dbscan_us", mean(dbscan_us), "us");
    out.add("clustering.postprocess_us", mean(post_us), "us");
    const auto phase_after = phases.read();
    for (std::size_t p = 0; p < phase_after.size(); ++p) {
      const double count = static_cast<double>(phase_after[p].second -
                                               phase_before[p].second);
      out.add(std::string("core.plan_phase.") + PhaseHistograms::kNames[p] +
                  "_ms",
              (phase_after[p].first - phase_before[p].first) / count, "ms");
    }
    // The stages must add up to the whole: p50 of the per-graph stage sums
    // over p50 of the same graphs' optimize() times. Stated tolerance:
    // within 0.8-1.2.
    const double ratio = quantile(stage_ms, 0.5) / quantile(plan_ms, 0.5);
    out.add("core.plan_stage_sum_ratio", ratio, "ratio");
    if (ratio < 0.8 || ratio > 1.2) {
      std::fprintf(stderr,
                   "%s: plan stages sum to %.3f of plan_ms_p50, outside "
                   "0.8-1.2\n",
                   w.c_str(), ratio);
    }
  }

  // ---- core: batched and re-planning paths ----
  {
    pl::linalg::Workspace ws;
    std::vector<double> ms_per_plan;
    bool same = true;
    repeat(0.1 * budget, 2, [&] {
      std::vector<OptimizationPlan> plans;
      ms_per_plan.push_back(1e3 / static_cast<double>(n) * time_call([&] {
        for (std::size_t begin = 0; begin < n; begin += 8) {
          for (OptimizationPlan& p : d.framework->optimize_batch(
                   std::span(graphs).subspan(begin, std::min<std::size_t>(
                                                        8, n - begin)),
                   &ws)) {
            plans.push_back(std::move(p));
          }
        }
      }));
      same = same && plans == ref.plans;
    });
    ledger.record(same, w + ": optimize_batch plans equal the solo plans");
    out.add("core.optimize_batch_ms_per_plan", median(ms_per_plan), "ms");
  }
  {
    // replan_batch over the zoo (the first 12 deployed models) with fixed
    // signals: 25% slower and 10% costlier than predicted, no thermal cap.
    constexpr std::size_t kZoo = 12;
    std::vector<pl::core::ReplanRequest> requests(kZoo);
    for (std::size_t i = 0; i < kZoo; ++i) {
      requests[i].graph = graphs[i];
      requests[i].base = &ref.plans[i];
      requests[i].signals.time_scale = 1.25;
      requests[i].signals.energy_scale = 1.1;
      requests[i].signals.inter_pass_gap_s =
          pl::hw::RunPolicy{}.inter_pass_gap_s;
    }
    std::vector<double> us;
    std::vector<OptimizationPlan> first;
    bool same = true;
    repeat(0.05 * budget, 5, [&] {
      std::vector<OptimizationPlan> plans;
      us.push_back(1e6 / static_cast<double>(kZoo) * time_call([&] {
        plans = d.framework->replan_batch(requests);
      }));
      if (first.empty()) first = plans;
      same = same && plans == first;
    });
    ledger.record(same, w + ": replan_batch is deterministic");
    out.add("core.replan_us_per_plan", median(us), "us");
  }

  // ---- core + nn: the offline phase's two parts, as train() runs them ----
  {
    const pl::core::PowerLens fw(d.platform, framework_config());
    const pl::core::PowerLensConfig& cfg = fw.config();
    pl::core::GeneratedDatasets data;
    out.add("core.dataset_gen_s", time_call([&] {
              data = pl::core::generate_datasets(d.platform, cfg.dataset);
            }),
            "s");
    pl::core::PredictionModel hyper;
    pl::core::PredictionModel decision;
    out.add("nn.fit_s", time_call([&] {
              hyper.fit(data.dataset_a, cfg.dataset.grid.size(),
                        cfg.train_hyper, cfg.model_seed, cfg.hidden_units);
              decision.fit(data.dataset_b, d.platform.gpu_levels(),
                           cfg.train_decision, cfg.model_seed + 1,
                           cfg.hidden_units);
            }),
            "s");
    ledger.record(hyper.trained() && decision.trained(),
                  w + ": offline models trained");
  }

  // ---- obs: journal + residual overhead, interleaved on/off pairs ----
  {
    std::vector<double> overhead;
    std::size_t pair = 0;
    bool same = true;
    repeat(0.2 * budget, 5, [&] {
      double on = 0.0;
      double off = 0.0;
      for (int k = 0; k < 2; ++k) {
        const bool instrumented = (pair + k) % 2 == 0;  // alternate order
        const TimedServe s = timed_serve(d, kWorkers, instrumented);
        same = same && same_simulation(s.report, ref.reference);
        (instrumented ? on : off) = s.host_s;
      }
      overhead.push_back(on / off - 1.0);
      ++pair;
    });
    ledger.record(same, w + ": instrumented and bare serves match");
    out.add("obs.journal_overhead_ratio", median(overhead), "ratio");
    out.add("obs.journal_overhead_ratio_q1", quantile(overhead, 0.25), "ratio");
    out.add("obs.journal_overhead_ratio_q3", quantile(overhead, 0.75), "ratio");
  }
  out.add("obs.journal_records_per_req",
          per_request(static_cast<double>(t.journal_records), r), "count/req");
  out.add("linalg.calib_gemm_ms", calib_gemm_ms(), "ms");
}

}  // namespace perfbench
