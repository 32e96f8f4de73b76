#include "core/powerlens.hpp"

#include "features/depthwise.hpp"
#include "hw/analytic.hpp"
#include "hw/cost_table.hpp"
#include "nn/serialize.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <locale>
#include <stdexcept>

namespace powerlens::core {

namespace {

// Wall-clock phase timer feeding a powerlens_plan_phase_*_ms histogram on
// destruction. Callers hoist the histogram reference into a function-local
// static so the hot path never touches the registry mutex.
class PhaseTimer {
 public:
  explicit PhaseTimer(obs::Histogram& hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    hist_.observe(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  obs::Histogram& hist_;
  std::chrono::steady_clock::time_point start_;
};

obs::Histogram& phase_predict_hist() {
  static obs::Histogram& h = obs::global_metrics().histogram(
      "powerlens_plan_phase_predict_ms", obs::default_milliseconds_buckets(),
      "plan compute: global features + hyperparameter prediction");
  return h;
}
obs::Histogram& phase_cost_table_hist() {
  static obs::Histogram& h = obs::global_metrics().histogram(
      "powerlens_plan_phase_cost_table_ms",
      obs::default_milliseconds_buckets(),
      "plan compute: analytic cost-table fill");
  return h;
}
obs::Histogram& phase_distance_hist() {
  static obs::Histogram& h = obs::global_metrics().histogram(
      "powerlens_plan_phase_distance_ms", obs::default_milliseconds_buckets(),
      "plan compute: depthwise features + power-distance blend");
  return h;
}
obs::Histogram& phase_cluster_hist() {
  static obs::Histogram& h = obs::global_metrics().histogram(
      "powerlens_plan_phase_cluster_ms", obs::default_milliseconds_buckets(),
      "plan compute: DBSCAN + contiguity and feasibility postprocess");
  return h;
}
obs::Histogram& phase_decide_hist() {
  static obs::Histogram& h = obs::global_metrics().histogram(
      "powerlens_plan_phase_decide_ms", obs::default_milliseconds_buckets(),
      "plan compute: per-block frequency decisions + schedule emission");
  return h;
}

// Fills the plan's static per-pass cost prediction from the emitted
// schedule (MAXN initial levels — the serving engine's boot state).
void predict_plan_cost(const hw::Platform& platform, const dnn::Graph& graph,
                       OptimizationPlan& plan) {
  const hw::BlockCost cost =
      hw::schedule_cost(platform, graph.layers(), plan.schedule,
                        platform.max_gpu_level(), platform.max_cpu_level());
  plan.predicted_pass_time_s = cost.time_s;
  plan.predicted_pass_energy_j = cost.energy_j;
}

}  // namespace

PredictionModel::FitSummary PredictionModel::fit(
    const nn::Dataset& data, std::size_t num_classes,
    const nn::TrainConfig& train_config, std::uint64_t seed,
    std::size_t hidden) {
  data.validate();
  if (data.size() < 10) {
    throw std::invalid_argument("PredictionModel::fit: dataset too small");
  }

  scaler_structural_.fit(data.structural);
  scaler_statistics_.fit(data.statistics);
  nn::Dataset scaled{scaler_structural_.transform(data.structural),
                     scaler_statistics_.transform(data.statistics),
                     data.labels};

  const nn::DatasetSplit split = nn::split_dataset(scaled, seed);

  nn::TwoStageMlpConfig mc;
  mc.structural_dim = data.structural.cols();
  mc.statistics_dim = data.statistics.cols();
  mc.hidden1 = hidden;
  mc.hidden2 = hidden;
  mc.hidden3 = hidden;
  mc.num_classes = num_classes;
  mc.seed = seed;
  mlp_.emplace(mc);

  FitSummary s;
  s.report = nn::train(*mlp_, split.train, split.val, train_config);
  s.test_accuracy = nn::accuracy(*mlp_, split.test);
  s.test_mean_level_error = nn::mean_level_error(*mlp_, split.test);
  return s;
}

int PredictionModel::predict(const features::GlobalFeatures& features,
                             linalg::Workspace* ws) const {
  if (!trained()) {
    throw std::logic_error("PredictionModel: predict before fit");
  }
  // Lease the two feature rows, scale them in place (transform_into is
  // elementwise, so aliasing input and output is fine), and run the
  // single-sample MLP forward on leased activations.
  linalg::Workspace local_ws;
  linalg::Workspace& w = ws != nullptr ? *ws : local_ws;
  linalg::Workspace::Lease xs = w.lease(1, features.structural.size());
  linalg::Workspace::Lease xt = w.lease(1, features.statistics.size());
  for (std::size_t c = 0; c < features.structural.size(); ++c) {
    (*xs)(0, c) = features.structural[c];
  }
  for (std::size_t c = 0; c < features.statistics.size(); ++c) {
    (*xt)(0, c) = features.statistics[c];
  }
  scaler_structural_.transform_into(*xs, *xs);
  scaler_statistics_.transform_into(*xt, *xt);
  return mlp_->predict_one(*xs, *xt, w);
}

void PredictionModel::save(std::ostream& os) const {
  if (!trained()) {
    throw std::logic_error("PredictionModel: save before fit");
  }
  scaler_structural_.save(os);
  scaler_statistics_.save(os);
  mlp_->save(os);
}

nn::TrainReport PredictionModel::refit(const nn::Dataset& rows,
                                       const nn::TrainConfig& config,
                                       std::uint64_t seed) {
  if (!trained()) {
    throw std::logic_error("PredictionModel: refit before fit");
  }
  rows.validate();
  const nn::Dataset scaled{scaler_structural_.transform(rows.structural),
                           scaler_statistics_.transform(rows.statistics),
                           rows.labels};
  return nn::refit(*mlp_, scaled, config, seed);
}

PredictionModel PredictionModel::load(std::istream& is) {
  PredictionModel m;
  m.scaler_structural_ = linalg::StandardScaler::load(is);
  m.scaler_statistics_ = linalg::StandardScaler::load(is);
  m.mlp_.emplace(nn::TwoStageMlp::load(is));
  return m;
}

PowerLens::PowerLens(const hw::Platform& platform, PowerLensConfig config)
    : platform_(&platform), config_(std::move(config)) {
  platform.validate();
  if (config_.dataset.cpu_level_for_labels == 0) {
    config_.dataset.cpu_level_for_labels = platform.max_cpu_level();
  }
  // One knob drives the whole offline phase unless a sub-config overrides.
  if (config_.dataset.parallel.num_threads == 0) {
    config_.dataset.parallel = config_.parallel;
  }
  if (config_.train_hyper.parallel.num_threads == 0) {
    config_.train_hyper.parallel = config_.parallel;
  }
  if (config_.train_decision.parallel.num_threads == 0) {
    config_.train_decision.parallel = config_.parallel;
  }
}

bool PowerLens::trained() const noexcept {
  return hyper_model_.trained() && decision_model_.trained();
}

TrainingSummary PowerLens::train() {
  obs::TraceWriter& tw = obs::default_trace();
  obs::ScopedSpan train_span(tw, "powerlens_train", "pipeline");
  const GeneratedDatasets data = generate_datasets(*platform_, config_.dataset);

  TrainingSummary s;
  s.networks = data.networks_generated;
  s.blocks = data.blocks_generated;
  {
    obs::ScopedSpan span(tw, "fit_hyper_model", "pipeline");
    s.hyper_model =
        hyper_model_.fit(data.dataset_a, config_.dataset.grid.size(),
                         config_.train_hyper, config_.model_seed,
                         config_.hidden_units);
  }
  {
    obs::ScopedSpan span(tw, "fit_decision_model", "pipeline");
    s.decision_model =
        decision_model_.fit(data.dataset_b, platform_->gpu_levels(),
                            config_.train_decision, config_.model_seed + 1,
                            config_.hidden_units);
  }
  obs::log_info(
      "powerlens", "offline training complete",
      {{"networks", static_cast<double>(s.networks)},
       {"blocks", static_cast<double>(s.blocks)},
       {"hyper_test_acc", s.hyper_model.test_accuracy},
       {"decision_test_acc", s.decision_model.test_accuracy}});
  return s;
}

std::size_t PowerLens::decide_block_level(const dnn::Graph& graph,
                                          const clustering::PowerBlock& block,
                                          const hw::CostTable* oracle_costs,
                                          linalg::Workspace* ws) const {
  if (oracle_costs != nullptr) {
    return oracle_costs->optimal_gpu_level(block.begin, block.end,
                                           config_.dataset.cpu_level_for_labels);
  }
  const features::GlobalFeatures f =
      features::GlobalFeatureExtractor::extract(graph, block.begin,
                                                block.end);
  const int level = decision_model_.predict(f, ws);
  if (level < 0 || static_cast<std::size_t>(level) >= platform_->gpu_levels()) {
    throw std::logic_error("PowerLens: decision model emitted a bad level");
  }
  return static_cast<std::size_t>(level);
}

OptimizationPlan PowerLens::plan_for_view(const dnn::Graph& graph,
                                          clustering::PowerView view,
                                          bool use_oracle,
                                          linalg::Workspace* ws) const {
  if (!use_oracle && !trained()) {
    throw std::logic_error("PowerLens: optimize before train");
  }
  if (view.num_layers() != graph.size()) {
    throw std::invalid_argument("PowerLens: view does not match graph");
  }
  // The oracle path sweeps the GPU ladder once per block; memoize the layer
  // costs once for the whole graph instead of per (block, level) pair.
  std::optional<hw::CostTable> costs;
  if (use_oracle) {
    const std::size_t cpu_levels[] = {config_.dataset.cpu_level_for_labels};
    costs.emplace(*platform_, graph.layers(), cpu_levels);
  }
  OptimizationPlan plan;
  plan.view = std::move(view);
  for (const clustering::PowerBlock& b : plan.view.blocks()) {
    const std::size_t level =
        decide_block_level(graph, b, costs ? &*costs : nullptr, ws);
    plan.block_levels.push_back(level);
    plan.schedule.points.push_back({b.begin, level});
  }
  predict_plan_cost(*platform_, graph, plan);
  return plan;
}

OptimizationPlan PowerLens::optimize(const dnn::Graph& graph,
                                     linalg::Workspace* ws) const {
  if (!trained()) {
    throw std::logic_error("PowerLens: optimize before train");
  }
  if (graph.size() > dnn::kMaxGraphLayers) {
    throw std::invalid_argument(
        "PowerLens: graph has " + std::to_string(graph.size()) +
        " layers, over the limit of " + std::to_string(dnn::kMaxGraphLayers));
  }
  obs::TraceWriter& tw = obs::default_trace();
  obs::ScopedSpan opt_span(
      tw, "powerlens_optimize", "pipeline",
      {obs::TraceArg::num("layers", static_cast<double>(graph.size()))});

  // Every dense temporary below comes from one workspace; a call-local one
  // stands in when the caller passed none (buffer provenance never changes
  // values).
  linalg::Workspace local_ws;
  linalg::Workspace& plan_ws = ws != nullptr ? *ws : local_ws;

  // Step 1: predict clustering hyperparameters from global features.
  int cls = 0;
  {
    obs::ScopedSpan span(tw, "predict_hyper", "pipeline");
    PhaseTimer timer(phase_predict_hist());
    const features::GlobalFeatures net_features =
        features::GlobalFeatureExtractor::extract(graph);
    cls = hyper_model_.predict(net_features, &plan_ws);
  }
  const clustering::ClusteringHyperparams hp =
      config_.dataset.grid.at(static_cast<std::size_t>(cls));

  // Steps 2-3: power behavior similarity clustering into a power view,
  // post-processed to deployment-feasible block durations. Feasibility only
  // reads the (mid GPU, max CPU) plane, so a one-plane table suffices.
  // build_power_view is inlined into its public pieces (feature extraction
  // + distance blend, then DBSCAN) so each phase lands in its own
  // powerlens_plan_phase_*_ms histogram. eps is already predicted here, so
  // the distance pipeline emits the ε-adjacency inside its own sweeps and
  // DBSCAN runs on CSR neighbor lists — same labels, same view, no matrix
  // rescans.
  clustering::PowerView view = [&] {
    obs::ScopedSpan span(tw, "cluster_and_postprocess", "pipeline");
    const std::size_t cpu_levels[] = {platform_->max_cpu_level()};
    std::optional<hw::CostTable> costs;
    {
      PhaseTimer timer(phase_cost_table_hist());
      costs.emplace(*platform_, graph.layers(), cpu_levels);
    }
    const linalg::Matrix table =
        features::DepthwiseFeatureExtractor::extract(graph);
    linalg::Workspace::Lease dist =
        plan_ws.lease_uninit(table.rows(), table.rows());
    clustering::EpsAdjacency adj;
    {
      PhaseTimer timer(phase_distance_hist());
      clustering::power_distances_adj_into(table, config_.dataset.distance,
                                           hp.eps, plan_ws, *dist, adj);
    }
    PhaseTimer timer(phase_cluster_hist());
    return enforce_min_block_duration(
        *costs, clustering::build_power_view_from_adjacency(*dist, adj, hp),
        *platform_, feasible_block_duration(*costs, *platform_));
  }();

  // Steps 4-5: per-block frequency decisions and the preset schedule.
  obs::ScopedSpan decide_span(tw, "decide_levels", "pipeline");
  OptimizationPlan plan = [&] {
    PhaseTimer timer(phase_decide_hist());
    return plan_for_view(graph, std::move(view), false, &plan_ws);
  }();
  plan.hyper = hp;
  obs::log_debug(
      "powerlens", "optimized graph",
      {{"layers", static_cast<double>(graph.size())},
       {"blocks", static_cast<double>(plan.view.block_count())}});
  return plan;
}

std::vector<OptimizationPlan> PowerLens::optimize_batch(
    std::span<const dnn::Graph* const> graphs, linalg::Workspace* ws) const {
  if (!trained()) {
    throw std::logic_error("PowerLens: optimize before train");
  }
  linalg::Workspace local_ws;
  linalg::Workspace& batch_ws = ws != nullptr ? *ws : local_ws;
  std::vector<OptimizationPlan> plans;
  plans.reserve(graphs.size());
  for (const dnn::Graph* graph : graphs) {
    plans.push_back(optimize(*graph, &batch_ws));
  }
  return plans;
}

OptimizationPlan PowerLens::optimize_oracle(const dnn::Graph& graph) const {
  // The exhaustive-sweep pipeline touches every (block, gpu level) pair many
  // times over; one CostTable covers the hyperparameter sweep, feasibility
  // enforcement, and the per-block ladder scans.
  std::vector<std::size_t> cpu_levels = {platform_->max_cpu_level()};
  if (config_.dataset.cpu_level_for_labels != platform_->max_cpu_level()) {
    cpu_levels.push_back(config_.dataset.cpu_level_for_labels);
  }
  const hw::CostTable costs(*platform_, graph.layers(), cpu_levels);

  const std::size_t cls =
      best_hyperparam_class(graph, costs, *platform_, config_.dataset);
  const clustering::ClusteringHyperparams hp = config_.dataset.grid.at(cls);

  clustering::ClusteringConfig cc;
  cc.hyper = hp;
  cc.distance = config_.dataset.distance;
  clustering::PowerView view = enforce_min_block_duration(
      costs, clustering::build_power_view(graph, cc), *platform_,
      feasible_block_duration(costs, *platform_));

  OptimizationPlan plan;
  plan.view = std::move(view);
  for (const clustering::PowerBlock& b : plan.view.blocks()) {
    const std::size_t level = decide_block_level(graph, b, &costs, nullptr);
    plan.block_levels.push_back(level);
    plan.schedule.points.push_back({b.begin, level});
  }
  plan.hyper = hp;
  predict_plan_cost(*platform_, graph, plan);
  return plan;
}

std::vector<OptimizationPlan> PowerLens::replan_batch(
    std::span<const ReplanRequest> requests) const {
  std::vector<OptimizationPlan> plans;
  plans.reserve(requests.size());
  if (requests.empty()) return plans;

  obs::TraceWriter& tw = obs::default_trace();
  obs::ScopedSpan span(
      tw, "powerlens_replan_batch", "pipeline",
      {obs::TraceArg::num("plans", static_cast<double>(requests.size()))});

  for (const ReplanRequest& req : requests) {
    if (req.graph == nullptr || req.base == nullptr) {
      throw std::invalid_argument("PowerLens: replan with null graph or plan");
    }
    const AdaptSignals& sig = req.signals;
    if (!std::isfinite(sig.time_scale) || sig.time_scale <= 0.0 ||
        !std::isfinite(sig.energy_scale) || sig.energy_scale <= 0.0 ||
        !std::isfinite(sig.inter_pass_gap_s) || sig.inter_pass_gap_s < 0.0) {
      throw std::invalid_argument("PowerLens: bad adapt signals");
    }
    if (req.base->view.num_layers() != req.graph->size()) {
      throw std::invalid_argument("PowerLens: replan base does not match graph");
    }

    // Rescaled analytic plane at the labelling CPU level — same operating
    // point the offline labels were swept at, so an all-ones correction
    // reproduces the oracle's level choices exactly.
    const std::size_t cpu_level = config_.dataset.cpu_level_for_labels;
    const std::size_t cpu_levels[] = {cpu_level};
    // Epoch-over-epoch refills share the caller's cached per-layer features
    // when provided; the layer-span constructor is extract-then-fill with
    // the same features, so both branches produce identical tables.
    const hw::CostTable costs =
        (req.cost_features != nullptr
             ? hw::CostTable(*platform_, *req.cost_features, cpu_levels)
             : hw::CostTable(*platform_, req.graph->layers(), cpu_levels))
            .scaled(sig.time_scale, sig.energy_scale);

    OptimizationPlan plan;
    plan.hyper = req.base->hyper;
    plan.view = req.base->view;  // partition preserved; levels re-picked
    for (const clustering::PowerBlock& b : plan.view.blocks()) {
      const std::size_t level = costs.optimal_gpu_level(
          b.begin, b.end, cpu_level, sig.gpu_level_cap);
      plan.block_levels.push_back(level);
      plan.schedule.points.push_back({b.begin, level});
    }

    // Corrected prediction: the new schedule's raw analytic cost, scaled by
    // the learned correction. Observed request time is
    // passes * (actual_pass + gap) with the gap an uncorrectable idle, so
    // the time correction spills its excess onto the gap:
    //   passes * (raw*s + gap*(s-1) + gap) = s * passes * (raw + gap),
    // which is exactly (1 + ewma) x the uncorrected total — the residual
    // the EWMA measured collapses to ~0 under unchanged fault pressure.
    predict_plan_cost(*platform_, *req.graph, plan);
    plan.predicted_pass_time_s =
        plan.predicted_pass_time_s * sig.time_scale +
        sig.inter_pass_gap_s * (sig.time_scale - 1.0);
    plan.predicted_pass_energy_j *= sig.energy_scale;
    plans.push_back(std::move(plan));
  }
  obs::log_debug("powerlens", "replanned batch",
                 {{"plans", static_cast<double>(plans.size())}});
  return plans;
}

nn::TrainReport PowerLens::refit_decision(const nn::Dataset& rows,
                                          const nn::TrainConfig& config,
                                          std::uint64_t seed) {
  if (!trained()) {
    throw std::logic_error("PowerLens: refit before train");
  }
  return decision_model_.refit(rows, config, seed);
}

void PowerLens::save_models(const std::string& path) const {
  if (!trained()) {
    throw std::logic_error("PowerLens: save_models before train");
  }
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("PowerLens: cannot open '" + path +
                             "' for writing");
  }
  // The bundle format is locale-independent: a freshly opened stream
  // inherits the process-global locale, so pin the classic one before any
  // numeric output (the nn::serialize primitives pin their own streams too,
  // but the header line is written here).
  os.imbue(std::locale::classic());
  os << "powerlens-models 1 " << platform_->name << "\n";
  hyper_model_.save(os);
  decision_model_.save(os);
  if (!os) {
    throw std::runtime_error("PowerLens: write to '" + path + "' failed");
  }
}

void PowerLens::load_models(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("PowerLens: cannot open '" + path + "'");
  }
  is.imbue(std::locale::classic());
  std::string magic;
  int version = 0;
  std::string platform_name;
  if (!(is >> magic >> version >> platform_name) ||
      magic != "powerlens-models" || version != 1) {
    throw std::runtime_error("PowerLens: '" + path +
                             "' is not a model bundle");
  }
  if (platform_name != platform_->name) {
    throw std::runtime_error(
        "PowerLens: model bundle was trained for platform '" + platform_name +
        "', not '" + platform_->name + "'");
  }
  hyper_model_ = PredictionModel::load(is);
  decision_model_ = PredictionModel::load(is);
}

}  // namespace powerlens::core
