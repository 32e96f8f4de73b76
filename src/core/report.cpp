#include "core/report.hpp"

#include "hw/analytic.hpp"
#include "hw/latency_model.hpp"

#include <iomanip>
#include <map>
#include <ostream>
#include <string>

namespace powerlens::core {

namespace {

const char* boundness(const hw::LayerTiming& t) {
  if (t.total_s <= 0.0) return "-";
  if (t.launch_s > std::max(t.compute_s, t.memory_s)) return "launch";
  return t.compute_s >= t.memory_s ? "compute" : "memory";
}

}  // namespace

void write_layer_profile(std::ostream& os, const dnn::Graph& graph,
                         const hw::Platform& platform,
                         std::size_t gpu_level) {
  const hw::LatencyModel latency(platform);
  const double gpu_f = platform.gpu_freq(gpu_level);
  const double cpu_f = platform.cpu_freq(platform.max_cpu_level());

  double total = 0.0;
  for (const dnn::Layer& l : graph.layers()) {
    total += latency.time_layer(l, gpu_f, cpu_f).total_s;
  }

  os << "# " << graph.name() << " @ " << std::fixed << std::setprecision(0)
     << gpu_f / 1e6 << " MHz, pass " << std::setprecision(2) << total * 1e3
     << " ms\n";
  os << std::left << std::setw(5) << "idx" << std::setw(24) << "layer"
     << std::setw(20) << "type" << std::setw(10) << "t_ms" << std::setw(8)
     << "share" << std::setw(9) << "bound" << "ai\n";
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const dnn::Layer& l = graph.layer(i);
    const hw::LayerTiming t = latency.time_layer(l, gpu_f, cpu_f);
    os << std::left << std::setw(5) << i << std::setw(24)
       << l.name.substr(0, 23) << std::setw(20) << dnn::op_name(l.type)
       << std::setw(10) << std::setprecision(3) << t.total_s * 1e3
       << std::setw(8)
       << (total > 0.0 ? std::to_string(
                             static_cast<int>(100.0 * t.total_s / total)) +
                             "%"
                       : "-")
       << std::setw(9) << boundness(t) << std::setprecision(1)
       << l.arithmetic_intensity() << "\n";
  }
}

void write_plan_summary(std::ostream& os, const dnn::Graph& graph,
                        const hw::Platform& platform,
                        const OptimizationPlan& plan) {
  os << "# plan for " << graph.name() << ": " << plan.view.block_count()
     << " power block(s), eps=" << plan.hyper.eps
     << " minPts=" << plan.hyper.min_pts << "\n";
  const std::size_t cpu = platform.max_cpu_level();
  double total = 0.0;
  std::vector<double> block_time(plan.view.block_count());
  for (std::size_t b = 0; b < plan.view.block_count(); ++b) {
    const clustering::PowerBlock& blk = plan.view.blocks()[b];
    block_time[b] =
        hw::analytic_block_cost(platform,
                                graph.layers().subspan(blk.begin, blk.size()),
                                plan.block_levels[b], cpu)
            .time_s;
    total += block_time[b];
  }
  for (std::size_t b = 0; b < plan.view.block_count(); ++b) {
    const clustering::PowerBlock& blk = plan.view.blocks()[b];
    // Dominant operator type by time share within the block.
    std::map<dnn::OpType, std::int64_t> flops_by_type;
    for (std::size_t i = blk.begin; i < blk.end; ++i) {
      flops_by_type[graph.layer(i).type] += graph.layer(i).flops;
    }
    dnn::OpType dominant = dnn::OpType::kInput;
    std::int64_t best = -1;
    for (const auto& [type, flops] : flops_by_type) {
      if (flops > best) {
        best = flops;
        dominant = type;
      }
    }
    os << "  block " << b << ": layers [" << blk.begin << ", " << blk.end
       << "), " << blk.size() << " ops, dominant "
       << dnn::op_name(dominant) << ", "
       << static_cast<int>(total > 0.0 ? 100.0 * block_time[b] / total : 0)
       << "% of time -> " << std::fixed << std::setprecision(0)
       << platform.gpu_freq(plan.block_levels[b]) / 1e6 << " MHz\n";
  }
}

}  // namespace powerlens::core
