// Human-readable profiling reports: the "power view" made visible.
//
// These helpers render what the framework knows about a network — per-layer
// roofline boundness and per-block decisions — into text, for debugging
// instrumentation plans and for the examples.
#pragma once

#include "core/powerlens.hpp"
#include "hw/sim_engine.hpp"

#include <iosfwd>

namespace powerlens::core {

// Per-layer profile at a fixed GPU level: index, name, type, time, share of
// pass time, bound ("compute"/"memory"/"launch"), arithmetic intensity.
void write_layer_profile(std::ostream& os, const dnn::Graph& graph,
                         const hw::Platform& platform, std::size_t gpu_level);

// Per-block summary of an optimization plan: range, layer count, dominant
// op, time share, chosen frequency.
void write_plan_summary(std::ostream& os, const dnn::Graph& graph,
                        const hw::Platform& platform,
                        const OptimizationPlan& plan);

}  // namespace powerlens::core
