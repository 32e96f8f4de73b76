// Energy-efficiency metrics (paper equation 1 and the comparison columns of
// Tables 1-2 / Figure 5).
#pragma once

#include "hw/sim_engine.hpp"

namespace powerlens::core {

// Relative EE gain of `ours` over `baseline`:
// (EE_ours - EE_base) / EE_base. Matches the Table 1 footnote definition.
double ee_gain(const hw::ExecutionResult& ours,
               const hw::ExecutionResult& baseline);
double ee_gain(double ee_ours, double ee_baseline);

}  // namespace powerlens::core
