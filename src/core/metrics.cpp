#include "core/metrics.hpp"

#include <stdexcept>

namespace powerlens::core {

double ee_gain(double ee_ours, double ee_baseline) {
  if (ee_baseline <= 0.0) {
    throw std::invalid_argument("ee_gain: baseline EE must be positive");
  }
  return (ee_ours - ee_baseline) / ee_baseline;
}

double ee_gain(const hw::ExecutionResult& ours,
               const hw::ExecutionResult& baseline) {
  return ee_gain(ours.energy_efficiency(), baseline.energy_efficiency());
}

}  // namespace powerlens::core
