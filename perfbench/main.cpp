// PowerLens benchmark driver.
//
//   powerlens_bench --workload <taskflow-warm|cold-plan|chaos-adapt>
//                   --seed <n> --seconds <s> --trace <0|1>
//
// Prints a host record (fingerprint, calibration, check totals) and, as the
// last line of stdout, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any output check failed, 2 on a usage error, 3 when the
// program under test threw.
#include "bench.hpp"

#include "linalg/kernels.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {
namespace {

constexpr int kSetups = 5;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "powerlens_bench: %s\nusage: powerlens_bench --workload "
               "<taskflow-warm|cold-plan|chaos-adapt> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      const std::string v = val;
      if (v == "taskflow-warm") {
        o.workload = Workload::kTaskflowWarm;
      } else if (v == "cold-plan") {
        o.workload = Workload::kColdPlan;
      } else if (v == "chaos-adapt") {
        o.workload = Workload::kChaosAdapt;
      } else {
        usage(("unknown workload " + v).c_str());
      }
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0') usage("--seed takes an integer");
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(o.seconds > 0.0) ||
          o.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (key == "--trace") {
      const std::string v = val;
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t start = line.find_first_not_of(" \t:", 10);
      if (start != std::string::npos) return line.substr(start);
    }
  }
  return "unknown";
}

// JSON string body (the values here are host strings and metric names).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace kernels = pl::linalg::kernels;

int run(const Options& opts) {
  std::vector<double> setup_samples;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();  // one deployment alive at a time
    const Clock::time_point start = Clock::now();
    d = set_up(opts.workload, opts.seed);
    setup_samples.push_back(seconds_since(start));
  }

  Ledger ledger;
  const CheckResult ref = check_outputs(*d, ledger);
  Metrics metrics;
  if (opts.trace) {
    measure_layers(*d, ref, opts, ledger, metrics);
  } else {
    measure_end_to_end(*d, ref, opts, median(setup_samples), ledger, metrics);
  }
  bool finite = true;
  for (const Metric& m : metrics.items()) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      finite = false;
    }
  }
  const bool correct = ledger.failed == 0 && finite;

  std::printf(
      "{\"host\": {\"cpu_model\": %s, \"nproc\": %u, \"dispatch\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"linalg.calib_gemm_ms\": %s}, "
      "\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"workers\": %zu, "
      "\"failed_ratio\": %s}\n",
      quoted(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      quoted(kernels::path_name(kernels::active_path())).c_str(),
      quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(PERFBENCH_COMPILER).c_str(),
      number(calib_gemm_ms()).c_str(),
      quoted(workload_name(opts.workload)).c_str(),
      static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
      kWorkers,
      number(static_cast<double>(ledger.failed) /
             static_cast<double>(ledger.attempted))
          .c_str());

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted);
  line += ", \"failed\": " + std::to_string(ledger.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    if (!first) line += ", ";
    first = false;
    line += quoted(m.name) + ": {\"value\": " +
            (std::isfinite(m.value) ? number(m.value) : "null") +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opts = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "powerlens_bench: %s\n", e.what());
    return 3;
  }
}
