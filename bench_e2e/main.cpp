// bench_e2e: the repository's end-to-end and per-layer benchmark.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--spans FILE]
//
// Runs one workload against an in-process daemon and prints, as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1).  A human-readable report goes to standard
// error.  Exits 1 when an answer was wrong or an op failed, 2 on a usage
// error or when the run itself broke.  BENCHMARK.md describes the
// workloads and metrics; run.py builds this binary and wraps it.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using evord::bench_e2e::Config;
using evord::bench_e2e::RunResult;

const std::map<std::string, RunResult (*)(const Config&)> kWorkloads = {
    {"warm_query", &evord::bench_e2e::run_warm_query},
    {"cold_exact", &evord::bench_e2e::run_cold_exact},
    {"deadline_anytime", &evord::bench_e2e::run_deadline_anytime},
    {"churn_mix", &evord::bench_e2e::run_churn_mix},
};

int usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why << "\n"
            << "usage: bench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--spans FILE]\n"
            << "workloads:";
  for (const auto& [name, fn] : kWorkloads) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

/// Every value with all its digits.
std::string number(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::string render(const RunResult& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        cfg.workload = value();
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
        have_trace = true;
      } else if (arg == "--smoke") {
        cfg.smoke = true;
      } else if (arg == "--spans") {
        cfg.spans_path = value();
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      return usage(std::string("bad argument: ") + e.what());
    }
  }
  const auto it = kWorkloads.find(cfg.workload);
  if (it == kWorkloads.end()) return usage("unknown workload '" + cfg.workload + "'");
  if (!have_trace) return usage("--trace is required");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
  if (cfg.smoke) cfg.seconds = std::min(cfg.seconds, 1.0);

  std::cerr << "bench_e2e " << cfg.workload << " seed " << cfg.seed << ", "
            << cfg.seconds << " s, " << (cfg.trace ? "traced" : "untraced")
            << (cfg.smoke ? ", smoke" : "") << "\n";
  RunResult result;
  try {
    result = it->second(cfg);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: run failed: " << e.what() << "\n";
    return 2;
  }
  for (const auto& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "bench_e2e: metric " << m.name << " is not finite\n";
      return 2;
    }
  }
  if (result.failed != 0) result.correct = false;
  std::cout << render(result) << std::endl;
  return result.correct && result.attempted > 0 ? 0 : 1;
}
