// fvn_perfbench — the repository benchmark program. Usually started through
// perfbench/run.py, which builds it first:
//
//   fvn_perfbench --workload <pv-sim|ls-sim|pv-cluster|serve-churn>
//                 --seed N --seconds S --trace 0|1 [--tiny]
//                 [--commit ID] [--spans-out FILE]
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exit status: 0 when every check passed, 1 when one failed,
// 2 on bad arguments or an error before a result existed.
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "workloads.hpp"

#ifndef FVN_BENCH_BUILD_TYPE
#define FVN_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef FVN_BENCH_COMPILER
#define FVN_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "fvn_perfbench: " << why << "\n"
            << "usage: fvn_perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--tiny] [--commit ID] [--spans-out FILE]\n";
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  std::string spans_out;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
        have_seconds = config.seconds > 0;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        config.trace = v == "1";
        have_trace = true;
      } else if (arg == "--tiny") {
        config.tiny = true;
      } else if (arg == "--commit") {
        commit = value();
      } else if (arg == "--spans-out") {
        spans_out = value();
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      return usage(std::string("bad argument ") + arg + ": " + e.what());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  config.readers = static_cast<int>(nproc > 1 ? nproc - 1 : 1);

  Result result;
  try {
    result = run_workload(config);
  } catch (const std::exception& e) {
    std::cerr << "fvn_perfbench: " << config.workload << ": " << e.what() << "\n";
    return 2;
  }

  const auto expected =
      config.trace ? per_layer_metrics(config.workload) : end_to_end_metrics();
  for (const auto& [name, unit] : expected) {
    const auto it = result.metrics.find(name);
    if (it == result.metrics.end() || it->second.unit != unit) {
      std::cerr << "fvn_perfbench: metric " << name << " [" << unit << "] missing\n";
      return 2;
    }
  }
  for (const auto& note : result.notes) std::cout << note << "\n";
  if (config.trace) {
    std::cout << render_layer_tables(layer_tables());
    if (!spans_out.empty()) {
      std::ofstream out(spans_out);
      out << spans_to_chrome_json();
      if (!out) std::cerr << "fvn_perfbench: cannot write " << spans_out << "\n";
    }
  }
  for (const auto& [name, unit] : expected) {
    std::cout << "  " << std::left << std::setw(30) << name << " "
              << json_number(result.metrics[name].value) << " " << unit << "\n";
  }
  std::cout << "{\"stamp\":{\"nproc\":" << nproc
            << ",\"build_type\":" << json_string(FVN_BENCH_BUILD_TYPE)
            << ",\"compiler\":" << json_string(FVN_BENCH_COMPILER)
            << ",\"commit\":" << json_string(commit)
            << ",\"workload\":" << json_string(config.workload)
            << ",\"seed\":" << config.seed << ",\"readers\":" << config.readers << "}}\n";
  std::cout << "{\"correct\":" << (result.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
            << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, unit] : expected) {
    if (!first) std::cout << ",";
    first = false;
    std::cout << json_string(name) << ":{\"value\":" << json_number(result.metrics[name].value)
              << ",\"unit\":" << json_string(unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return result.failed == 0 ? 0 : 1;
}
