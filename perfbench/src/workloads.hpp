// The four benchmark workloads. Each converges an NDlog specification on one
// runtime and serves the resulting routes under churn; the workloads differ
// in which part dominates (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< small inputs for the benchmark's own tests
  int readers = 1;
};

/// Run one workload. Throws std::invalid_argument for an unknown name.
Result run_workload(const RunConfig& config);

/// Metric names and units a run reports: end-to-end without tracing,
/// per-layer with tracing. pv-cluster, which BENCHMARK.json does not list
/// (see perfbench/README.md), adds the net::Cluster counters to its
/// per-layer metrics.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
std::vector<std::pair<std::string, std::string>> per_layer_metrics(const std::string& workload);

}  // namespace perfbench
