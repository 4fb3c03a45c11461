// LTL runtime-monitor overhead benchmark: the 40-node path-vector line run
// bare vs with an ltl::MonitorSet attached as a SimOptions::tuple_sinks
// entry (the same lowering `fvn_cli sim --monitor` uses). The monitor steps
// once per tuple install/retract/expire, so this measures the full
// subset-construction cost on the hot path. Acceptance: overhead <= 10% on
// this workload, recorded as ltl/bench/overhead_pct_x100 in BENCH_ltl.json —
// the median over interleaved bare/monitored pairs, each bare run taking
// well over 100 ms, so timer and scheduler noise cannot decide the gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/protocols.hpp"
#include "ltl/formula.hpp"
#include "ltl/monitor.hpp"
#include "runtime/simulator.hpp"

namespace {

using namespace fvn;
using runtime::EngineKind;

// The monitored property set: a liveness witness on the far end of the line
// plus convergence — the same shape the shipped examples/ndlog/*.ltl specs use.
ltl::Spec monitor_spec(std::size_t nodes) {
  const std::string far = "n" + std::to_string(nodes - 1);
  const std::string text =
      "delivers: F bestPath(@n0, " + far + ", _, _).\n" +
      "converges: F G stable(bestPath).\n";
  return ltl::parse_spec(text, "bench_ltl.spec");
}

struct MonitoredRun {
  runtime::SimStats stats;
  double seconds = 0;
  std::size_t events = 0;
  bool satisfied = true;
};

MonitoredRun run_path_vector(std::size_t nodes, bool monitored) {
  runtime::SimOptions options;
  ltl::Spec spec;
  ltl::MonitorSet* live = nullptr;
  std::unique_ptr<ltl::MonitorSet> monitors;
  if (monitored) {
    spec = monitor_spec(nodes);
    monitors = std::make_unique<ltl::MonitorSet>(spec);
    live = monitors.get();
    options.tuple_sinks.push_back(
        [live](const runtime::TupleEvent& e) { live->on_event(e); });
  }
  const auto t0 = std::chrono::steady_clock::now();
  runtime::Simulator sim(core::path_vector_program(), options);
  sim.inject_all(core::link_facts(core::line_topology(nodes)));
  MonitoredRun out;
  out.stats = sim.run();
  if (live) {
    const auto verdicts = live->finish();
    out.events = live->events();
    out.satisfied = std::all_of(verdicts.begin(), verdicts.end(),
                                [](const auto& v) { return v.satisfied; });
  }
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return out;
}

struct Overhead {
  double baseline_s = 0;   // median bare run
  double monitored_s = 0;  // median monitored run
  double pct = 0;          // median of the per-pair overheads
  std::size_t events = 0;
  bool satisfied = true;   // every monitored run verified the spec
};

// Interleaved pairs: each repetition runs bare and monitored back to back,
// alternating which goes first so slow drift of the host hits both sides
// alike, and the overhead is the median of the per-pair ratios — one
// descheduled run cannot move it. One untimed warm-up pair goes first.
Overhead measure_overhead(std::size_t nodes, int pairs) {
  run_path_vector(nodes, false);
  run_path_vector(nodes, true);
  Overhead out;
  std::vector<double> bare, monitored, pct;
  for (int i = 0; i < pairs; ++i) {
    MonitoredRun b;
    MonitoredRun m;
    if (i % 2 == 0) {
      b = run_path_vector(nodes, false);
      m = run_path_vector(nodes, true);
    } else {
      m = run_path_vector(nodes, true);
      b = run_path_vector(nodes, false);
    }
    bare.push_back(b.seconds);
    monitored.push_back(m.seconds);
    pct.push_back((m.seconds - b.seconds) / b.seconds * 100.0);
    out.events = m.events;
    out.satisfied = out.satisfied && m.satisfied;
  }
  out.baseline_s = bench::median(bare);
  out.monitored_s = bench::median(monitored);
  out.pct = bench::median(pct);
  return out;
}

void PathVectorMonitored(benchmark::State& state) {
  const bool monitored = state.range(0) != 0;
  const auto nodes = static_cast<std::size_t>(state.range(1));
  MonitoredRun last;
  for (auto _ : state) {
    last = run_path_vector(nodes, monitored);
    benchmark::DoNotOptimize(last);
  }
  state.SetLabel(monitored ? "monitored" : "baseline");
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["tuples"] = static_cast<double>(last.stats.tuples_derived);
  state.counters["events"] = static_cast<double>(last.events);
}
BENCHMARK(PathVectorMonitored)
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({0, 16})
    ->Args({1, 16})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  fvn::bench::Harness harness(argc, argv, "ltl");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Instrumented workload: the 40-node path-vector line (the bare run takes
  // ~150 ms), the same size in smoke mode — only the pair count differs.
  const std::size_t nodes = 40;
  const Overhead o = measure_overhead(nodes, harness.smoke() ? 15 : 25);

  auto& m = harness.metrics();
  m.counter("ltl/bench/nodes").add(nodes);
  m.counter("ltl/bench/baseline_us").add(static_cast<std::uint64_t>(o.baseline_s * 1e6));
  m.counter("ltl/bench/monitored_us").add(static_cast<std::uint64_t>(o.monitored_s * 1e6));
  m.counter("ltl/bench/monitor_events").add(o.events);
  // Fixed-point percent: 1000 = 10.00% (clamped at 0 for noise-negative runs).
  m.counter("ltl/bench/overhead_pct_x100")
      .add(static_cast<std::uint64_t>(std::max(0.0, o.pct) * 100));
  // The monitored runs must actually verify something: all properties
  // satisfied and events observed, else the overhead number is meaningless.
  m.counter("ltl/bench/monitors_satisfied").add(o.satisfied ? 1 : 0);

  if (!harness.smoke()) {
    std::cout << "\n=== LTL monitor overhead (" << nodes
              << "-node path-vector, medians) ===\n"
              << "baseline:  " << o.baseline_s * 1000 << " ms\n"
              << "monitored: " << o.monitored_s * 1000 << " ms (" << o.events
              << " tuple events)\n"
              << "overhead:  " << o.pct << "% (budget 10%)\n"
              << "verdicts:  " << (o.satisfied ? "all satisfied" : "VIOLATION") << "\n";
  }
  if (!o.satisfied || o.events == 0) {
    std::cerr << "bench_ltl: monitored run did not verify the spec\n";
    return 1;
  }
  return harness.finish();
}
