#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/protocols.hpp"
#include "dataflow/plan.hpp"
#include "inputs.hpp"
#include "ndlog/catalog.hpp"
#include "ndlog/eval.hpp"
#include "ndlog/parser.hpp"
#include "net/cluster.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "runtime/localize.hpp"
#include "runtime/simulator.hpp"
#include "serve.hpp"

namespace perfbench {

namespace {

using namespace fvn;

enum class Runtime { Simulator, Cluster };

struct WorkloadDef {
  Runtime runtime = Runtime::Simulator;
  std::string program_name;
  std::string source;
  Topology topology;
  std::string serve_spec;
  std::string serve_pred;
  /// serve-churn: converge only during set-up, serve for the whole run.
  bool serve_only = false;
};

WorkloadDef define(const RunConfig& c) {
  const std::uint64_t s = c.seed;
  if (c.workload == "pv-sim") {
    return {Runtime::Simulator, "path_vector", core::path_vector_source(),
            seeded_ring(c.tiny ? 10 : 56, s, 10), "bestPath:dst,path,cost", "bestPath", false};
  }
  if (c.workload == "ls-sim") {
    return {Runtime::Simulator, "link_state", core::link_state_source(),
            seeded_line(c.tiny ? 4 : 5, s, 3), "lsBestCost:src,dst,cost", "lsBestCost", false};
  }
  if (c.workload == "pv-cluster") {
    return {Runtime::Cluster, "path_vector", core::path_vector_source(),
            seeded_ring(c.tiny ? 8 : 32, s, 10), "bestPath:dst,path,cost", "bestPath", false};
  }
  if (c.workload == "serve-churn") {
    return {Runtime::Simulator, "path_vector", core::path_vector_source(),
            seeded_ring(c.tiny ? 12 : 64, s, 10), "bestPath:dst,path,cost", "bestPath", true};
  }
  throw std::invalid_argument("unknown workload '" + c.workload + "'");
}

/// Sinks attached through SimOptions / ClusterOptions in a traced run.
struct Telemetry {
  obs::Registry registry;
  obs::Trace trace;
};

struct RepOut {
  double parse_s = 0;
  double setup_s = 0;  ///< parse + construct + inject
  double converge_s = 0;
  double merge_s = 0;
  double localize_s = 0;  ///< traced runs only (a separate call)
  double compile_s = 0;   ///< traced runs only (a separate call)
  double detect_tail_ms = 0;  ///< cluster only
  bool quiesced = false;
  Digest digest;
  std::size_t fixpoint = 0;
  runtime::SimStats sim;
  net::ClusterStats cluster;
  std::optional<ndlog::Database> db;
};

/// One set-up + convergence of `w` on `runtime`. With `tel`, the runtime gets
/// the registry and trace, and localize/compile are also timed on their own
/// (the constructors call them internally, where the benchmark cannot see).
RepOut converge_once(const WorkloadDef& w, Runtime runtime,
                     const std::vector<std::string>& preds, Telemetry* tel,
                     bool keep_db, bool setup_only = false) {
  RepOut out;
  Span window("window");
  const auto t0 = Clock::now();
  std::optional<ndlog::Program> program;
  {
    Span span("ndlog.parse");
    program.emplace(ndlog::parse_program(w.source, w.program_name));
  }
  out.parse_s = seconds_since(t0);
  ndlog::Database merged;
  if (runtime == Runtime::Simulator) {
    runtime::SimOptions options;
    options.engine = runtime::EngineKind::Dataflow;
    if (tel != nullptr) {
      options.metrics = &tel->registry;
      options.obs_trace = &tel->trace;
    }
    std::optional<runtime::Simulator> sim;
    {
      Span span("runtime.construct");
      sim.emplace(*program, options);
    }
    {
      Span span("runtime.inject");
      sim->inject_all(w.topology.facts);
    }
    out.setup_s = seconds_since(t0);
    if (setup_only) return out;
    const auto t1 = Clock::now();
    {
      Span span("runtime.run");
      out.sim = sim->run();
    }
    out.converge_s = seconds_since(t1);
    out.quiesced = out.sim.quiesced;
    const auto t2 = Clock::now();
    {
      Span span("runtime.merge");
      merged = sim->merged_database();
    }
    out.merge_s = seconds_since(t2);
  } else {
    net::ClusterOptions options;
    options.engine = runtime::EngineKind::Dataflow;
    options.transport = net::TransportKind::InProc;
    if (tel != nullptr) {
      options.metrics = &tel->registry;
      options.trace = &tel->trace;
    }
    std::optional<net::Cluster> cluster;
    {
      Span span("net.construct");
      cluster.emplace(*program, options);
    }
    {
      Span span("net.inject");
      cluster->inject_all(w.topology.facts);
    }
    out.setup_s = seconds_since(t0);
    if (setup_only) return out;
    const auto t1 = Clock::now();
    {
      Span span("net.run");
      out.cluster = cluster->run();
    }
    out.converge_s = seconds_since(t1);
    out.quiesced = out.cluster.quiesced;
    double last_active = 0;
    for (const auto& node : cluster->nodes()) {
      last_active = std::max(last_active, cluster->node_stats(node).last_active_ms);
    }
    out.detect_tail_ms = out.cluster.wall_ms - last_active;
    const auto t2 = Clock::now();
    {
      Span span("net.merge");
      merged = cluster->merged_database();
    }
    out.merge_s = seconds_since(t2);
  }
  if (tel != nullptr) {
    auto t = Clock::now();
    std::optional<ndlog::Program> localized;
    {
      Span span("runtime.localize");
      localized.emplace(runtime::localize(*program));
    }
    out.localize_s = seconds_since(t);
    t = Clock::now();
    {
      Span span("dataflow.compile");
      const auto plan = dataflow::compile(*localized);
    }
    out.compile_s = seconds_since(t);
  }
  {
    Span span("bench.digest");
    out.digest = digest(merged, preds);
  }
  out.fixpoint = merged.total_size();
  if (keep_db) out.db = std::move(merged);
  return out;
}

/// The fixpoint the runs must reach: the centralized evaluator's result on
/// the program's own relations for simulator workloads, the Simulator's
/// merged database (every relation) for the cluster.
Digest reference_digest(const WorkloadDef& w, const std::vector<std::string>& preds,
                        Telemetry* tel, RepOut* sim_run) {
  if (w.runtime == Runtime::Cluster) {
    *sim_run = converge_once(w, Runtime::Simulator, preds, tel, false);
    return sim_run->digest;
  }
  const auto result = ndlog::Evaluator().run(ndlog::parse_program(w.source, w.program_name),
                                             w.topology.facts);
  return digest(result.database, preds);
}

struct Replay {
  double insert_ns = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  double wire_bytes = 0;
};

/// Replay a fixpoint into a fresh ndlog::Database and through net::wire,
/// per tuple; every decoded tuple must equal its source.
Replay replay_fixpoint(const ndlog::Database& db, Result& result) {
  std::vector<ndlog::Tuple> tuples;
  for (const auto& pred : db.predicates()) {
    for (const auto& t : db.relation(pred)) tuples.push_back(t);
  }
  const auto n = static_cast<double>(std::max<std::size_t>(tuples.size(), 1));
  std::vector<double> insert, encode, decode;
  double bytes = 0;
  for (int round = 0; round < 3; ++round) {
    Span window("window");
    auto t = Clock::now();
    {
      Span span("ndlog.db_insert");
      ndlog::Database fresh;
      for (const auto& tuple : tuples) fresh.insert(tuple);
      insert.push_back(seconds_since(t) * 1e9 / n);
    }
    std::vector<std::string> wire(tuples.size());
    t = Clock::now();
    {
      Span span("net.wire_encode");
      for (std::size_t i = 0; i < tuples.size(); ++i) wire[i] = net::encode_tuple(tuples[i]);
    }
    encode.push_back(seconds_since(t) * 1e9 / n);
    std::vector<ndlog::Tuple> back(tuples.size());
    t = Clock::now();
    {
      Span span("net.wire_decode");
      for (std::size_t i = 0; i < tuples.size(); ++i) back[i] = net::decode_tuple(wire[i]);
    }
    decode.push_back(seconds_since(t) * 1e9 / n);
    Span span("bench.verify");
    bytes = 0;
    bool same = true;
    for (std::size_t i = 0; i < tuples.size(); ++i) {
      bytes += static_cast<double>(wire[i].size());
      same = same && back[i] == tuples[i];
    }
    result.check(same, "wire round trip of the fixpoint");
  }
  return Replay{median(insert), median(encode), median(decode), bytes / n};
}

/// p99 of a power-of-two bucketed histogram, as the bucket's upper bound.
double histogram_p99(const obs::Histogram* h) {
  if (h == nullptr || h->count() == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(0.99 * static_cast<double>(h->count()));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    seen += h->buckets()[b];
    if (seen > rank) return b == 0 ? 0 : static_cast<double>((std::uint64_t{1} << b) - 1);
  }
  return static_cast<double>(h->max());
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Per-layer metrics of the runtime a fixpoint was converged on.
void set_runtime_layers(Result& r, const RepOut& run, const Telemetry& tel) {
  const auto& s = run.sim;
  r.set("runtime.events", static_cast<double>(s.events_processed), "count");
  r.set("runtime.messages", static_cast<double>(s.messages_sent), "count");
  r.set("runtime.derivations", static_cast<double>(s.tuples_derived), "count");
  r.set("runtime.overwrites", static_cast<double>(s.overwrites), "count");
  r.set("runtime.useful_ratio",
        ratio(static_cast<double>(run.fixpoint), static_cast<double>(s.tuples_derived)),
        "ratio");
  r.set("runtime.queue_depth_p99",
        histogram_p99(tel.registry.find_histogram("sim/queue_depth")), "count");
  std::uint64_t fires = 0;
  for (const auto& [name, counter] : tel.registry.counters()) {
    if (name.starts_with("dataflow/elem/") && name.ends_with("/in")) {
      fires += counter.value();
    }
  }
  r.set("dataflow.elem_fires", static_cast<double>(fires), "count");
}

/// Counters of a net::Cluster run (pv-cluster only).
void set_net_layers(Result& r, const RepOut& cluster_run) {
  const net::ClusterStats& c = cluster_run.cluster;
  const auto fixpoint = static_cast<double>(cluster_run.fixpoint);
  r.set("net.frames", static_cast<double>(c.transport.frames_sent), "count");
  r.set("net.tuples_shipped", static_cast<double>(c.tuples_shipped), "count");
  r.set("net.batch_tuples_mean",
        ratio(static_cast<double>(c.tuples_shipped), static_cast<double>(c.messages_sent)),
        "tuples");
  r.set("net.bytes_sent", static_cast<double>(c.bytes_sent), "B");
  r.set("net.ack_bytes_share",
        ratio(static_cast<double>(c.ack_bytes), static_cast<double>(c.bytes_sent)), "ratio");
  r.set("net.retransmitted", static_cast<double>(c.retransmitted), "count");
  r.set("net.coordinator_polls", static_cast<double>(c.coordinator_polls), "count");
  r.set("net.useful_ratio", ratio(fixpoint, static_cast<double>(c.tuples_installed)), "ratio");
  r.set("net.detect_tail_ms", cluster_run.detect_tail_ms, "ms");
}

void set_replay_layers(Result& r, const Replay& replay) {
  r.set("ndlog.db_insert_ns_per_tuple", replay.insert_ns, "ns");
  r.set("net.wire_encode_ns_per_tuple", replay.encode_ns, "ns");
  r.set("net.wire_decode_ns_per_tuple", replay.decode_ns, "ns");
  r.set("net.wire_bytes_per_tuple", replay.wire_bytes, "B");
}

/// The registry attached through ServePlane::Options must count exactly the
/// lookups the readers made over the plane's life.
void check_plane_metrics(Result& r, ServeBench& bench, obs::Registry& plane_metrics,
                         std::uint64_t lookups) {
  bench.plane().flush_metrics();
  r.check(plane_metrics.counter("serve/lookups").value() == lookups,
          "plane lookup counter == reader lookups");
}

void set_serve_layers(Result& r, const ServeWindow& w) {
  r.set("serve.apply_ns", mean(w.apply_ns), "ns");
  r.set("serve.publish_p50_us", quantile(w.publish_us, 0.5), "us");
  r.set("serve.publish_p99_us", quantile(w.publish_us, 0.99), "us");
  r.set("serve.acquire_ns", ratio(w.acquire_ns_sum, static_cast<double>(w.acquires)), "ns");
  // Epochs published and snapshots reclaimed are fixed by the schedule (one
  // publish per op, every op runs), so what is reported is what can vary:
  // ops the writer started late, and snapshots reclamation left behind.
  r.set("serve.late_op_share",
        ratio(static_cast<double>(w.late_ops), static_cast<double>(w.lag_us.size())), "ratio");
  r.set("serve.retired_live", w.retired_live, "count");
  r.set("serve.writer_lag_p99_us", quantile(w.lag_us, 0.99), "us");
  r.set("update_visible_p50_us", quantile(w.visible_us, 0.5), "us");
  r.set("update_visible_p90_us", quantile(w.visible_us, 0.9), "us");
  r.set("update_visible_p99_us", quantile(w.visible_us, 0.99), "us");
  r.set("serve.hit_ratio",
        ratio(static_cast<double>(w.hits), static_cast<double>(w.lookups)), "ratio");
  r.set("bench.verify_share", ratio(w.verify_s, w.reader_s), "ratio");
}

void set_self_times(Result& r) {
  for (const auto& table : layer_tables()) {
    if (table.group != "main") continue;
    for (const char* layer : {"ndlog", "runtime", "dataflow", "net", "serve", "bench",
                              "idle", "unattributed"}) {
      const auto it = table.self_s.find(layer);
      r.set(std::string("layer.") + layer + ".self_s",
            it == table.self_s.end() ? 0 : it->second, "s");
    }
  }
}

/// One window holding every sample of `windows`.
ServeWindow merge_windows(const std::vector<ServeWindow>& windows) {
  ServeWindow m;
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const auto& w : windows) {
    m.seconds += w.seconds;
    append(m.subwindow_rates, w.subwindow_rates);
    append(m.visible_us, w.visible_us);
    append(m.lag_us, w.lag_us);
    append(m.apply_ns, w.apply_ns);
    append(m.publish_us, w.publish_us);
    m.acquire_ns_sum += w.acquire_ns_sum;
    m.acquires += w.acquires;
    m.lookups += w.lookups;
    m.hits += w.hits;
    m.late_ops += w.late_ops;
    m.retired_live += w.retired_live / static_cast<double>(windows.size());
    m.reader_s += w.reader_s;
    m.verify_s += w.verify_s;
  }
  return m;
}

/// Every end-to-end timing is the median over the run: of its set-ups, its
/// convergences and its lookup sub-windows (see README.md, Steadiness).
void set_end_to_end(Result& r, const std::vector<double>& setup,
                    const std::vector<double>& converge, std::size_t fixpoint, double rss,
                    const ServeWindow& w) {
  const double converge_s = median(converge);
  r.set("setup_s", median(setup), "s");
  r.set("converge_s", converge_s, "s");
  r.set("tuples_per_s", ratio(static_cast<double>(fixpoint), converge_s), "1/s");
  r.set("peak_rss_mb", rss, "MB");
  r.set("lookups_per_s", median(w.subwindow_rates), "1/s");
}

ServeSettings serve_settings(const RunConfig& c) {
  ServeSettings s;
  s.seed = c.seed;
  s.readers = c.readers;
  return s;
}

std::vector<std::string> oracle_predicates(const WorkloadDef& w) {
  // Simulator runs also hold the localized *_sh_* relations; compare the
  // program's own relations. The cluster is compared on everything.
  if (w.runtime == Runtime::Cluster) return {};
  return ndlog::Catalog::from_program(ndlog::parse_program(w.source, w.program_name))
      .predicates();
}

void check_fixpoints(Result& r, const std::vector<RepOut>& reps, const Digest& ref) {
  for (const auto& rep : reps) {
    r.check(rep.quiesced, "run reached quiescence");
    r.check(rep.digest == ref, "merged fixpoint == reference (" +
                                   std::to_string(rep.digest.count) + " vs " +
                                   std::to_string(ref.count) + " tuples)");
  }
}

/// The host's speed drifts over seconds, so a run alternates kCycles times
/// between its phases (convergence and serving, or set-up and serving)
/// rather than taking each in one block: every metric then samples the
/// whole run.
constexpr std::size_t kCycles = 8;

/// pv-sim, ls-sim, pv-cluster: each cycle repeats set-up + convergence for
/// 60% of its length, then serves the converged routes under churn for 40%.
Result run_convergence(const RunConfig& c, const WorkloadDef& w) {
  Result r;
  const auto preds = oracle_predicates(w);
  const double cycle_s = c.seconds / static_cast<double>(kCycles);
  // Set-up alone is sub-millisecond: take extra set-ups (not run) after every
  // untraced repetition, so the median spans the whole measured phase.
  constexpr std::size_t kSetupOnlyPerRep = 10;
  const auto catalog =
      ndlog::Catalog::from_program(ndlog::parse_program(w.source, w.program_name));

  std::vector<double> setup;
  std::vector<RepOut> reps;
  std::vector<double> converge, untraced_wall, traced_wall;
  std::vector<double> parse_s, localize_s, compile_s;
  std::unique_ptr<Telemetry> tel;
  RepOut traced_run;
  std::optional<ndlog::Database> fixpoint;
  obs::Registry serve_metrics;
  std::unique_ptr<ServeBench> bench;
  std::vector<ServeWindow> served;
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    const auto cycle_start = Clock::now();
    // At least two repetitions per cycle, so a traced run traces every cycle.
    for (std::size_t in_cycle = 0;
         in_cycle < 2 || seconds_since(cycle_start) < 0.6 * cycle_s; ++in_cycle) {
      const std::size_t rep = reps.size();
      const bool traced = c.trace && rep % 2 == 1;
      if (traced) tel = std::make_unique<Telemetry>();
      Spans::set_enabled(traced);
      RepOut out = converge_once(w, w.runtime, preds, traced ? tel.get() : nullptr, rep == 0);
      Spans::set_enabled(false);
      if (rep == 0) fixpoint = std::move(out.db);
      out.db.reset();
      if (traced) {
        traced_wall.push_back(out.setup_s + out.converge_s);
        parse_s.push_back(out.parse_s);
        localize_s.push_back(out.localize_s);
        compile_s.push_back(out.compile_s);
        traced_run = out;
      } else {
        untraced_wall.push_back(out.setup_s + out.converge_s);
        setup.push_back(out.setup_s);
        converge.push_back(out.converge_s);
        for (std::size_t i = 0; i < kSetupOnlyPerRep; ++i) {
          setup.push_back(converge_once(w, w.runtime, preds, nullptr, false, true).setup_s);
        }
      }
      reps.push_back(std::move(out));
    }

    // Serve the routes of the first repetition's fixpoint under churn.
    Spans::set_enabled(c.trace);
    if (!bench) {
      Span window("window");
      bench = std::make_unique<ServeBench>(w.serve_spec, catalog,
                                           routes_of(*fixpoint, w.serve_pred),
                                           serve_settings(c),
                                           c.trace ? &serve_metrics : nullptr, r);
    }
    served.push_back(bench->run(0.4 * cycle_s, c.trace, r));
    Spans::set_enabled(false);
  }
  const double rss = peak_rss_mb();
  const ServeWindow serving = merge_windows(served);

  Replay replay;
  if (c.trace) {
    Spans::set_enabled(true);
    replay = replay_fixpoint(*fixpoint, r);
    Spans::set_enabled(false);
    check_plane_metrics(r, *bench, serve_metrics, serving.lookups);
  }

  // The oracle runs last so its memory is not in peak_rss_mb.
  RepOut reference_run;
  Telemetry reference_tel;
  const Digest ref = reference_digest(w, preds, c.trace ? &reference_tel : nullptr,
                                      &reference_run);
  if (w.runtime == Runtime::Cluster) {
    r.check(reference_run.quiesced, "reference simulator run reached quiescence");
  }
  check_fixpoints(r, reps, ref);

  if (!c.trace) {
    set_end_to_end(r, setup, converge, reps.front().fixpoint, rss, serving);
    return r;
  }
  r.set("ndlog.parse_s", median(parse_s), "s");
  r.set("runtime.localize_s", median(localize_s), "s");
  r.set("dataflow.compile_s", median(compile_s), "s");
  set_replay_layers(r, replay);
  if (w.runtime == Runtime::Cluster) {
    set_runtime_layers(r, reference_run, reference_tel);
    set_net_layers(r, traced_run);
  } else {
    set_runtime_layers(r, traced_run, *tel);
  }
  set_serve_layers(r, serving);
  r.set("obs.trace_overhead_ratio", ratio(median(traced_wall), median(untraced_wall)),
        "ratio");
  set_self_times(r);
  return r;
}

/// serve-churn: each cycle converges the path-vector fixpoint, loads it into
/// a fresh ServePlane and publishes it (the set-up), then serves it under
/// churn until 1/16 of the run has passed; the engine does no work while
/// serving. A traced run traces every other cycle.
Result run_serve_churn(const RunConfig& c, const WorkloadDef& w) {
  Result r;
  const auto preds = oracle_predicates(w);
  const auto catalog =
      ndlog::Catalog::from_program(ndlog::parse_program(w.source, w.program_name));
  // Twice the convergence workloads' cycles: each set-up gives one sample of
  // setup_s and converge_s.
  const std::size_t cycles = c.tiny ? 2 : 2 * kCycles;
  const double cycle_s = c.seconds / static_cast<double>(cycles);
  const auto run_start = Clock::now();
  std::vector<RepOut> reps;
  std::vector<double> setup, converge;
  std::unique_ptr<Telemetry> tel;
  RepOut traced_run;
  std::optional<ndlog::Database> fixpoint;
  std::vector<ServeWindow> untraced, traced;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    const bool on = c.trace && cycle % 2 == 1;
    if (on) tel = std::make_unique<Telemetry>();
    obs::Registry serve_metrics;
    Spans::set_enabled(on);
    RepOut out = converge_once(w, w.runtime, preds, on ? tel.get() : nullptr, true);
    std::unique_ptr<ServeBench> bench;
    {
      Span window("window");
      const auto t = Clock::now();
      auto routes = routes_of(*out.db, w.serve_pred);
      const double routes_s = seconds_since(t);
      bench = std::make_unique<ServeBench>(w.serve_spec, catalog, std::move(routes),
                                           serve_settings(c), on ? &serve_metrics : nullptr, r);
      setup.push_back(out.setup_s + out.converge_s + out.merge_s + routes_s +
                      bench->load_seconds());
    }
    converge.push_back(out.converge_s);
    fixpoint = std::move(out.db);
    out.db.reset();
    if (on) traced_run = out;
    reps.push_back(std::move(out));

    // The set-up is part of the cycle: serve for the rest of it, so the run
    // takes --seconds in all.
    const double cycle_left =
        static_cast<double>(cycle + 1) * cycle_s - seconds_since(run_start);
    ServeWindow window = bench->run(std::max(cycle_left, 0.25 * cycle_s), on, r);
    Spans::set_enabled(false);
    if (on) check_plane_metrics(r, *bench, serve_metrics, window.lookups);
    (on ? traced : untraced).push_back(std::move(window));
  }
  const double rss = peak_rss_mb();

  Replay replay;
  if (c.trace) {
    Spans::set_enabled(true);
    replay = replay_fixpoint(*fixpoint, r);
    Spans::set_enabled(false);
  }
  const Digest ref = reference_digest(w, preds, nullptr, nullptr);
  check_fixpoints(r, reps, ref);

  if (!c.trace) {
    set_end_to_end(r, setup, converge, reps.front().fixpoint, rss,
                   merge_windows(untraced));
    return r;
  }
  r.set("ndlog.parse_s", traced_run.parse_s, "s");
  r.set("runtime.localize_s", traced_run.localize_s, "s");
  r.set("dataflow.compile_s", traced_run.compile_s, "s");
  set_replay_layers(r, replay);
  set_runtime_layers(r, traced_run, *tel);
  set_serve_layers(r, merge_windows(traced));
  // Tracing cost on this workload: time per lookup, traced over untraced.
  auto per_lookup = [](const std::vector<ServeWindow>& ws) {
    const ServeWindow m = merge_windows(ws);
    return ratio(m.seconds, static_cast<double>(m.lookups));
  };
  r.set("obs.trace_overhead_ratio", ratio(per_lookup(traced), per_lookup(untraced)), "ratio");
  set_self_times(r);
  return r;
}

}  // namespace

Result run_workload(const RunConfig& config) {
  const WorkloadDef w = define(config);
  Result r = w.serve_only ? run_serve_churn(config, w) : run_convergence(config, w);
  r.notes.insert(r.notes.begin(), "workload " + config.workload + " on " + w.topology.name);
  return r;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"converge_s", "s"},
      {"tuples_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"lookups_per_s", "1/s"},
  };
  return names;
}

std::vector<std::pair<std::string, std::string>> per_layer_metrics(const std::string& workload) {
  std::vector<std::pair<std::string, std::string>> names = {
      {"ndlog.parse_s", "s"},
      {"runtime.localize_s", "s"},
      {"dataflow.compile_s", "s"},
      {"ndlog.db_insert_ns_per_tuple", "ns"},
      {"runtime.events", "count"},
      {"runtime.messages", "count"},
      {"runtime.derivations", "count"},
      {"runtime.overwrites", "count"},
      {"runtime.useful_ratio", "ratio"},
      {"runtime.queue_depth_p99", "count"},
      {"dataflow.elem_fires", "count"},
      {"net.wire_encode_ns_per_tuple", "ns"},
      {"net.wire_decode_ns_per_tuple", "ns"},
      {"net.wire_bytes_per_tuple", "B"},
      {"serve.apply_ns", "ns"},
      {"serve.publish_p50_us", "us"},
      {"serve.publish_p99_us", "us"},
      {"serve.acquire_ns", "ns"},
      {"serve.late_op_share", "ratio"},
      {"serve.retired_live", "count"},
      {"serve.writer_lag_p99_us", "us"},
      {"update_visible_p50_us", "us"},
      {"update_visible_p90_us", "us"},
      {"update_visible_p99_us", "us"},
      {"serve.hit_ratio", "ratio"},
      {"bench.verify_share", "ratio"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"layer.ndlog.self_s", "s"},
      {"layer.runtime.self_s", "s"},
      {"layer.dataflow.self_s", "s"},
      {"layer.net.self_s", "s"},
      {"layer.serve.self_s", "s"},
      {"layer.bench.self_s", "s"},
      {"layer.idle.self_s", "s"},
      {"layer.unattributed.self_s", "s"},
  };
  if (workload == "pv-cluster") {
    names.insert(names.end(), {{"net.frames", "count"},
                               {"net.tuples_shipped", "count"},
                               {"net.batch_tuples_mean", "tuples"},
                               {"net.bytes_sent", "B"},
                               {"net.ack_bytes_share", "ratio"},
                               {"net.retransmitted", "count"},
                               {"net.coordinator_polls", "count"},
                               {"net.useful_ratio", "ratio"},
                               {"net.detect_tail_ms", "ms"}});
  }
  return names;
}

}  // namespace perfbench
