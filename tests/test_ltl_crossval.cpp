// LTL cross-validation: the model-checker verdict and the runtime-monitor
// verdict must agree on every shipped example, for both rule engines and
// both cluster transports. Each example carries a satisfied spec
// (examples/ndlog/<name>.ltl) and a deliberately violated one
// (<name>_violated.ltl) that must fail on *every* schedule — proving the
// monitors actually fire, not merely that satisfied specs pass.
//
// Also pins the typed tuple-event stream both runtimes hand their tuple
// sinks: folding install/retract/expire over it must reproduce each
// runtime's final per-node database exactly.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "ltl/checker.hpp"
#include "ltl/formula.hpp"
#include "ltl/monitor.hpp"
#include "mc/ndlog_ts.hpp"
#include "ndlog/parser.hpp"
#include "net/cluster.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using ndlog::Tuple;
using ndlog::Value;
using runtime::EngineKind;

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::filesystem::path example_dir() {
  return std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog";
}

struct Case {
  std::string name;
  ndlog::Program program;
  ltl::Spec spec;           // satisfied on every schedule
  ltl::Spec violated_spec;  // violated on every schedule
  std::vector<Tuple> facts;
};

Tuple link(const char* s, const char* d, int c) {
  return Tuple("link", {Value::addr(s), Value::addr(d), Value::integer(c)});
}
Tuple node(const char* n) { return Tuple("node", {Value::addr(n)}); }

// The facts mirror the topology documented at the top of each .ltl file —
// small enough that fvn::mc explores every interleaving exhaustively.
std::vector<Case> load_cases() {
  std::vector<Case> cases;
  const std::map<std::string, std::vector<Tuple>> facts = {
      {"path_vector", {link("n0", "n1", 1), link("n1", "n0", 1),
                       link("n1", "n2", 1), link("n2", "n1", 1)}},
      // Directed acyclic: DV counts to infinity on any cycle.
      {"distance_vector", {link("n0", "n1", 1), link("n1", "n2", 1)}},
      {"reachable", {link("n0", "n1", 1), link("n1", "n0", 1),
                     link("n1", "n2", 1), link("n2", "n1", 1)}},
      // Coarse costs keep the C<1000 walk closure at <= 2 hops.
      {"link_state", {link("n0", "n1", 400), link("n1", "n0", 400)}},
      {"policy_path_vector",
       {node("n0"), node("n1"), link("n0", "n1", 1), link("n1", "n0", 1),
        Tuple("importPref", {Value::addr("n0"), Value::addr("n1"),
                             Value::integer(100)}),
        Tuple("importPref", {Value::addr("n1"), Value::addr("n0"),
                             Value::integer(100)})}},
      // Directed link: keeps distCand's hop counter from ping-ponging up to
      // its D<100 bound.
      {"spanning_tree", {node("n0"), node("n1"), link("n1", "n0", 1)}},
  };
  for (const auto& [name, f] : facts) {
    Case c;
    c.name = name;
    c.program = ndlog::parse_program(slurp(example_dir() / (name + ".ndlog")),
                                     name + ".ndlog");
    c.spec = ltl::parse_spec(slurp(example_dir() / (name + ".ltl")),
                             name + ".ltl");
    c.violated_spec = ltl::parse_spec(
        slurp(example_dir() / (name + "_violated.ltl")), name + "_violated.ltl");
    c.facts = f;
    EXPECT_FALSE(c.spec.properties.empty()) << name;
    EXPECT_FALSE(c.violated_spec.properties.empty()) << name;
    cases.push_back(std::move(c));
  }
  return cases;
}

// Run the spec's monitors over a simulator execution as a live tuple sink.
std::vector<ltl::MonitorVerdict> sim_monitor_verdicts(const Case& c,
                                                      const ltl::Spec& spec,
                                                      EngineKind engine) {
  ltl::MonitorSet monitors(spec);
  runtime::SimOptions options;
  options.engine = engine;
  options.tuple_sinks.push_back(
      [&monitors](const runtime::TupleEvent& e) { monitors.on_event(e); });
  runtime::Simulator sim(c.program, options);
  sim.inject_all(c.facts);
  const auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced) << c.name;
  EXPECT_GT(monitors.events(), 0u) << c.name;
  return monitors.finish();
}

// Run the spec's monitors live over a cluster execution: the cluster
// serializes its node threads' events into the sink.
std::vector<ltl::MonitorVerdict> cluster_monitor_verdicts(
    const Case& c, const ltl::Spec& spec, net::ClusterOptions options) {
  ltl::MonitorSet monitors(spec);
  options.tuple_sinks.push_back(
      [&monitors](const runtime::TupleEvent& e) { monitors.on_event(e); });
  net::Cluster cluster(c.program, options);
  cluster.inject_all(c.facts);
  const auto stats = cluster.run();
  EXPECT_TRUE(stats.quiesced) << c.name;
  EXPECT_GT(monitors.events(), 0u) << c.name;
  return monitors.finish();
}

void expect_all_satisfied(const std::vector<ltl::MonitorVerdict>& verdicts,
                          const std::string& context) {
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.satisfied) << context << ": " << v.property << ": " << v.formula;
  }
}

void expect_all_fired(const std::vector<ltl::MonitorVerdict>& verdicts,
                      const std::string& context) {
  for (const auto& v : verdicts) {
    EXPECT_FALSE(v.satisfied) << context << ": " << v.property;
    EXPECT_TRUE(v.fired) << context << ": " << v.property
                         << " (violated specs are safety-shaped: the monitor "
                            "must fire mid-trace, not just at finish)";
    EXPECT_GT(v.violation_event, 0u) << context << ": " << v.property;
  }
}

// ---------------------------------------------------------------------------
// Model checker: satisfied specs hold exhaustively, violated specs produce
// lasso counterexamples with full snapshots.
// ---------------------------------------------------------------------------

TEST(LtlCrossval, ModelCheckerVerdicts) {
  for (const auto& c : load_cases()) {
    SCOPED_TRACE(c.name);
    mc::NdlogTransitionSystem ts(c.program);
    const auto initial = ts.initial(c.facts);

    const auto sat = ltl::check_ltl(ts, initial, c.spec);
    EXPECT_TRUE(sat.all_hold());
    EXPECT_TRUE(sat.exhausted());

    const auto viol = ltl::check_ltl(ts, initial, c.violated_spec);
    for (const auto& p : viol.properties) {
      EXPECT_FALSE(p.holds) << p.name;
      EXPECT_FALSE(p.stem.empty()) << p.name;
      EXPECT_FALSE(p.cycle.empty()) << p.name;
      // Full snapshots: some stem state has stored tuples.
      EXPECT_FALSE(p.stem.back().state.stored.empty()) << p.name;
      EXPECT_FALSE(ltl::render_counterexample(p).empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Simulator monitors agree with the model checker, on both engines.
// ---------------------------------------------------------------------------

TEST(LtlCrossval, SimulatorMonitorsAgreeBothEngines) {
  for (const auto& c : load_cases()) {
    for (const EngineKind engine :
         {EngineKind::Interpreter, EngineKind::Dataflow}) {
      const std::string context =
          c.name + (engine == EngineKind::Interpreter ? "/interpreter"
                                                      : "/dataflow");
      SCOPED_TRACE(context);
      expect_all_satisfied(sim_monitor_verdicts(c, c.spec, engine), context);
      expect_all_fired(sim_monitor_verdicts(c, c.violated_spec, engine), context);
    }
  }
}

// ---------------------------------------------------------------------------
// Cluster monitors agree too — threaded nodes, real transports.
// ---------------------------------------------------------------------------

TEST(LtlCrossval, ClusterMonitorsAgreeInprocBothEngines) {
  for (const auto& c : load_cases()) {
    for (const EngineKind engine :
         {EngineKind::Interpreter, EngineKind::Dataflow}) {
      const std::string context =
          c.name + (engine == EngineKind::Interpreter ? "/interpreter"
                                                      : "/dataflow");
      SCOPED_TRACE(context);
      net::ClusterOptions options;
      options.engine = engine;
      expect_all_satisfied(cluster_monitor_verdicts(c, c.spec, options), context);
      expect_all_fired(cluster_monitor_verdicts(c, c.violated_spec, options),
                       context);
    }
  }
}

TEST(LtlCrossval, ClusterMonitorsAgreeUdp) {
  for (const auto& c : load_cases()) {
    SCOPED_TRACE(c.name);
    net::ClusterOptions options;
    options.transport = net::TransportKind::Udp;
    try {
      expect_all_satisfied(cluster_monitor_verdicts(c, c.spec, options),
                           c.name + "/udp");
      expect_all_fired(cluster_monitor_verdicts(c, c.violated_spec, options),
                       c.name + "/udp");
    } catch (const net::TransportError& e) {
      GTEST_SKIP() << "UDP sockets unavailable here: " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Tuple-event stream: folding it reproduces the final databases exactly.
// ---------------------------------------------------------------------------

using Folded = std::map<std::string, std::multiset<std::string>>;

void fold(Folded& db, const runtime::TupleEvent& e) {
  auto& rel = db[e.node];
  const std::string text = e.tuple.to_string();
  if (e.kind == runtime::TupleEvent::Kind::Install) {
    rel.insert(text);
    return;
  }
  const auto it = rel.find(text);
  if (it == rel.end()) {
    ADD_FAILURE() << "retract/expire of a tuple never installed at " << e.node
                  << ": " << text;
    return;
  }
  rel.erase(it);
}

void expect_folds_to(const Folded& folded,
                     const std::function<const ndlog::Database&(
                         const std::string&)>& database,
                     const std::vector<std::string>& nodes) {
  for (const auto& n : nodes) {
    std::multiset<std::string> expected;
    for (const auto& row : database(n).dump()) expected.insert(row);
    const auto it = folded.find(n);
    const std::multiset<std::string> got =
        it == folded.end() ? std::multiset<std::string>{} : it->second;
    EXPECT_EQ(got, expected) << "node " << n;
  }
}

TEST(LtlCrossval, SimulatorTupleStreamFoldsToDatabase) {
  for (const auto& c : load_cases()) {
    SCOPED_TRACE(c.name);
    // The obs trace carries exactly one cat "tuple" instant per sink event,
    // named "<kind> <pred>", in the same order.
    Folded folded;
    std::vector<std::string> names;
    obs::Trace trace;
    runtime::SimOptions options;
    options.obs_trace = &trace;
    options.tuple_sinks.push_back([&folded, &names](const runtime::TupleEvent& e) {
      fold(folded, e);
      names.push_back(std::string(runtime::to_string(e.kind)) + " " +
                      e.tuple.predicate());
    });
    runtime::Simulator sim(c.program, options);
    sim.inject_all(c.facts);
    EXPECT_TRUE(sim.run().quiesced);

    std::vector<std::string> instants;
    for (const auto& e : trace.events()) {
      if (e.phase == 'i' && e.cat == "tuple") instants.push_back(e.name);
    }
    EXPECT_EQ(instants, names);
    EXPECT_FALSE(names.empty());

    expect_folds_to(
        folded,
        [&sim](const std::string& n) -> const ndlog::Database& {
          return sim.database(n);
        },
        sim.nodes());
  }
}

TEST(LtlCrossval, ClusterTupleStreamFoldsToDatabase) {
  for (const auto& c : load_cases()) {
    SCOPED_TRACE(c.name);
    Folded folded;
    std::size_t events = 0;
    net::ClusterOptions options;
    options.tuple_sinks.push_back([&folded, &events](const runtime::TupleEvent& e) {
      fold(folded, e);
      ++events;
    });
    net::Cluster cluster(c.program, options);
    cluster.inject_all(c.facts);
    EXPECT_TRUE(cluster.run().quiesced);
    EXPECT_GT(events, 0u);
    expect_folds_to(
        folded,
        [&cluster](const std::string& n) -> const ndlog::Database& {
          return cluster.database(n);
        },
        cluster.nodes());
  }
}

}  // namespace
}  // namespace fvn
