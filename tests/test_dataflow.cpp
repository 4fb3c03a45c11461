// fvn::dataflow tests: planner structure (strands, probe selection, dead
// strands, DOT/JSON dumps) and the differential suite pinning the engine's
// contract — interpreter and dataflow executors produce bit-identical
// fixpoints, message counts and convergence times on every shipped example
// program, under loss and delay, for soft-state/periodic protocols, and with
// the incremental-aggregate ablation flipped either way — plus the engine's
// aggregate flush contract (touched groups only, in group-key order).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/protocols.hpp"
#include "dataflow/engine.hpp"
#include "dataflow/plan.hpp"
#include "ndlog/parser.hpp"
#include "obs/metrics.hpp"
#include "runtime/localize.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using core::link_facts;
using dataflow::Element;
using ndlog::Tuple;
using ndlog::Value;
using runtime::EngineKind;
using runtime::SimOptions;
using runtime::SimStats;
using runtime::Simulator;

// ---------------------------------------------------------------------------
// Planner structure
// ---------------------------------------------------------------------------

dataflow::Plan plan_of(const std::string& source,
                       const dataflow::PlanOptions& options = {}) {
  auto program = ndlog::parse_program(source, "plan_test");
  return dataflow::compile(runtime::localize(program), options);
}

const dataflow::Strand* find_strand(const dataflow::Plan& plan,
                                    const std::string& rule_label,
                                    std::size_t delta_position) {
  for (const auto& s : plan.strands) {
    if (s.rule_label == rule_label && s.delta_position == delta_position) return &s;
  }
  return nullptr;
}

std::vector<Element::Kind> kinds_of(const dataflow::Strand& strand) {
  std::vector<Element::Kind> kinds;
  for (const auto& e : strand.elements) kinds.push_back(e.kind);
  return kinds;
}

TEST(Planner, OneStrandPerPositiveAtomPosition) {
  // Localized path-vector: r2 becomes {link, path_sh_r2_1} + ship rule.
  auto plan = plan_of(core::path_vector_source());
  std::map<std::string, std::size_t> per_rule;
  for (const auto& s : plan.strands) ++per_rule[s.rule_label];
  EXPECT_EQ(per_rule.at("r1"), 1u);
  EXPECT_EQ(per_rule.at("r2"), 2u);  // two positive atoms after localization
  EXPECT_EQ(per_rule.at("r4"), 2u);
  // r3 is an aggregate rule: planned separately.
  EXPECT_EQ(per_rule.count("r3"), 0u);
  ASSERT_EQ(plan.aggregates.size(), 1u);
  EXPECT_EQ(plan.aggregates[0].rule_label, "r3");
}

TEST(Planner, StrandShapeDeltaJoinProjectDemux) {
  auto plan = plan_of(core::path_vector_source());
  // r4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
  // Delta on bestPathCost joins path; all of path's bindable args checked.
  const auto* s = find_strand(*&plan, "r4", 0);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->delta_predicate, "bestPathCost");
  EXPECT_FALSE(s->dead);
  auto kinds = kinds_of(*s);
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[0], Element::Kind::Delta);
  EXPECT_EQ(kinds[1], Element::Kind::IndexJoin);
  EXPECT_EQ(kinds[2], Element::Kind::Project);
  EXPECT_EQ(kinds[3], Element::Kind::Demux);
  // Probe column: path's first argument (S), bound by the delta.
  EXPECT_EQ(s->elements[1].predicate, "path");
  EXPECT_EQ(s->elements[1].probe_pos, 0);
}

TEST(Planner, ChecksDischargeEagerly) {
  // The C=C1+C2 bind and the C<1000 select must sit at the first point all
  // their inputs are bound, exactly where the interpreter discharges them.
  auto plan = plan_of(
      "a1 out(@S,C) :- e(@S,A), f(@S,B), C=A+B, C<1000.\n");
  const auto* s = find_strand(plan, "a1", 0);
  ASSERT_NE(s, nullptr);
  auto kinds = kinds_of(*s);
  // Delta(e) -> IndexJoin(f) -> Bind(C) -> Select(C<1000) -> Project -> Demux
  ASSERT_EQ(kinds.size(), 6u);
  EXPECT_EQ(kinds[0], Element::Kind::Delta);
  EXPECT_EQ(kinds[1], Element::Kind::IndexJoin);
  EXPECT_EQ(kinds[2], Element::Kind::Bind);
  EXPECT_EQ(kinds[3], Element::Kind::Select);
  EXPECT_EQ(kinds[4], Element::Kind::Project);
  EXPECT_EQ(kinds[5], Element::Kind::Demux);
}

TEST(Planner, NegatedAtomBecomesNegProbe) {
  auto plan = plan_of(
      "b1 out(@S,D) :- e(@S,D), !blocked(@S,D).\n");
  const auto* s = find_strand(plan, "b1", 0);
  ASSERT_NE(s, nullptr);
  auto kinds = kinds_of(*s);
  ASSERT_GE(kinds.size(), 2u);
  EXPECT_EQ(kinds[1], Element::Kind::NegProbe);
  EXPECT_EQ(s->elements[1].predicate, "blocked");
}

TEST(Planner, ProbeSelectionMatchesInterpreterEnumeration) {
  // The interpreter enumerates atoms in body order with the delta at its
  // original position. For delta = e (position 0), g is joined after S is
  // bound -> index probe on g's first column. For delta = g (position 1),
  // e is enumerated *before* the delta binds anything -> full scan, with
  // the Delta element sitting downstream at its body position.
  auto plan = plan_of("c1 out(@S,D) :- e(@S,D), g(@S).\n");

  const auto* d0 = find_strand(plan, "c1", 0);
  ASSERT_NE(d0, nullptr);
  ASSERT_GE(d0->elements.size(), 2u);
  EXPECT_EQ(d0->elements[0].kind, Element::Kind::Delta);
  EXPECT_EQ(d0->elements[1].kind, Element::Kind::IndexJoin);
  EXPECT_EQ(d0->elements[1].predicate, "g");
  EXPECT_EQ(d0->elements[1].probe_pos, 0);

  const auto* d1 = find_strand(plan, "c1", 1);
  ASSERT_NE(d1, nullptr);
  ASSERT_GE(d1->elements.size(), 2u);
  EXPECT_EQ(d1->elements[0].kind, Element::Kind::Scan);
  EXPECT_EQ(d1->elements[0].predicate, "e");
  EXPECT_EQ(d1->elements[1].kind, Element::Kind::Delta);
}

TEST(Planner, AggregateRuleGetsAggregateTerminal) {
  auto plan = plan_of(core::path_vector_source());
  ASSERT_EQ(plan.aggregates.size(), 1u);
  const auto& agg = plan.aggregates[0];
  EXPECT_TRUE(agg.incremental);
  EXPECT_EQ(agg.kind, ndlog::AggKind::Min);
  ASSERT_EQ(agg.strands.size(), 1u);  // one positive atom (path)
  const auto& strand = agg.strands[0];
  ASSERT_FALSE(strand.elements.empty());
  EXPECT_EQ(strand.elements.back().kind, Element::Kind::Aggregate);
  EXPECT_TRUE(agg.body_predicates.count("path"));
}

TEST(Planner, SelfJoinAggregateFallsBackToRecompute) {
  auto plan = plan_of(
      "materialize(e, infinity, infinity, keys(1,2)).\n"
      "j1 m(@S,min<C>) :- e(@S,A), e(@S,C).\n");
  ASSERT_EQ(plan.aggregates.size(), 1u);
  EXPECT_FALSE(plan.aggregates[0].incremental);
  EXPECT_FALSE(plan.aggregates[0].mode_reason.empty());
}

TEST(Planner, AblationForcesRecompute) {
  dataflow::PlanOptions options;
  options.incremental_aggregates = false;
  auto plan = plan_of(core::path_vector_source(), options);
  ASSERT_EQ(plan.aggregates.size(), 1u);
  EXPECT_FALSE(plan.aggregates[0].incremental);
}

TEST(Planner, DumpsAreWellFormed) {
  auto plan = plan_of(core::path_vector_source());
  EXPECT_GT(plan.element_count(), 0u);

  const std::string dot = plan.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));

  const std::string json = plan.to_json();
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"strands\""), std::string::npos);
  EXPECT_NE(json.find("\"aggregates\""), std::string::npos);

  EXPECT_FALSE(plan.summary().empty());
}

// ---------------------------------------------------------------------------
// Aggregate flush contract: Engine::flush_aggregate reports the groups
// touched since the last flush, in group-key order, each with its current
// row or gone; the recompute fallback reports every group.
// ---------------------------------------------------------------------------

/// One node's engine over one min<> aggregate, with the database the
/// executive would keep in step through the mirror hooks.
struct AggBench {
  explicit AggBench(bool incremental) {
    dataflow::PlanOptions options;
    options.incremental_aggregates = incremental;
    plan = plan_of("materialize(cost, infinity, infinity, keys(1,2,3)).\n"
                   "g1 best(@S,D,min<C>) :- cost(@S,D,C).\n",
                   options);
    engine.emplace(plan, ndlog::BuiltinRegistry::standard());
  }
  static Tuple cost(const std::string& dst, long c) {
    return Tuple("cost", {Value::addr("n0"), Value::addr(dst), Value::integer(c)});
  }
  void install(const std::string& dst, long c) {
    ASSERT_TRUE(db.insert(cost(dst, c)));
    engine->on_insert(cost(dst, c), db);
  }
  void erase(const std::string& dst, long c) {
    ASSERT_TRUE(db.erase(cost(dst, c)));
    engine->on_erase(cost(dst, c), db);
  }
  dataflow::AggFlush flush() { return engine->flush_aggregate(0, db); }

  dataflow::Plan plan;
  ndlog::Database db;
  std::optional<dataflow::Engine> engine;
};

/// "best(n0,d1,7)" for a present group, "-best(n0,d1,...)" for a gone one.
std::vector<std::string> reported(const dataflow::AggFlush& flush) {
  std::vector<std::string> out;
  for (const auto& g : flush.groups) {
    if (g.present) {
      out.push_back(g.row.to_string());
    } else {
      out.push_back("-best(" + g.row.at(0).to_string() + "," + g.row.at(1).to_string() +
                    ")");
    }
  }
  return out;
}

TEST(AggFlush, ReportsExactlyTheTouchedGroupsInKeyOrder) {
  AggBench b(/*incremental=*/true);
  b.install("d2", 5);
  b.install("d0", 3);
  b.install("d1", 7);
  auto first = b.flush();
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(reported(first), (std::vector<std::string>{
                                 "best(n0,d0,3)", "best(n0,d1,7)", "best(n0,d2,5)"}));
  // d3 stays untouched from here on; d2 is touched without its min moving.
  b.install("d3", 4);
  EXPECT_EQ(reported(b.flush()), std::vector<std::string>{"best(n0,d3,4)"});
  b.install("d2", 9);
  b.erase("d0", 3);
  b.install("d1", 2);
  EXPECT_EQ(reported(b.flush()), (std::vector<std::string>{
                                     "-best(n0,d0)", "best(n0,d1,2)", "best(n0,d2,5)"}));
  // Erasing the best value reports the next one.
  b.erase("d1", 2);
  EXPECT_EQ(reported(b.flush()), std::vector<std::string>{"best(n0,d1,7)"});
}

TEST(AggFlush, FlushWithoutMutationReportsNothing) {
  for (const bool incremental : {true, false}) {
    AggBench b(incremental);
    EXPECT_TRUE(b.flush().groups.empty());
    b.install("d0", 1);
    EXPECT_EQ(b.flush().groups.size(), 1u);
    const auto again = b.flush();
    EXPECT_TRUE(again.groups.empty()) << "incremental=" << incremental;
    EXPECT_FALSE(again.complete);
  }
}

TEST(AggFlush, GroupThatAppearsAndVanishesBetweenFlushesIsNotReported) {
  AggBench b(/*incremental=*/true);
  b.install("d0", 1);
  b.flush();
  b.install("d5", 2);
  b.install("d5", 3);
  b.erase("d5", 2);
  b.erase("d5", 3);
  EXPECT_TRUE(b.flush().groups.empty());
  // A group that existed at the last flush and vanished is reported gone.
  b.erase("d0", 1);
  EXPECT_EQ(reported(b.flush()), std::vector<std::string>{"-best(n0,d0)"});
}

TEST(AggFlush, RecomputeFallbackReportsEveryGroup) {
  AggBench b(/*incremental=*/false);
  b.install("d1", 4);
  b.install("d0", 6);
  b.flush();
  b.install("d1", 1);
  const auto flush = b.flush();
  EXPECT_TRUE(flush.complete);
  EXPECT_EQ(reported(flush),
            (std::vector<std::string>{"best(n0,d0,6)", "best(n0,d1,1)"}));
}

/// Folds flushes into the rows last emitted per group (keyed by the group
/// columns) and returns each flush's diff: "-row" for every row that left,
/// then "+row" for every row that arrived, each in group-key order.
struct DiffFold {
  std::map<std::vector<Value>, Tuple> emitted;

  std::vector<std::string> apply(const dataflow::AggFlush& flush) {
    const auto key_of = [](const Tuple& row) {
      return std::vector<Value>{row.at(0), row.at(1)};
    };
    std::map<std::vector<Value>, std::optional<Tuple>> changes;
    if (flush.complete) {
      for (const auto& [key, row] : emitted) changes[key] = std::nullopt;
    }
    for (const auto& g : flush.groups) {
      changes[key_of(g.row)] = g.present ? std::optional<Tuple>(g.row) : std::nullopt;
    }
    std::vector<std::string> left;
    std::vector<std::string> arrived;
    for (const auto& [key, row] : changes) {
      auto it = emitted.find(key);
      if (it != emitted.end() && row && it->second == *row) continue;
      if (it != emitted.end()) {
        left.push_back("-" + it->second.to_string());
        emitted.erase(it);
      }
      if (row) {
        arrived.push_back("+" + row->to_string());
        emitted.emplace(key, *row);
      }
    }
    left.insert(left.end(), arrived.begin(), arrived.end());
    return left;
  }
};

TEST(AggFlush, RecomputeFallbackYieldsTheIncrementalDiffSequence) {
  AggBench inc(/*incremental=*/true);
  AggBench rec(/*incremental=*/false);
  DiffFold inc_fold;
  DiffFold rec_fold;
  std::mt19937_64 rng(0xa66u);
  std::set<std::pair<std::string, long>> present;
  std::size_t diffs = 0;
  for (int step = 0; step < 400; ++step) {
    const std::string dst = "d" + std::to_string(rng() % 6);
    const long c = static_cast<long>(rng() % 5);
    if (present.erase({dst, c}) != 0) {
      inc.erase(dst, c);
      rec.erase(dst, c);
    } else {
      present.emplace(dst, c);
      inc.install(dst, c);
      rec.install(dst, c);
    }
    if (rng() % 3 != 0) continue;  // several mutations per flush
    const auto a = inc_fold.apply(inc.flush());
    const auto b = rec_fold.apply(rec.flush());
    ASSERT_EQ(a, b) << "step " << step;
    diffs += a.size();
  }
  EXPECT_GT(diffs, 50u);
  EXPECT_EQ(inc_fold.emitted, rec_fold.emitted);
}

// ---------------------------------------------------------------------------
// Differential suite: interpreter vs dataflow
// ---------------------------------------------------------------------------

/// One tuple event, copied out of the sink's view.
struct Event {
  runtime::TupleEvent::Kind kind;
  std::string node;
  Tuple tuple;
  double now;
  bool operator==(const Event&) const = default;
};

std::string describe(const Event& e) {
  return std::string(runtime::to_string(e.kind)) + " " + e.node + " " +
         e.tuple.to_string() + " @" + std::to_string(e.now);
}

struct RunResult {
  SimStats stats;
  std::map<std::string, std::vector<std::string>> dbs;
  std::vector<Event> events;  // every tuple event, in emission order
};

struct Workload {
  std::vector<Tuple> facts;
  std::vector<std::pair<Tuple, double>> retractions;
};

RunResult run_one(const ndlog::Program& program, const Workload& workload,
                  SimOptions options, EngineKind engine) {
  options.engine = engine;
  RunResult result;
  options.tuple_sinks.push_back([&result](const runtime::TupleEvent& e) {
    result.events.push_back(Event{e.kind, e.node, e.tuple, e.now});
  });
  Simulator sim(program, options);
  sim.inject_all(workload.facts);
  for (const auto& [tuple, at] : workload.retractions) sim.retract(tuple, at);
  result.stats = sim.run();
  for (const auto& node : sim.nodes()) result.dbs[node] = sim.database(node).dump();
  return result;
}

/// Run under both engines and require the observable behavior to be
/// *identical*: same event/message/drop counts, same convergence instant,
/// same tuple-event sequence (kind, node, tuple, time), same per-node
/// database contents. This is the operational-equivalence contract of
/// DESIGN.md §10.
void expect_engines_agree(const ndlog::Program& program, const Workload& workload,
                          const SimOptions& options, const std::string& label) {
  SCOPED_TRACE(label);
  auto a = run_one(program, workload, options, EngineKind::Interpreter);
  auto b = run_one(program, workload, options, EngineKind::Dataflow);

  EXPECT_EQ(a.stats.events_processed, b.stats.events_processed);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.messages_dropped, b.stats.messages_dropped);
  EXPECT_EQ(a.stats.tuples_derived, b.stats.tuples_derived);
  EXPECT_EQ(a.stats.overwrites, b.stats.overwrites);
  EXPECT_EQ(a.stats.expirations, b.stats.expirations);
  EXPECT_EQ(a.stats.quiesced, b.stats.quiesced);
  EXPECT_DOUBLE_EQ(a.stats.last_change_time, b.stats.last_change_time);
  EXPECT_EQ(a.stats.last_change_by_predicate, b.stats.last_change_by_predicate);

  EXPECT_EQ(a.events.size(), b.events.size());
  const auto diverge = std::mismatch(a.events.begin(), a.events.end(), b.events.begin(),
                                     b.events.end());
  if (diverge.first != a.events.end() || diverge.second != b.events.end()) {
    ADD_FAILURE() << "tuple events diverge at #" << (diverge.first - a.events.begin())
                  << ": interpreter "
                  << (diverge.first != a.events.end() ? describe(*diverge.first) : "<end>")
                  << ", dataflow "
                  << (diverge.second != b.events.end() ? describe(*diverge.second)
                                                       : "<end>");
  }

  ASSERT_EQ(a.dbs.size(), b.dbs.size());
  for (const auto& [node, rows] : a.dbs) {
    ASSERT_TRUE(b.dbs.count(node)) << node;
    EXPECT_EQ(rows, b.dbs.at(node)) << "node " << node;
  }
}

Workload topology_workload(const std::vector<core::Link>& links,
                           bool with_nodes = false, bool with_pref = false) {
  Workload w;
  std::set<std::string> names;
  for (const auto& l : links) {
    names.insert(l.src);
    names.insert(l.dst);
  }
  if (with_nodes) {
    for (const auto& n : names) w.facts.emplace_back("node", std::vector<Value>{Value::addr(n)});
  }
  for (const auto& t : link_facts(links)) w.facts.push_back(t);
  if (with_pref) {
    for (const auto& l : links) {
      w.facts.emplace_back(
          "importPref",
          std::vector<Value>{Value::addr(l.src), Value::addr(l.dst), Value::integer(100)});
    }
  }
  return w;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Differential, EveryExampleProgramAgrees) {
  const std::filesystem::path dir =
      std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog";
  std::size_t tested = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".ndlog") continue;
    const std::string name = entry.path().filename().string();
    auto program = ndlog::parse_program(slurp(entry.path()), name);

    const bool policy = name == "policy_path_vector.ndlog";
    const bool tree = name == "spanning_tree.ndlog";
    auto links = core::random_topology(5, 2, 7);
    SimOptions options;
    if (name == "distance_vector.ndlog") {
      // DV counts to infinity on cyclic topologies; compare the truncated
      // prefix — both engines process the identical event stream.
      options.max_events = 2'000;
    } else if (name == "link_state.ndlog") {
      // link_state's C<1000 closure enumerates every walk cost below the
      // bound; with 400-cost links only 1- and 2-hop walks survive, so the
      // run stays small and quiesces.
      links = core::line_topology(3, /*cost=*/400);
    }
    auto workload = topology_workload(links, /*with_nodes=*/policy || tree,
                                      /*with_pref=*/policy);
    expect_engines_agree(program, workload, options, name);
    ++tested;
  }
  EXPECT_GE(tested, 6u);
}

TEST(Differential, PathVectorUnderLossAndDelaySeeds) {
  // Seeded loss means the engines must consume rng draws in exactly the same
  // order — any divergence in message emission order shows up here.
  auto program = core::path_vector_program();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto workload = topology_workload(core::random_topology(6, 3, seed));
    SimOptions options;
    options.seed = seed;
    options.loss_rate = 0.2;
    options.default_link_delay = 0.05;
    expect_engines_agree(program, workload, options,
                         "path_vector loss seed=" + std::to_string(seed));
  }
}

TEST(Differential, PolicyPathVectorWithFiltersAgrees) {
  // E5 flavor: export/import deny lists and mixed local-prefs exercise the
  // negated-atom (NegProbe) path and the max<>-then-min<> aggregate cascade.
  auto program = core::policy_path_vector_program();
  auto links = core::ring_topology(5);
  auto workload = topology_workload(links, /*with_nodes=*/true, /*with_pref=*/false);
  std::uint64_t i = 0;
  for (const auto& l : links) {
    workload.facts.emplace_back(
        "importPref", std::vector<Value>{Value::addr(l.src), Value::addr(l.dst),
                                         Value::integer(100 + 10 * (i++ % 3))});
  }
  workload.facts.emplace_back(
      "exportDeny", std::vector<Value>{Value::addr("n0"), Value::addr("n1"),
                                       Value::addr("n3")});
  workload.facts.emplace_back(
      "importDeny", std::vector<Value>{Value::addr("n2"), Value::addr("n3"),
                                       Value::addr("n0")});
  expect_engines_agree(program, workload, SimOptions{}, "policy ring");
}

/// Periodic soft-state DV (the E8 native-soft-state workload of
/// test_runtime_cti.cpp): expirations, refreshes, periodic events and a
/// mid-run link retraction, under an unstratified program.
const char* kSoftDv = R"(
  materialize(link, infinity, infinity, keys(1,2)).
  materialize(own, infinity, infinity, keys(1,2)).
  materialize(adv, 2.5, infinity, keys(1,2,3)).
  materialize(hop, 2.5, infinity, keys(1,2,3)).
  materialize(bestHopCost, infinity, infinity, keys(1,2)).
  materialize(bestHop, infinity, infinity, keys(1,2)).

  c0 adv(@M,D,D,C) :- periodic(@D,I), own(@D,D), link(@D,M,C1), C=0.
  c2 hop(@N,D,M,C) :- periodic(@N,I), adv(@N,M,D,C2), link(@N,M,C1), C=C1+C2, N != D.
  c3 bestHopCost(@N,D,min<C>) :- hop(@N,D,M,C).
  c4 bestHop(@N,D,M,C) :- bestHopCost(@N,D,C), hop(@N,D,M,C).
  c5 adv(@M,N,D,C) :- periodic(@N,I), bestHop(@N,D,Z,C), link(@N,M,C1).
)";

TEST(Differential, SoftStatePeriodicWithRetractionAgrees) {
  auto program = ndlog::parse_program(kSoftDv, "soft_dv");
  Workload workload = topology_workload(core::line_topology(3));
  workload.facts.emplace_back("own",
                              std::vector<Value>{Value::addr("n0"), Value::addr("n0")});
  workload.retractions.emplace_back(
      Tuple("link", {Value::addr("n1"), Value::addr("n0"), Value::integer(1)}), 4.6);
  SimOptions options;
  options.max_periodic_rounds = 12;
  options.periodic_interval = 1.0;
  options.require_stratified = false;
  expect_engines_agree(program, workload, options, "soft_dv retraction");
}

TEST(Differential, IncrementalAblationMatchesIncremental) {
  // The recompute fallback and incremental view maintenance must be
  // indistinguishable from the outside (same flush diffs in the same order).
  auto program = core::path_vector_program();
  auto workload = topology_workload(core::random_topology(6, 3, 11));
  SimOptions options;
  options.engine = EngineKind::Dataflow;

  options.incremental_aggregates = true;
  auto inc = run_one(program, workload, options, EngineKind::Dataflow);
  options.incremental_aggregates = false;
  auto rec = run_one(program, workload, options, EngineKind::Dataflow);

  EXPECT_EQ(inc.stats.messages_sent, rec.stats.messages_sent);
  EXPECT_EQ(inc.stats.events_processed, rec.stats.events_processed);
  EXPECT_DOUBLE_EQ(inc.stats.last_change_time, rec.stats.last_change_time);
  EXPECT_EQ(inc.dbs, rec.dbs);
  EXPECT_TRUE(inc.events == rec.events);
}

// ---------------------------------------------------------------------------
// Integration details
// ---------------------------------------------------------------------------

TEST(DataflowSim, ExposesPlanAndElementCounters) {
  obs::Registry registry;
  SimOptions options;
  options.engine = EngineKind::Dataflow;
  options.metrics = &registry;
  Simulator sim(core::path_vector_program(), options);
  EXPECT_NE(sim.plan(), nullptr);
  sim.inject_all(link_facts(core::line_topology(4)));
  auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced);
  // Per-element in/out counters were recorded under dataflow/elem/...
  EXPECT_GT(registry.sum_counters_with_prefix("dataflow/elem/"), 0u);
}

TEST(DataflowSim, InterpreterModeHasNoPlan) {
  Simulator sim(core::path_vector_program(), SimOptions{});
  EXPECT_EQ(sim.plan(), nullptr);
}

TEST(Localize, ShipRulesCarrySourceSpans) {
  // Satellite bugfix: generated *_sh_* rules are stamped with the span of the
  // rule they came from, so diagnostics about them point at user code.
  auto program = core::path_vector_program();
  const ndlog::Rule* r2 = nullptr;
  for (const auto& r : program.rules) {
    if (r.name == "r2") r2 = &r;
  }
  ASSERT_NE(r2, nullptr);
  ASSERT_NE(r2->loc.line, 0);

  auto localized = runtime::localize(program);
  bool saw_ship = false;
  for (const auto& r : localized.rules) {
    if (r.name.find("_sh_") == std::string::npos) continue;
    saw_ship = true;
    EXPECT_EQ(r.loc.line, r2->loc.line);
    EXPECT_NE(r.head.loc.line, 0);
  }
  EXPECT_TRUE(saw_ship);
}

}  // namespace
}  // namespace fvn
