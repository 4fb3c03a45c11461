// Seeded fuzz oracle for the node executive: random DAG topologies x random
// monotone rulesets, each run on
//   * runtime::Simulator with the interpreter engine,
//   * runtime::Simulator with the dataflow engine,
//   * net::Cluster over the in-process transport, fault-free and with a 20%
//     seeded frame drop rate (reliability masks the loss),
// and every run compared against the centralized ndlog::Evaluator — the
// merged fixpoint and each node's share of it. Both runtimes execute their
// nodes through one runtime::NodeExec, so this widens the differential
// matrices (test_dataflow, ClusterDifferential) beyond the shipped examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/protocols.hpp"
#include "ndlog/catalog.hpp"
#include "ndlog/eval.hpp"
#include "ndlog/parser.hpp"
#include "net/cluster.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using ndlog::Database;
using ndlog::Tuple;
using runtime::EngineKind;

/// Conservative generator: rules drawn from monotone templates (closure,
/// two-hop join, re-join with the base relation, count aggregate). Every
/// generated program is confluent, so every runtime must reach the
/// evaluator's fixpoint exactly.
ndlog::Program fuzz_program(std::mt19937_64& rng) {
  std::string src =
      "f1 reach(@S,D) :- link(@S,D,C).\n"
      "f2 reach(@S,D) :- link(@S,Z,C), reach(@Z,D).\n";
  if (rng() % 2 == 0) {
    src += "f3 direct(@S,D) :- reach(@S,D), link(@S,D,C).\n";
  }
  if (rng() % 2 == 0) {
    src += "f4 hop2(@S,D) :- link(@S,Z,C), link(@Z,D,C2).\n";
  }
  if (rng() % 2 == 0) {
    src += "f5 fanin(@S,count<D>) :- reach(@S,D).\n";
  }
  return ndlog::parse_program(src, "fuzz");
}

/// Acyclic link topologies: edges only i -> j with i < j, unique costs.
std::vector<Tuple> fuzz_topology(std::mt19937_64& rng) {
  const std::size_t n = 4 + rng() % 3;  // 4..6 nodes
  std::vector<core::Link> links;
  long cost = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng() % 3 == 0) continue;  // keep ~2/3 of the forward edges
      links.push_back({"n" + std::to_string(i), "n" + std::to_string(j), cost++});
    }
  }
  if (links.empty()) links.push_back({"n0", "n1", 1});
  return core::link_facts(links);
}

/// The tuples of `db` over the source program's own relations (the runtimes
/// also hold the localized *_sh_* copies), optionally only those located at
/// `node`, as sorted strings.
std::vector<std::string> relations(const Database& db, const ndlog::Catalog& catalog,
                                   const std::string* node = nullptr) {
  std::vector<std::string> out;
  for (const auto& pred : catalog.predicates()) {
    const std::size_t loc = catalog.loc_index(pred);
    for (const auto& t : db.relation(pred)) {
      if (node != nullptr && t.at(loc).as_addr() != *node) continue;
      out.push_back(t.to_string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A runtime's fixpoint: merged, and per node in `nodes` order.
struct Fixpoint {
  std::vector<std::string> merged;
  std::vector<std::vector<std::string>> per_node;
};

template <class Runtime>
Fixpoint fixpoint_of(const Runtime& runtime, const ndlog::Catalog& catalog) {
  Fixpoint fp;
  fp.merged = relations(runtime.merged_database(), catalog);
  for (const auto& node : runtime.nodes()) {
    fp.per_node.push_back(relations(runtime.database(node), catalog, &node));
  }
  return fp;
}

/// The evaluator's fixpoint partitioned over `nodes` by location attribute.
Fixpoint expected_fixpoint(const Database& db, const ndlog::Catalog& catalog,
                           const std::vector<std::string>& nodes) {
  Fixpoint fp;
  fp.merged = relations(db, catalog);
  for (const auto& node : nodes) fp.per_node.push_back(relations(db, catalog, &node));
  return fp;
}

TEST(RuntimeCrossval, FuzzedMonotoneProgramsMatchTheCentralizedEvaluator) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto program = fuzz_program(rng);
    const auto facts = fuzz_topology(rng);
    const auto catalog = ndlog::Catalog::from_program(program);
    const Database reference = ndlog::Evaluator().run(program, facts).database;

    for (const EngineKind engine : {EngineKind::Interpreter, EngineKind::Dataflow}) {
      SCOPED_TRACE(engine == EngineKind::Interpreter ? "sim interpreter" : "sim dataflow");
      runtime::SimOptions options;
      options.engine = engine;
      runtime::Simulator sim(program, options);
      sim.inject_all(facts);
      ASSERT_TRUE(sim.run().quiesced);
      const Fixpoint got = fixpoint_of(sim, catalog);
      const Fixpoint want = expected_fixpoint(reference, catalog, sim.nodes());
      EXPECT_EQ(got.merged, want.merged);
      EXPECT_EQ(got.per_node, want.per_node);
    }

    for (const double drop : {0.0, 0.2}) {
      SCOPED_TRACE("cluster drop " + std::to_string(drop));
      net::ClusterOptions options;
      options.faults.drop_rate = drop;
      options.faults.seed = seed;
      net::Cluster cluster(program, options);
      cluster.inject_all(facts);
      const auto stats = cluster.run();
      ASSERT_TRUE(stats.quiesced);
      // Exactly-once delivery: every first-transmitted batch arrived once.
      EXPECT_EQ(stats.messages_received, stats.messages_sent);
      const Fixpoint got = fixpoint_of(cluster, catalog);
      const Fixpoint want = expected_fixpoint(reference, catalog, cluster.nodes());
      EXPECT_EQ(got.merged, want.merged);
      EXPECT_EQ(got.per_node, want.per_node);
    }
  }
}

}  // namespace
}  // namespace fvn
