// fvn::net differential suite — the correctness statement of DESIGN.md §12:
// for every shipped example program, the threaded Cluster (real concurrency,
// real frames on a transport) reaches the *identical* merged fixpoint as the
// discrete-event runtime::Simulator, on both engines, on both transports, and
// under seeded fault injection with the ack+retransmit layer enabled.
//
// Workloads are chosen so the fixpoint is interleaving-independent (unique
// aggregate argmins, acyclic where the protocol diverges on cycles): the
// cluster's thread schedule is genuinely nondeterministic, so only confluent
// workloads admit an exact differential check. Order-sensitive runs are the
// semantic analyzer's ND0017 territory, pinned elsewhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/protocols.hpp"
#include "ndlog/parser.hpp"
#include "net/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using core::link_facts;
using ndlog::Tuple;
using ndlog::Value;
using runtime::EngineKind;

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

ndlog::Program example_program(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog" / name;
  return ndlog::parse_program(slurp(path), name);
}

/// A confluent workload for each example: the merged fixpoint must not depend
/// on message interleaving (unique argmins, no count-to-infinity).
std::vector<Tuple> example_workload(const std::string& name) {
  std::vector<Tuple> facts;
  const auto add_nodes_and_prefs = [&facts](const std::vector<core::Link>& links,
                                            bool with_nodes, bool with_pref) {
    std::set<std::string> names;
    for (const auto& l : links) {
      names.insert(l.src);
      names.insert(l.dst);
    }
    if (with_nodes) {
      for (const auto& n : names) {
        facts.emplace_back("node", std::vector<Value>{Value::addr(n)});
      }
    }
    for (const auto& t : link_facts(links)) facts.push_back(t);
    if (with_pref) {
      for (const auto& l : links) {
        facts.emplace_back("importPref",
                           std::vector<Value>{Value::addr(l.src), Value::addr(l.dst),
                                              Value::integer(100)});
      }
    }
  };
  if (name == "distance_vector.ndlog") {
    // Directed acyclic: DV counts to infinity on any cycle, and only a DAG
    // with unique per-(S,D) argmin costs makes bestHop interleaving-free.
    facts = link_facts({{"n0", "n1", 1},
                        {"n1", "n2", 2},
                        {"n2", "n3", 1},
                        {"n0", "n2", 5}});
  } else if (name == "link_state.ndlog") {
    // Coarse costs keep the C<1000 walk closure at <= 2 hops.
    add_nodes_and_prefs(core::line_topology(4, /*cost=*/400), false, false);
  } else if (name == "policy_path_vector.ndlog") {
    add_nodes_and_prefs(core::line_topology(4), true, true);
  } else if (name == "spanning_tree.ndlog") {
    add_nodes_and_prefs(core::line_topology(4), true, false);
  } else {
    // reachable / path_vector: unique simple paths on a line; reachable is
    // monotone anywhere but keeps the same 4-node line for uniformity.
    add_nodes_and_prefs(core::line_topology(4), false, false);
  }
  return facts;
}

std::vector<std::string> example_names() {
  std::vector<std::string> names;
  const std::filesystem::path dir =
      std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ndlog") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> sim_fixpoint(const ndlog::Program& program,
                                      const std::vector<Tuple>& facts,
                                      EngineKind engine) {
  runtime::SimOptions options;
  options.engine = engine;
  runtime::Simulator sim(program, options);
  sim.inject_all(facts);
  const auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced);
  return sim.merged_database().dump();
}

struct ClusterRun {
  std::vector<std::string> fixpoint;
  net::ClusterStats stats;
  std::size_t node_count = 0;
};

ClusterRun cluster_fixpoint(const ndlog::Program& program,
                            const std::vector<Tuple>& facts,
                            net::ClusterOptions options) {
  net::Cluster cluster(program, options);
  cluster.inject_all(facts);
  ClusterRun run;
  run.stats = cluster.run();
  run.node_count = cluster.nodes().size();
  run.fixpoint = cluster.merged_database().dump();
  return run;
}

// ---------------------------------------------------------------------------
// Core differential: every example, both engines, vs the simulator
// ---------------------------------------------------------------------------

TEST(ClusterDifferential, EveryExampleMatchesSimulatorBothEngines) {
  for (const auto& name : example_names()) {
    SCOPED_TRACE(name);
    const auto program = example_program(name);
    const auto facts = example_workload(name);
    const auto expected = sim_fixpoint(program, facts, EngineKind::Interpreter);
    // Sanity: the reference fixpoint itself is engine-independent.
    EXPECT_EQ(expected, sim_fixpoint(program, facts, EngineKind::Dataflow));

    for (const EngineKind engine :
         {EngineKind::Interpreter, EngineKind::Dataflow}) {
      SCOPED_TRACE(engine == EngineKind::Interpreter ? "interpreter" : "dataflow");
      net::ClusterOptions options;
      options.engine = engine;
      const auto run = cluster_fixpoint(program, facts, options);
      EXPECT_GE(run.node_count, 4u);
      EXPECT_TRUE(run.stats.quiesced);
      EXPECT_EQ(run.fixpoint, expected);
      // Reliable channels deliver exactly once: every first transmission is
      // eventually received and acked exactly once. (Retransmits may still
      // occur on a fault-free transport when a receiver is slower than the
      // backoff — e.g. under TSan — but dedup keeps them invisible here.)
      EXPECT_EQ(run.stats.messages_received, run.stats.messages_sent);
      EXPECT_EQ(run.stats.acked, run.stats.messages_sent);
      EXPECT_EQ(run.stats.transport.frames_dropped, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Fault injection: retransmit masks seeded loss/dup/reorder/delay
// ---------------------------------------------------------------------------

TEST(ClusterDifferential, LossWithRetransmitStillMatches) {
  for (const auto& name : example_names()) {
    SCOPED_TRACE(name);
    const auto program = example_program(name);
    const auto facts = example_workload(name);
    const auto expected = sim_fixpoint(program, facts, EngineKind::Interpreter);
    for (const std::uint64_t seed : {3ull, 17ull, 40ull}) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      net::ClusterOptions options;
      options.faults.drop_rate = 0.2;
      options.faults.seed = seed;
      const auto run = cluster_fixpoint(program, facts, options);
      EXPECT_TRUE(run.stats.quiesced);
      EXPECT_EQ(run.fixpoint, expected);
      // Exactly-once delivery holds under loss too.
      EXPECT_EQ(run.stats.messages_received, run.stats.messages_sent);
      EXPECT_EQ(run.stats.acked, run.stats.messages_sent);
    }
  }
}

TEST(ClusterDifferential, AllFaultsAtOnceStillMatches) {
  const auto program = example_program("path_vector.ndlog");
  const auto facts = example_workload("path_vector.ndlog");
  const auto expected = sim_fixpoint(program, facts, EngineKind::Interpreter);
  net::ClusterOptions options;
  options.engine = EngineKind::Dataflow;
  options.faults.drop_rate = 0.15;
  options.faults.duplicate_rate = 0.15;
  options.faults.reorder_rate = 0.25;
  options.faults.delay_ms = 2.0;
  options.faults.seed = 9;
  const auto run = cluster_fixpoint(program, facts, options);
  EXPECT_TRUE(run.stats.quiesced);
  EXPECT_EQ(run.fixpoint, expected);
  EXPECT_EQ(run.stats.messages_received, run.stats.messages_sent);
}

TEST(ClusterDifferential, RawModeMatchesOnFaultFreeTransport) {
  const auto program = example_program("reachable.ndlog");
  const auto facts = example_workload("reachable.ndlog");
  const auto expected = sim_fixpoint(program, facts, EngineKind::Interpreter);
  net::ClusterOptions options;
  options.reliability.enabled = false;  // no acks, no seqs; transport is exact
  const auto run = cluster_fixpoint(program, facts, options);
  EXPECT_TRUE(run.stats.quiesced);
  EXPECT_EQ(run.fixpoint, expected);
  EXPECT_EQ(run.stats.acked, 0u);
}

// ---------------------------------------------------------------------------
// Termination detection: no early quiescence
// ---------------------------------------------------------------------------

/// Bidirectional ring with seeded symmetric costs in [1,10] and an odd total,
/// so the two ways round never tie: the path-vector fixpoint is unique.
std::vector<Tuple> seeded_cost_ring(std::size_t nodes, std::uint64_t seed) {
  auto links = core::ring_topology(nodes);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> cost(1, 10);
  for (std::size_t i = 0; i + 1 < links.size(); i += 2) {
    links[i].cost = links[i + 1].cost = cost(rng);
  }
  std::int64_t total = 0;
  for (std::size_t i = 0; i < links.size(); i += 2) total += links[i].cost;
  if (total % 2 == 0) links[0].cost = links[1].cost = links[0].cost + 1;
  return link_facts(links);
}

/// Busy threads, one per hardware thread, for the lifetime of the object.
class CpuContention {
 public:
  CpuContention() {
    const unsigned n = std::max(2u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        std::uint64_t x = 0;
        while (!stop_.load(std::memory_order_relaxed)) x = x * 6364136223846793005ULL + 1;
        sink_.fetch_add(x, std::memory_order_relaxed);
      });
    }
  }
  CpuContention(const CpuContention&) = delete;
  CpuContention& operator=(const CpuContention&) = delete;
  ~CpuContention() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> sink_{0};
  std::vector<std::thread> threads_;
};

/// The coordinator may only declare quiescence once every derivation has
/// left its node. A node that drains a frame after an empty sweep must stop
/// reading as idle before it handles the frame; otherwise, while it is
/// descheduled between handling and flushing, the coordinator sees every node
/// idle, the transport quiet and activity stable, and stops the run with the
/// frame's derivations still in the node's channel buffers. The pv-cluster
/// shape (path-vector, dataflow, in-process transport, seeded ring) runs in a
/// loop against the Simulator's fixpoint while busy threads force node
/// threads off their cores. Raw mode keeps the whole frame handling inside
/// the window (with acks on, the sender's unacked batch covers it until the
/// ack leaves), so the loop exposes the defect within its time budget.
TEST(ClusterQuiescence, PathVectorRingUnderContentionNeverStopsEarly) {
  const auto program = ndlog::parse_program(core::path_vector_source(), "path_vector");
  const auto facts = seeded_cost_ring(16, 7);
  const auto expected = sim_fixpoint(program, facts, EngineKind::Dataflow);
  net::ClusterOptions options;
  options.engine = EngineKind::Dataflow;
  options.reliability.enabled = false;
  CpuContention contention;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(6);
  for (int run = 0; run < 120 && std::chrono::steady_clock::now() < deadline; ++run) {
    const auto got = cluster_fixpoint(program, facts, options);
    ASSERT_TRUE(got.stats.quiesced) << "run " << run;
    ASSERT_EQ(got.fixpoint, expected) << "run " << run << " stopped early";
  }
}

/// The cluster calls its tuple sinks one at a time although every node thread
/// emits: the first sink guards itself with a plain (non-atomic) flag, so an
/// unserialized call shows as a data race under TSan and as an overlap count
/// here. The second folds the stream into per-node multisets, which must be
/// exactly each node's final database even with 20% of frames dropped and
/// retransmitted.
TEST(ClusterTupleSinks, SerializedAcrossNodeThreadsAndFoldToEachDatabase) {
  const auto program = ndlog::parse_program(core::path_vector_source(), "path_vector");
  net::ClusterOptions options;
  options.engine = EngineKind::Dataflow;
  options.transport = net::TransportKind::InProc;
  options.faults.drop_rate = 0.2;
  options.faults.seed = 5;
  bool inside = false;
  std::size_t overlaps = 0;
  std::size_t calls = 0;
  options.tuple_sinks.push_back([&](const runtime::TupleEvent&) {
    if (inside) ++overlaps;
    inside = true;
    ++calls;
    std::this_thread::yield();  // widen the window an unserialized call would hit
    inside = false;
  });
  std::map<std::string, std::multiset<std::string>> folded;
  options.tuple_sinks.push_back([&folded](const runtime::TupleEvent& e) {
    auto& rel = folded[e.node];
    if (e.kind == runtime::TupleEvent::Kind::Install) {
      rel.insert(e.tuple.to_string());
    } else if (const auto it = rel.find(e.tuple.to_string()); it != rel.end()) {
      rel.erase(it);
    } else {
      ADD_FAILURE() << "removal of a tuple never installed at " << e.node;
    }
  });
  net::Cluster cluster(program, options);
  cluster.inject_all(seeded_cost_ring(16, 11));
  const auto stats = cluster.run();
  ASSERT_TRUE(stats.quiesced);
  EXPECT_GT(stats.retransmitted, 0u);
  EXPECT_EQ(overlaps, 0u);
  EXPECT_GE(calls, stats.tuples_installed);
  for (const auto& n : cluster.nodes()) {
    const auto rows = cluster.database(n).dump();
    EXPECT_EQ(folded[n], std::multiset<std::string>(rows.begin(), rows.end())) << n;
  }
}

// ---------------------------------------------------------------------------
// UDP transport (loopback sockets; skipped cleanly where unavailable)
// ---------------------------------------------------------------------------

TEST(ClusterUdp, MatchesSimulatorAndSurvivesLoss) {
  const auto program = example_program("path_vector.ndlog");
  const auto facts = example_workload("path_vector.ndlog");
  const auto expected = sim_fixpoint(program, facts, EngineKind::Interpreter);
  for (const double loss : {0.0, 0.2}) {
    SCOPED_TRACE("loss " + std::to_string(loss));
    net::ClusterOptions options;
    options.transport = net::TransportKind::Udp;
    options.faults.drop_rate = loss;
    options.faults.seed = 5;
    try {
      const auto run = cluster_fixpoint(program, facts, options);
      EXPECT_TRUE(run.stats.quiesced);
      EXPECT_EQ(run.fixpoint, expected);
    } catch (const net::TransportError& e) {
      GTEST_SKIP() << "UDP sockets unavailable here: " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Scope guards, observability, termination bookkeeping
// ---------------------------------------------------------------------------

TEST(Cluster, RejectsSoftStateAndPeriodicPrograms) {
  const auto soft = ndlog::parse_program(
      "materialize(link, 30, infinity, keys(1,2)).\n"
      "r1 reach(@S,D) :- link(@S,D,_C).\n",
      "soft");
  EXPECT_THROW(net::Cluster{soft}, net::ClusterError);

  const auto periodic = ndlog::parse_program(
      "p1 ping(@N,T) :- periodic(@N,T).\n", "periodic");
  net::ClusterOptions lax;
  lax.require_stratified = false;
  EXPECT_THROW(net::Cluster(periodic, lax), net::ClusterError);
}

TEST(Cluster, RunWithoutFactsThrows) {
  const auto program = example_program("reachable.ndlog");
  net::Cluster cluster(program, {});
  EXPECT_THROW((void)cluster.run(), net::ClusterError);
}

TEST(Cluster, ReceiveOnlyNodesAreRegisteredFromFactAddresses) {
  // n3 appears only as a link *destination*; shipped tuples must still have
  // a live mailbox there.
  const auto program = example_program("reachable.ndlog");
  net::Cluster cluster(program, {});
  cluster.inject(Tuple("link", {Value::addr("n0"), Value::addr("n3"), Value::integer(1)}));
  const auto nodes = cluster.nodes();
  EXPECT_EQ(nodes, (std::vector<std::string>{"n0", "n3"}));
  const auto stats = cluster.run();
  EXPECT_TRUE(stats.quiesced);
  EXPECT_TRUE(cluster.database("n0").contains(
      Tuple("reachable", {Value::addr("n0"), Value::addr("n3")})));
  // The localized t2 join ships the link copy to its destination: n3 must
  // have a live mailbox even though it never sends.
  EXPECT_GE(stats.messages_sent, 1u);
}

TEST(Cluster, MetricsAndTraceAreThreadedThrough) {
  const auto program = example_program("reachable.ndlog");
  const auto facts = example_workload("reachable.ndlog");
  obs::Registry registry;
  obs::Trace trace;
  net::ClusterOptions options;
  options.metrics = &registry;
  options.trace = &trace;
  const auto run = cluster_fixpoint(program, facts, options);
  EXPECT_TRUE(run.stats.quiesced);

  // Per-node counters exist and sum to the aggregate stats.
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  bool timers_ticked = false;
  for (const auto& name : {"n0", "n1", "n2", "n3"}) {
    const std::string base = std::string("net/node/") + name + "/";
    const auto* s = registry.find_counter(base + "sent");
    const auto* r = registry.find_counter(base + "received");
    ASSERT_NE(s, nullptr) << base;
    ASSERT_NE(r, nullptr) << base;
    sent += s->value();
    received += r->value();
    const auto* encode = registry.find_timer(base + "encode");
    ASSERT_NE(encode, nullptr);
    if (encode->count() > 0) timers_ticked = true;
    ASSERT_NE(registry.find_histogram(base + "mailbox_depth"), nullptr);
  }
  EXPECT_EQ(sent, run.stats.messages_sent);
  EXPECT_EQ(received, run.stats.messages_received);
  EXPECT_TRUE(timers_ticked);
  // The coordinator emitted cluster-level trace samples.
  EXPECT_FALSE(trace.events().empty());
}

TEST(Cluster, StatsBytesMatchTransportAccounting) {
  const auto program = example_program("reachable.ndlog");
  const auto facts = example_workload("reachable.ndlog");
  const auto run = cluster_fixpoint(program, facts, {});
  EXPECT_TRUE(run.stats.quiesced);
  EXPECT_GT(run.stats.bytes_sent, 0u);
  // Node-level bytes_sent counts every payload handed to the transport —
  // batches, retransmits and acks alike — so on a lossless transport the two
  // layers must agree *exactly*, and the ack share is strictly inside it.
  EXPECT_EQ(run.stats.transport.bytes_sent, run.stats.bytes_sent);
  EXPECT_GT(run.stats.ack_bytes, 0u);
  EXPECT_LT(run.stats.ack_bytes, run.stats.bytes_sent);
  EXPECT_GT(run.stats.acks_sent, 0u);
  EXPECT_EQ(run.stats.transport.frames_delivered, run.stats.transport.frames_sent);
}

}  // namespace
}  // namespace fvn
