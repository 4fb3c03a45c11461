// The node executive: the single owner of one NDlog node's local rule
// semantics, shared by both runtimes (DESIGN.md §10, §12). runtime::Simulator
// drives one NodeExec per simulated node from its discrete-event loop;
// net::Node drives one from its thread. Each runtime keeps only what is
// genuinely its own — the Simulator its virtual clock, event queue and links,
// the Node its thread, channels and reliability — and learns what the
// executive did through the NodeHost callbacks.
//
// A NodeExec owns
//   * the node's local Database,
//   * keyed overwrite (P2 `materialize(..., keys(...))` semantics),
//   * soft-state lifetime/expiry bookkeeping,
//   * the rule executor — ndlog::RuleEngine or a compiled dataflow::Engine
//     kept in step through its database-mirror hooks,
//   * aggregate maintenance: one diff of each flush's changed groups against
//     the rows last emitted, in group-key order, and
//   * the one emission point of the typed install/retract/expire stream
//     (TupleEvent) that both runtimes fan out to their tuple sinks.
//
// PreparedProgram is the per-program half: everything derived once from a
// program before any node runs. It is immutable afterwards, so the cluster's
// node threads share one.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dataflow/engine.hpp"
#include "dataflow/plan.hpp"
#include "ndlog/catalog.hpp"
#include "ndlog/eval.hpp"
#include "obs/metrics.hpp"

namespace fvn::runtime {

/// Which executor evaluates rules at each node.
enum class EngineKind : std::uint8_t {
  Interpreter,  ///< per-delta semi-naive re-evaluation via ndlog::RuleEngine
  Dataflow,     ///< compiled element strands (fvn::dataflow), P2/Click-style
};

/// The dataflow plan options a runtime's options ask for (SimOptions and
/// ClusterOptions share the field names); nullopt = interpreter.
template <class Options>
std::optional<dataflow::PlanOptions> plan_options_of(const Options& options) {
  if (options.engine != EngineKind::Dataflow) return std::nullopt;
  dataflow::PlanOptions plan;
  plan.incremental_aggregates = options.incremental_aggregates;
  plan.cost_order = options.cost_order;
  return plan;
}

/// One program, localized, checked and compiled once for every node of a run.
struct PreparedProgram {
  /// Localizes `program`, checks arities and safety (and stratification when
  /// `require_stratified`), compiles the dataflow plan when `plan_options` is
  /// set, and grounds the program's own facts. `builtins` must outlive this.
  PreparedProgram(const ndlog::Program& program, const ndlog::BuiltinRegistry& builtins,
                  bool require_stratified,
                  std::optional<dataflow::PlanOptions> plan_options = std::nullopt);
  PreparedProgram(const PreparedProgram&) = delete;
  PreparedProgram& operator=(const PreparedProgram&) = delete;

  /// Catalog facts the per-tuple hot paths consult, resolved once per
  /// predicate at construction (never mutated after, so lookups are safe from
  /// any thread).
  struct PredInfo {
    std::size_t loc_index = 0;
    /// Delivered without installing: lifetime 0, or the `periodic` event.
    bool transient = false;
    std::optional<double> lifetime;
    /// Non-null iff materialized with keys that leave some column out
    /// (points into `catalog`).
    const std::vector<std::size_t>* key_fields = nullptr;
  };
  const PredInfo& pred_info(const std::string& predicate) const;
  /// The address at the tuple's location attribute; throws AnalysisError when
  /// there is none.
  const std::string& location_of(const ndlog::Tuple& tuple) const;

  ndlog::Program program;  ///< localized
  ndlog::Catalog catalog;
  const ndlog::BuiltinRegistry* builtins;
  ndlog::RuleEngine engine;
  std::optional<dataflow::Plan> plan;  ///< engaged iff dataflow
  std::vector<ndlog::Tuple> facts;     ///< ground facts embedded in the program
  std::vector<const ndlog::Rule*> normal_rules;
  std::vector<const ndlog::Rule*> agg_rules;
  /// Parallel to agg_rules: each rule's group columns (1-based, every head
  /// column but the aggregate's), which identify one group's row.
  std::vector<std::vector<std::size_t>> agg_group_fields;
  bool uses_periodic = false;

 private:
  std::unordered_map<std::string, PredInfo> preds_;
};

/// One change to a node's database: the single typed event both runtimes
/// hand to their tuple sinks (SimOptions/ClusterOptions::tuple_sinks). A
/// view: `node` and `tuple` belong to the emitter and are valid only for the
/// duration of the call, so a sink that keeps them must copy them.
struct TupleEvent {
  enum class Kind : std::uint8_t { Install, Retract, Expire };
  Kind kind;
  const std::string& node;
  const ndlog::Tuple& tuple;
  /// Virtual seconds in the Simulator, the emitting node's clock in seconds
  /// in the Cluster.
  double now;
};

/// "install", "retract" or "expire".
std::string_view to_string(TupleEvent::Kind kind) noexcept;

/// An observer of the tuple-event stream (LTL monitors, serve feeds, tests).
using TupleSink = std::function<void(const TupleEvent&)>;

/// Calls every sink with `event`, in order.
void fan_out(const std::vector<TupleSink>& sinks, const TupleEvent& event);

/// What a NodeExec reports to the runtime driving it. `node` is the
/// executive's name and `now` the time the runtime passed in.
class NodeHost {
 public:
  /// A derived tuple located at another node. `dest` may reference a value
  /// inside `tuple` (a moved Tuple keeps its value buffer, so it stays valid).
  virtual void ship(const std::string& node, ndlog::Tuple tuple, const std::string& dest,
                    double now) = 0;
  /// The database changed. An Install with `overwrite` replaced a keyed row,
  /// which was reported just before as a Retract.
  virtual void changed(const TupleEvent& event, bool overwrite) = 0;
  /// A soft-state tuple was (re)installed; it expires at `at` unless
  /// refreshed. Hosts without soft state ignore it.
  virtual void expires(const std::string& /*node*/, const ndlog::Tuple& /*tuple*/,
                       double /*at*/) {}

 protected:
  ~NodeHost() = default;
};

/// One node's local rule semantics.
class NodeExec {
 public:
  /// `program` and `host` must outlive the executive. `metrics` (may be
  /// null) receives interpreter per-rule firing counters
  /// (sim/rule/<rule>/firings) and the dataflow engine's element counters.
  NodeExec(const PreparedProgram& program, std::string name, NodeHost& host,
           obs::Registry* metrics = nullptr);
  NodeExec(const NodeExec&) = delete;
  NodeExec& operator=(const NodeExec&) = delete;

  const ndlog::Database& database() const noexcept { return db_; }

  /// The Simulator's cadence: install one delivered tuple (unless
  /// transient), fire the rules on it, then run one aggregate pass; local
  /// derivations recurse the same way.
  void deliver(const ndlog::Tuple& tuple, double now);
  /// The Node's cadence: install and fire each tuple of a delivered batch
  /// without aggregate passes, then repeat passes until no aggregate moves.
  /// Confluent with deliver(): delivery order is already arbitrary under
  /// reordering, so the fixpoint cannot depend on where the flushes fall.
  void deliver_batch(const std::vector<ndlog::Tuple>& tuples, double now);
  /// Delete a base tuple (no derivation cascade, P2-style). True if present.
  bool retract(const ndlog::Tuple& tuple, double now);
  /// A soft-state timeout scheduled for `at`: erases the tuple if this is
  /// its latest refresh and returns whether it was.
  bool expire(const ndlog::Tuple& tuple, double at);

 private:
  /// Identity order within one predicate: the given fields (a keyed
  /// predicate's declared keys, or an aggregate rule's group columns),
  /// compared as Values in place.
  struct KeyLess {
    const std::vector<std::size_t>* key_fields = nullptr;
    bool operator()(const ndlog::Tuple& a, const ndlog::Tuple& b) const;
  };

  /// Dataflow mode: the node's engine, created on first use (building one
  /// per node up front would move that cost into every runtime's set-up);
  /// null in interpreter mode.
  dataflow::Engine* flow();
  void process(const ndlog::Tuple& tuple, bool transient, double now, bool agg_each);
  /// Install honoring keys/lifetimes; true if the database changed.
  bool install(const ndlog::Tuple& tuple, double now);
  /// Erase from the database and every index of it; true if it was present.
  bool remove(const ndlog::Tuple& tuple, TupleEvent::Kind kind, double now);
  void run_rules(const ndlog::Tuple& delta, double now, bool agg_each);
  /// One aggregate maintenance pass; true if any aggregate row changed.
  bool run_agg_rules(double now, bool agg_each);
  /// Diff one flush of aggregate rule `index` against the rows last emitted:
  /// skip groups whose row did not move, retract the rows that left (local
  /// ones; remote copies age out), then install or ship the new rows, both
  /// in group-key order. True if any row changed.
  bool apply_flush(std::size_t index, dataflow::AggFlush flush, double now,
                   bool agg_each);

  const PreparedProgram* program_;
  std::string name_;
  NodeHost* host_;
  obs::Registry* metrics_;
  std::unique_ptr<dataflow::Engine> flow_;  // see flow()

  ndlog::Database db_;
  /// Per keyed predicate, one slot per key; the element is the installed
  /// tuple.
  std::unordered_map<std::string, std::set<ndlog::Tuple, KeyLess>> slots_;
  /// Soft state: tuple -> expiry of its latest refresh.
  std::map<ndlog::Tuple, double> expires_at_;
  /// Per aggregate rule (PreparedProgram::agg_rules order, which is also
  /// the plan's aggregate order), the row last emitted for each group, in
  /// group-key order.
  std::vector<std::set<ndlog::Tuple, KeyLess>> emitted_;
};

}  // namespace fvn::runtime
