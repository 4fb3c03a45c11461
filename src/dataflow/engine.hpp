// Per-node execution of a compiled Plan: one tuple delta at a time through
// the rule strands (true incremental semi-naive — no per-message
// re-evaluation), plus incremental aggregate view maintenance driven by
// database-mirror hooks. The executive (runtime::NodeExec) owns message
// routing, keyed overwrite, and soft-state expiry; the engine owns only the
// compiled hot path.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "dataflow/plan.hpp"
#include "ndlog/builtins.hpp"
#include "ndlog/database.hpp"
#include "ndlog/eval.hpp"
#include "obs/metrics.hpp"

namespace fvn::dataflow {

/// Counters for one engine (aggregated across elements; per-element in/out
/// counters live in the obs registry under dataflow/elem/...).
struct EngineStats {
  std::uint64_t deltas_processed = 0;  // process() calls
  std::uint64_t tuples_emitted = 0;    // head tuples handed to the executive
  std::uint64_t probes = 0;            // tuples examined by relational elements
  std::uint64_t agg_updates = 0;       // group-state ± applications
};

/// One aggregate group reported by a flush.
struct GroupRow {
  /// The group's current output row; for a group that is gone, a row with
  /// the group's key columns (the aggregate column is unspecified).
  ndlog::Tuple row;
  bool present = true;
};

/// What one flush of an aggregate rule reports, in group-key order (the
/// head arguments compared column by column, skipping the aggregate's).
struct AggFlush {
  std::vector<GroupRow> groups;
  /// False: `groups` are the groups touched since the last flush, present or
  /// gone. True (recompute): `groups` are every group that exists, all
  /// present, so a group missing from them is gone.
  bool complete = false;
};

class Engine {
 public:
  /// `plan` must outlive the engine. `metrics` may be null; when set, every
  /// element gets dataflow/elem/<rule>[d<pos>]/<elem>/{in,out} counters
  /// (shared across engines — i.e. across simulated nodes).
  Engine(const Plan& plan, const ndlog::BuiltinRegistry& builtins,
         obs::Registry* metrics = nullptr);

  /// Push one delta tuple through every strand whose delta predicate
  /// matches, in plan order, appending head tuples to `out` in exactly the
  /// order the interpreter's eval_rule_delta loop would produce them. `db`
  /// is the node's local database (the delta itself need not be stored —
  /// transient periodic tuples are processed without installation).
  void process(const ndlog::Tuple& delta, const ndlog::Database& db,
               std::vector<ndlog::Tuple>& out);

  /// Database-mirror hooks: the executive MUST call these for every local
  /// table mutation (install, overwrite, expiry, retraction, aggregate-row
  /// erasure) so incremental aggregate state tracks the database exactly.
  void on_insert(const ndlog::Tuple& tuple, const ndlog::Database& db);
  void on_erase(const ndlog::Tuple& tuple, const ndlog::Database& db);

  /// Report aggregate rule `index`'s groups that may have changed since the
  /// last flush. Incremental mode lists each group touched since then with
  /// its current value, or gone, skipping groups that appeared and vanished
  /// in between: O(touched groups). The recompute fallback lists every group
  /// (complete) when a body predicate changed, nothing otherwise. The
  /// executive diffs the report against the rows it last emitted.
  AggFlush flush_aggregate(std::size_t index, const ndlog::Database& db);

  const EngineStats& stats() const noexcept { return stats_; }
  const Plan& plan() const noexcept { return *plan_; }

 private:
  struct ElemObs {
    obs::Counter* in = nullptr;
    obs::Counter* out = nullptr;
  };
  using StrandObs = std::vector<ElemObs>;
  /// Per-group aggregate state: group key (full head-args vector, nil at the
  /// aggregate position) -> multiset of bound aggregate-variable values.
  using GroupState = std::map<std::vector<ndlog::Value>,
                              std::map<ndlog::Value, std::int64_t>>;
  struct AggState {
    GroupState groups;
    /// Incremental mode: group keys touched since the last flush -> whether
    /// the group existed at that flush.
    std::map<std::vector<ndlog::Value>, bool> touched;
    /// Recompute mode: a body predicate changed since the last flush.
    bool dirty = false;
  };
  struct RunCtx {
    const Strand* strand = nullptr;
    const StrandObs* obs = nullptr;
    const ndlog::Tuple* delta = nullptr;
    const ndlog::Database* db = nullptr;
    std::vector<ndlog::Tuple>* out = nullptr;  // Project sink
    AggState* agg = nullptr;                   // Aggregate sink
    int sign = +1;
  };

  void run_strand(const Strand& strand, const StrandObs& obs, const ndlog::Tuple& delta,
                  const ndlog::Database& db, std::vector<ndlog::Tuple>* out,
                  AggState* agg, int sign);
  static ndlog::Value aggregate_value(const AggregateRulePlan& ap,
                                      const std::map<ndlog::Value, std::int64_t>& group);
  void exec(RunCtx& ctx, std::size_t ei);
  bool match(const Element& element, const ndlog::Tuple& tuple);
  void touch(const ndlog::Tuple& tuple, int sign, const ndlog::Database& db);
  StrandObs make_obs(const Strand& strand) const;

  const Plan* plan_;
  const ndlog::BuiltinRegistry* builtins_;
  obs::Registry* metrics_;
  std::vector<StrandObs> strand_obs_;               // parallel to plan_->strands
  std::vector<std::vector<StrandObs>> agg_obs_;     // parallel to aggregates
  std::vector<AggState> agg_;
  ndlog::RuleEngine fallback_;  // recompute-mode aggregate evaluation
  std::vector<ndlog::Value> regs_;
  EngineStats stats_;
};

}  // namespace fvn::dataflow
