#include "runtime/node_exec.hpp"

#include <algorithm>

#include "runtime/localize.hpp"

namespace fvn::runtime {

using ndlog::Rule;
using ndlog::Tuple;
using ndlog::Value;

PreparedProgram::PreparedProgram(const ndlog::Program& source,
                                 const ndlog::BuiltinRegistry& builtins_in,
                                 bool require_stratified,
                                 std::optional<dataflow::PlanOptions> plan_options)
    : program(localize(source)),
      catalog(ndlog::Catalog::from_program(program)),
      builtins(&builtins_in),
      engine(builtins_in) {
  ndlog::check_arities(program);
  ndlog::check_safety(program, builtins_in);
  if (require_stratified) ndlog::stratify(program);
  if (plan_options) plan.emplace(dataflow::compile(program, *plan_options));
  for (const auto& rule : program.rules) {
    if (rule.is_fact()) {
      ndlog::Bindings empty;
      std::vector<Value> values;
      for (const auto& arg : rule.head.args) {
        values.push_back(*ndlog::eval_term(*arg.term, empty, builtins_in));
      }
      facts.emplace_back(rule.head.predicate, std::move(values));
      continue;
    }
    if (rule.head.has_aggregate()) {
      agg_rules.push_back(&rule);
      auto& fields = agg_group_fields.emplace_back();
      for (std::size_t i = 0; i < rule.head.args.size(); ++i) {
        if (!rule.head.args[i].is_agg()) fields.push_back(i + 1);
      }
    } else {
      normal_rules.push_back(&rule);
    }
    for (const auto& elem : rule.body) {
      const auto* ba = std::get_if<ndlog::BodyAtom>(&elem);
      if (ba != nullptr && ba->atom.predicate == "periodic") uses_periodic = true;
    }
  }
  for (const auto& pred : catalog.predicates()) {
    const auto& mat = catalog.info(pred);
    PredInfo& info = preds_[pred];
    info.loc_index = mat.loc_index;
    info.lifetime = mat.lifetime_seconds;
    info.transient = pred == "periodic" ||
                     (mat.lifetime_seconds.has_value() && *mat.lifetime_seconds == 0.0);
    // No keys, or keys naming every column, identify whole tuples: no
    // overwrite can occur, so such predicates install without a slot.
    const auto& keys = mat.key_fields;
    bool whole_tuple = true;
    for (std::size_t f = 1; f <= mat.arity; ++f) {
      whole_tuple = whole_tuple && std::find(keys.begin(), keys.end(), f) != keys.end();
    }
    if (!keys.empty() && !whole_tuple) info.key_fields = &keys;
  }
}

const PreparedProgram::PredInfo& PreparedProgram::pred_info(
    const std::string& predicate) const {
  static const PredInfo kUnknown;
  static const PredInfo kPeriodic{0, true, std::nullopt, nullptr};
  auto it = preds_.find(predicate);
  if (it != preds_.end()) return it->second;
  return predicate == "periodic" ? kPeriodic : kUnknown;
}

const std::string& PreparedProgram::location_of(const Tuple& tuple) const {
  const std::size_t idx = pred_info(tuple.predicate()).loc_index;
  if (idx >= tuple.arity() || !tuple.at(idx).is_addr()) {
    throw ndlog::AnalysisError("tuple " + tuple.to_string() +
                               " has no address at its location attribute");
  }
  return tuple.at(idx).as_addr();
}

std::string_view to_string(TupleEvent::Kind kind) noexcept {
  switch (kind) {
    case TupleEvent::Kind::Install: return "install";
    case TupleEvent::Kind::Retract: return "retract";
    case TupleEvent::Kind::Expire: return "expire";
  }
  return "?";
}

void fan_out(const std::vector<TupleSink>& sinks, const TupleEvent& event) {
  for (const auto& sink : sinks) sink(event);
}

bool NodeExec::KeyLess::operator()(const Tuple& a, const Tuple& b) const {
  for (std::size_t f : *key_fields) {
    if (f < 1 || f > a.arity() || f > b.arity()) continue;
    if (const auto c = a.at(f - 1) <=> b.at(f - 1); c != 0) return c < 0;
  }
  return false;
}

NodeExec::NodeExec(const PreparedProgram& program, std::string name, NodeHost& host,
                   obs::Registry* metrics)
    : program_(&program), name_(std::move(name)), host_(&host), metrics_(metrics) {
  for (const auto& fields : program.agg_group_fields) emitted_.emplace_back(KeyLess{&fields});
}

dataflow::Engine* NodeExec::flow() {
  if (!flow_ && program_->plan) {
    flow_ = std::make_unique<dataflow::Engine>(*program_->plan, *program_->builtins,
                                               metrics_);
  }
  return flow_.get();
}

void NodeExec::deliver(const Tuple& tuple, double now) {
  process(tuple, program_->pred_info(tuple.predicate()).transient, now,
          /*agg_each=*/true);
}

void NodeExec::deliver_batch(const std::vector<Tuple>& tuples, double now) {
  for (const auto& t : tuples) {
    process(t, program_->pred_info(t.predicate()).transient, now, /*agg_each=*/false);
  }
  // A pass's own installs (a new best row firing ordinary rules) can re-dirty
  // an aggregate, so repeat until a pass changes nothing.
  while (run_agg_rules(now, /*agg_each=*/false)) {
  }
}

void NodeExec::process(const Tuple& tuple, bool transient, double now, bool agg_each) {
  if (!transient && !install(tuple, now)) return;  // duplicate: no re-derivation
  run_rules(tuple, now, agg_each);
  if (agg_each) run_agg_rules(now, agg_each);
}

bool NodeExec::install(const Tuple& tuple, double now) {
  const PreparedProgram::PredInfo& info = program_->pred_info(tuple.predicate());
  bool changed = true;
  bool overwrite = false;
  if (info.key_fields != nullptr) {
    auto& slots = slots_.try_emplace(tuple.predicate(), KeyLess{info.key_fields}).first->second;
    auto [it, fresh] = slots.insert(tuple);
    if (!fresh && *it == tuple) {
      changed = false;
    } else if (!fresh) {
      // Keyed overwrite (P2 materialize semantics): the old row leaves first.
      auto slot = slots.extract(it);
      remove(slot.value(), TupleEvent::Kind::Retract, now);
      slot.value() = tuple;  // same key fields: the set's order is undisturbed
      slots.insert(std::move(slot));
      overwrite = true;
    }
  }
  if (changed) changed = db_.insert(tuple);
  if (changed && flow() != nullptr) flow_->on_insert(tuple, db_);
  if (info.lifetime) {
    const double at = now + *info.lifetime;
    expires_at_[tuple] = at;
    host_->expires(name_, tuple, at);
  }
  if (changed) {
    host_->changed(TupleEvent{TupleEvent::Kind::Install, name_, tuple, now}, overwrite);
  }
  return changed;
}

bool NodeExec::remove(const Tuple& tuple, TupleEvent::Kind kind, double now) {
  if (!db_.erase(tuple)) return false;
  if (flow() != nullptr) flow_->on_erase(tuple, db_);
  if (auto it = slots_.find(tuple.predicate()); it != slots_.end()) it->second.erase(tuple);
  expires_at_.erase(tuple);
  host_->changed(TupleEvent{kind, name_, tuple, now}, /*overwrite=*/false);
  return true;
}

bool NodeExec::retract(const Tuple& tuple, double now) {
  return remove(tuple, TupleEvent::Kind::Retract, now);
}

bool NodeExec::expire(const Tuple& tuple, double at) {
  auto it = expires_at_.find(tuple);
  // Only expire if this event corresponds to the latest refresh.
  if (it == expires_at_.end() || it->second > at + 1e-12) return false;
  expires_at_.erase(it);
  remove(tuple, TupleEvent::Kind::Expire, at);
  return true;
}

void NodeExec::run_rules(const Tuple& delta, double now, bool agg_each) {
  std::vector<Tuple> produced;
  if (flow() != nullptr) {
    flow_->process(delta, db_, produced);
  } else {
    ndlog::TupleSet delta_set{delta};
    for (const Rule* rule : program_->normal_rules) {
      const auto atoms = ndlog::RuleEngine::positive_atoms(*rule);
      std::uint64_t firings = 0;
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        if (atoms[i]->atom.predicate != delta.predicate()) continue;
        program_->engine.eval_rule_delta(*rule, db_, i, delta_set, [&](Tuple t) {
          ++firings;
          produced.push_back(std::move(t));
        });
      }
      if (firings != 0 && metrics_ != nullptr) {
        metrics_->counter("sim/rule/" + rule->display_name() + "/firings").add(firings);
      }
    }
  }
  for (auto& t : produced) {
    const std::string& dest = program_->location_of(t);
    if (dest == name_) {
      process(t, /*transient=*/false, now, agg_each);
    } else {
      host_->ship(name_, std::move(t), dest, now);
    }
  }
}

bool NodeExec::run_agg_rules(double now, bool agg_each) {
  bool changed = false;
  for (std::size_t i = 0; i < program_->agg_rules.size(); ++i) {
    if (flow() != nullptr) {
      changed |= apply_flush(i, flow_->flush_aggregate(i, db_), now, agg_each);
      continue;
    }
    const Rule* rule = program_->agg_rules[i];
    dataflow::AggFlush flush;
    flush.complete = true;
    program_->engine.eval_agg_rule(*rule, db_, [&](Tuple t) {
      flush.groups.push_back(dataflow::GroupRow{std::move(t), true});
    });
    if (!flush.groups.empty() && metrics_ != nullptr) {
      metrics_->counter("sim/rule/" + rule->display_name() + "/firings")
          .add(flush.groups.size());
    }
    changed |= apply_flush(i, std::move(flush), now, agg_each);
  }
  return changed;
}

bool NodeExec::apply_flush(std::size_t index, dataflow::AggFlush flush, double now,
                           bool agg_each) {
  auto& emitted = emitted_[index];
  if (flush.complete) {
    // A complete flush lists only the groups that exist: merge in, in key
    // order, a gone entry for every emitted group it leaves out.
    std::vector<dataflow::GroupRow> groups;
    groups.reserve(flush.groups.size());
    const auto less = emitted.key_comp();
    auto old = emitted.begin();
    for (auto& g : flush.groups) {
      for (; old != emitted.end() && less(*old, g.row); ++old) groups.push_back({*old, false});
      if (old != emitted.end() && !less(g.row, *old)) ++old;  // the same group
      groups.push_back(std::move(g));
    }
    for (; old != emitted.end(); ++old) groups.push_back({*old, false});
    flush.groups = std::move(groups);
  }
  std::vector<Tuple> left;
  std::vector<Tuple> added;
  for (auto& g : flush.groups) {
    auto it = emitted.find(g.row);
    if (it == emitted.end()) {
      if (!g.present) continue;
      added.push_back(g.row);
      emitted.insert(std::move(g.row));
      continue;
    }
    if (g.present && *it == g.row) continue;  // the group's value did not move
    auto slot = emitted.extract(it);
    left.push_back(std::move(slot.value()));
    if (!g.present) continue;
    added.push_back(g.row);
    slot.value() = std::move(g.row);  // same group key: the set's order is undisturbed
    emitted.insert(std::move(slot));
  }
  // The emitted rows are already current, so a flush that runs while these
  // installs recurse diffs against them.
  for (const auto& old_row : left) {
    if (program_->location_of(old_row) != name_) continue;  // remote copies age out
    remove(old_row, TupleEvent::Kind::Retract, now);
  }
  for (auto& t : added) {
    const std::string& dest = program_->location_of(t);
    if (dest != name_) {
      host_->ship(name_, std::move(t), dest, now);
    } else if (install(t, now)) {
      run_rules(t, now, agg_each);
    }
  }
  return !left.empty() || !added.empty();
}

}  // namespace fvn::runtime
