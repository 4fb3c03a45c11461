#include "runtime/simulator.hpp"

#include <cassert>

#include "obs/json.hpp"

namespace fvn::runtime {

using ndlog::Database;
using ndlog::Tuple;
using ndlog::Value;

namespace {

/// Simulated seconds -> trace microseconds (the virtual time base of the
/// exported Chrome trace).
std::uint64_t sim_ts(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e6);
}

/// Splitmix64: derives the loss RNG stream's seed from SimOptions::seed so
/// loss and jitter draws never share (and so never perturb) a stream.
std::uint64_t derive_loss_seed(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

Simulator::Simulator(ndlog::Program program, SimOptions options,
                     const ndlog::BuiltinRegistry& builtins)
    : prepared_(program, builtins, options.require_stratified, plan_options_of(options)),
      options_(std::move(options)),
      rng_(options_.seed),
      loss_rng_(derive_loss_seed(options_.seed)) {
  // Program-embedded ground facts are injected at t=0.
  for (const auto& fact : prepared_.facts) inject(fact, 0.0);
}

NodeExec& Simulator::exec(const std::string& node) {
  return nodes_
      .try_emplace(node, prepared_, node, static_cast<NodeHost&>(*this), options_.metrics)
      .first->second;
}

void Simulator::add_node(const std::string& name) { exec(name); }

void Simulator::set_link_delay(const std::string& from, const std::string& to,
                               double delay) {
  link_delays_[{from, to}] = delay;
}

void Simulator::schedule(double time, Event::Kind kind, const std::string& node,
                         Tuple tuple) {
  queue_.push(Event{time, ++sequence_, kind, node, std::move(tuple)});
}

void Simulator::inject(const Tuple& fact, double time) {
  const std::string& node = prepared_.location_of(fact);
  add_node(node);
  schedule(time, Event::Kind::Deliver, node, fact);
}

void Simulator::inject_all(const std::vector<Tuple>& facts, double time) {
  for (const auto& f : facts) inject(f, time);
}

void Simulator::retract(const Tuple& fact, double time) {
  schedule(time, Event::Kind::Retract, prepared_.location_of(fact), fact);
}

void Simulator::changed(const TupleEvent& event, bool overwrite) {
  const std::string& node = event.node;
  const Tuple& tuple = event.tuple;
  stats_.last_change_time = event.now;
  if (event.kind == TupleEvent::Kind::Install) {
    if (overwrite) {
      ++stats_.overwrites;
      if (options_.metrics != nullptr) {
        options_.metrics->counter("sim/node/" + node + "/overwrites").add(1);
      }
    }
    ++stats_.tuples_derived;
    stats_.last_change_by_predicate[tuple.predicate()] = event.now;
    if (options_.metrics != nullptr) {
      options_.metrics->counter("sim/node/" + node + "/installed").add(1);
    }
    if (options_.obs_trace != nullptr) {
      options_.obs_trace->counter_at(sim_ts(event.now), "sim/installs", "sim",
                                     static_cast<double>(stats_.tuples_derived));
    }
  } else if (event.kind == TupleEvent::Kind::Expire) {
    ++stats_.expirations;
    if (options_.metrics != nullptr) {
      options_.metrics->counter("sim/node/" + node + "/expired").add(1);
    }
  }
  if (options_.obs_trace != nullptr) {
    options_.obs_trace->instant_at(
        sim_ts(event.now), std::string(to_string(event.kind)) + " " + tuple.predicate(),
        "tuple",
        "{\"node\":\"" + obs::json_escape(node) + "\",\"tuple\":\"" +
            obs::json_escape(tuple.to_string()) + "\"}");
  }
  fan_out(options_.tuple_sinks, event);
}

void Simulator::expires(const std::string& node, const Tuple& tuple, double at) {
  schedule(at, Event::Kind::Expire, node, tuple);
}

void Simulator::ship(const std::string& from, Tuple tuple, const std::string& to,
                     double now) {
  ++stats_.messages_sent;
  if (options_.metrics != nullptr) {
    options_.metrics->counter("sim/node/" + from + "/sent").add(1);
  }
  if (options_.obs_trace != nullptr) {
    options_.obs_trace->instant_at(sim_ts(now), "send " + tuple.predicate(), "sim",
                                   "{\"from\":\"" + obs::json_escape(from) +
                                       "\",\"to\":\"" + obs::json_escape(to) + "\"}");
  }
  if (options_.loss_rate > 0.0) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(loss_rng_) < options_.loss_rate) {
      ++stats_.messages_dropped;
      if (options_.metrics != nullptr) {
        options_.metrics->counter("sim/node/" + from + "/dropped").add(1);
      }
      return;
    }
  }
  double delay = options_.default_link_delay;
  auto it = link_delays_.find({from, to});
  if (it != link_delays_.end()) delay = it->second;
  if (options_.delay_jitter > 0.0) {
    std::uniform_real_distribution<double> j(0.0, options_.delay_jitter);
    delay *= 1.0 + j(rng_);
  }
  const std::string dest = to;  // `to` may point into `tuple`, moved below
  schedule(now + delay, Event::Kind::Deliver, dest, std::move(tuple));
}

SimStats Simulator::run() {
  assert(!ran_ && "Simulator::run may be called once");
  ran_ = true;

  // Periodic event pre-scheduling.
  if (prepared_.uses_periodic && options_.max_periodic_rounds > 0) {
    // Nodes known at start: everything referenced by queued events.
    std::vector<std::string> names = nodes();
    for (const auto& name : names) {
      for (std::size_t k = 1; k <= options_.max_periodic_rounds; ++k) {
        schedule(static_cast<double>(k) * options_.periodic_interval,
                 Event::Kind::Periodic, name,
                 Tuple("periodic",
                       {Value::addr(name), Value::real(options_.periodic_interval)}));
      }
    }
  }

  while (!queue_.empty()) {
    Event e = queue_.top();
    queue_.pop();
    if (e.time > options_.max_time || stats_.events_processed >= options_.max_events) {
      stats_.end_time = e.time;
      stats_.quiesced = false;
      return stats_;
    }
    ++stats_.events_processed;
    stats_.end_time = e.time;
    if (options_.metrics != nullptr) {
      // +1: the event just popped is still in flight conceptually.
      options_.metrics->histogram("sim/queue_depth").observe(queue_.size() + 1);
    }
    if (options_.obs_trace != nullptr) {
      options_.obs_trace->counter_at(sim_ts(e.time), "sim/queue_depth", "sim",
                                     static_cast<double>(queue_.size() + 1));
    }
    NodeExec& node = exec(e.node);
    switch (e.kind) {
      case Event::Kind::Deliver:
        if (options_.metrics != nullptr) {
          options_.metrics->counter("sim/node/" + e.node + "/received").add(1);
        }
        node.deliver(e.tuple, e.time);
        break;
      case Event::Kind::Periodic:
        node.deliver(e.tuple, e.time);
        break;
      case Event::Kind::Expire:
        node.expire(e.tuple, e.time);
        break;
      case Event::Kind::Retract:
        node.retract(e.tuple, e.time);
        break;
    }
  }
  stats_.quiesced = true;
  return stats_;
}

const Database& Simulator::database(const std::string& node) const {
  static const Database empty;
  auto it = nodes_.find(node);
  return it == nodes_.end() ? empty : it->second.database();
}

Database Simulator::merged_database() const {
  Database out;
  for (const auto& [name, node] : nodes_) {
    const Database& db = node.database();
    for (const auto& pred : db.predicates()) {
      for (const auto& t : db.relation(pred)) out.insert(t);
    }
  }
  return out;
}

std::vector<std::string> Simulator::nodes() const {
  std::vector<std::string> out;
  for (const auto& [name, node] : nodes_) out.push_back(name);
  return out;
}

}  // namespace fvn::runtime
