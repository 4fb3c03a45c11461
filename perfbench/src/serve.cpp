#include "serve.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <unordered_map>

namespace perfbench {

using fvn::serve::EncodedVal;
using fvn::serve::LookupResult;

namespace {
/// Open-loop churn schedule: one flip + publish every kPeriodUs. This is the
/// publish rate bench/bench_serve.cpp measured (BENCH_serve.json: 974 epochs
/// in its three 0.4 s churn windows, one per ~1.23 ms), with one route
/// changed per publish and each op due at a fixed time, so that lateness
/// and visibility can be measured.
constexpr double kPeriodUs = 1250;
/// Share of routes the writer may flip (the rest must always be served). A
/// small share keeps the answer set, and so the hit ratio, near constant
/// through a window: at least 15/16 of the routes are always served.
constexpr double kChurnShare = 1.0 / 16;
/// Lookups per reader lease, as bench/bench_serve.cpp and
/// `fvn_cli serve --churn` take them.
constexpr std::size_t kLookupsPerLease = 64;
/// Lookup-rate sub-window (at most a quarter of the window); lookups_per_s
/// is the median over sub-windows.
constexpr double kSubwindowS = 0.1;
}  // namespace

std::vector<Route> routes_of(const fvn::ndlog::Database& db, const std::string& predicate) {
  std::vector<Route> out;
  for (const auto& t : db.relation(predicate)) out.emplace_back(t.at(0).as_addr(), t);
  // Relations are hash sets: sort so the seeded churn choice is reproducible.
  std::sort(out.begin(), out.end(),
            [](const Route& a, const Route& b) { return a.second < b.second; });
  return out;
}

ServeBench::ServeBench(const std::string& spec, const fvn::ndlog::Catalog& catalog,
                       std::vector<Route> routes, const ServeSettings& settings,
                       fvn::obs::Registry* metrics, Result& result)
    : settings_(settings), routes_(std::move(routes)) {
  plane_ = std::make_unique<fvn::serve::ServePlane>(
      fvn::serve::ServeSpec::parse(spec, catalog),
      fvn::serve::ServePlane::Options{metrics});
  const auto t0 = Clock::now();
  {
    Span span("serve.apply");
    for (const auto& [node, tuple] : routes_) plane_->apply("install", node, tuple);
  }
  {
    Span span("serve.publish");
    plane_->publish(true);
  }
  load_s_ = seconds_since(t0);
  live_.assign(routes_.size(), 1);

  // Expected answers: the published snapshot, grouped by (node, key).
  const fvn::serve::Snapshot& snap = plane_->current();
  width_ = plane_->spec().value_cols.size();
  std::unordered_map<std::uint64_t, std::size_t> target_of;
  for (std::size_t node = 0; node < snap.tables.size(); ++node) {
    if (snap.tables[node] == nullptr) continue;
    snap.tables[node]->for_each([&](fvn::serve::Key key, const fvn::serve::Row& row) {
      const std::uint64_t id = (static_cast<std::uint64_t>(node) << 32) | key.prefix;
      auto [it, fresh] = target_of.emplace(id, targets_.size());
      if (fresh) {
        targets_.push_back(Target{static_cast<fvn::serve::Interner::Id>(node), key.prefix,
                                  static_cast<std::uint32_t>(expected_.size() / width_), 0, 0});
      }
      ++targets_[it->second].row_count;
      expected_.insert(expected_.end(), row.begin(), row.end());
    });
  }
  churnable_.assign(expected_.size() / std::max<std::size_t>(width_, 1), 0);

  // Every route must be served exactly once, with its projected columns.
  result.check(snap.routes == routes_.size(), "published routes == fixpoint routes");
  const auto& spec_ref = plane_->spec();
  std::vector<std::size_t> row_of_route(routes_.size(), ~std::size_t{0});
  for (std::size_t r = 0; r < routes_.size(); ++r) {
    const auto& [node, tuple] = routes_[r];
    const auto node_id = snap.names->find(node);
    const std::uint32_t key = plane_->key_bits_of(tuple.at(spec_ref.dst_col));
    auto it = node_id ? target_of.find((static_cast<std::uint64_t>(*node_id) << 32) | key)
                      : target_of.end();
    bool found = false;
    if (it != target_of.end()) {
      const Target& t = targets_[it->second];
      for (std::uint32_t j = 0; j < t.row_count && !found; ++j) {
        found = row_is(&expected_[(t.row_begin + j) * width_], tuple, *snap.names);
        if (found) row_of_route[r] = t.row_begin + j;
      }
    }
    result.check(found, "route served after publish: " + tuple.to_string());
  }

  // The seeded subset of routes the writer flips.
  std::vector<std::size_t> order(routes_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(settings_.seed * 0x9e3779b97f4a7c15ULL + 7);
  std::shuffle(order.begin(), order.end(), rng);
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(kChurnShare * static_cast<double>(order.size())));
  for (std::size_t i = 0; i < n && i < order.size(); ++i) {
    if (row_of_route[order[i]] == ~std::size_t{0}) continue;
    churn_.push_back(order[i]);
    churnable_[row_of_route[order[i]]] = 1;
  }
  for (auto& t : targets_) {
    t.fixed_rows = t.row_count;
    for (std::uint32_t j = 0; j < t.row_count; ++j) t.fixed_rows -= churnable_[t.row_begin + j];
  }
}

bool ServeBench::row_is(const EncodedVal* row, const fvn::ndlog::Tuple& tuple,
                        const fvn::serve::Interner::Table& names) const {
  for (std::size_t c = 0; c < width_; ++c) {
    if (fvn::serve::decode_value(row[c], names) !=
        tuple.at(plane_->spec().value_cols[c]).to_string()) {
      return false;
    }
  }
  return true;
}

bool ServeBench::answer_ok(const Target& target, const LookupResult& got) const {
  if (!got.hit) return target.fixed_rows == 0;
  if (got.key.prefix != target.addr) return false;
  // got.rows must be a subset of the expected rows containing every row
  // that is never flipped; both lists are sorted the same way.
  std::size_t k = 0;
  for (std::uint32_t j = 0; j < target.row_count; ++j) {
    const EncodedVal* want = &expected_[(target.row_begin + j) * width_];
    if (k < got.count && got.rows[k].size() == width_ &&
        std::equal(got.rows[k].begin(), got.rows[k].end(), want)) {
      ++k;
    } else if (churnable_[target.row_begin + j] == 0) {
      return false;
    }
  }
  return k == got.count;
}

namespace {

/// Pins the calling thread to one CPU for its lifetime and restores the
/// previous mask afterwards. The writer spins between ops and the readers
/// never block, so with nproc-1 readers every CPU is busy: unpinned, the
/// scheduler can stack two of them on one CPU and the writer then runs in
/// millisecond slices.
class CpuPin {
 public:
  explicit CpuPin(int cpu) {
    ok_ = cpu >= 0 && pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) == 0;
    if (!ok_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ok_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  ~CpuPin() {
    if (ok_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool ok_ = false;
};

/// CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
  }
  return out;
}

}  // namespace

ServeWindow ServeBench::run(double seconds, bool traced, Result& result) {
  struct alignas(64) ReaderState {
    // Read by the writer at each sub-window sample.
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> busy_ns{0};  ///< acquire + lookups, not checks
    std::uint64_t hits = 0;
    std::uint64_t bad_answers = 0;
    std::uint64_t leases = 0;
    std::uint64_t checksums = 0;
    std::uint64_t bad_checksums = 0;
    std::uint64_t acquire_ns = 0;  ///< traced only
    std::uint64_t verify_ns = 0;   ///< traced only
    std::uint64_t window_ns = 0;
  };
  ServeWindow out;
  if (targets_.empty() || churn_.empty()) {
    result.check(false, "serve window needs routes to look up and flip");
    return out;
  }
  const auto readers = static_cast<std::size_t>(std::max(1, settings_.readers));
  std::vector<ReaderState> states(readers);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ready{0};
  const std::size_t batch = kLookupsPerLease;
  // Writer on the last allowed CPU (the first usually takes more interrupts),
  // readers round-robin over the others.
  const std::vector<int> cpus = allowed_cpus();
  auto cpu_for = [&cpus](std::size_t slot) {
    if (cpus.size() < 2) return -1;
    return slot == 0 ? cpus.back() : cpus[(slot - 1) % (cpus.size() - 1)];
  };
  const CpuPin writer_pin(cpu_for(0));

  std::vector<std::thread> pool;
  // Stops and joins the readers on every path out of this function,
  // including an exception from the writer loop.
  struct Joiner {
    std::atomic<bool>& go;
    std::atomic<bool>& stop;
    std::vector<std::thread>& pool;
    ~Joiner() {
      stop.store(true);
      go.store(true, std::memory_order_release);
      for (auto& t : pool) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{go, stop, pool};
  pool.reserve(readers);
  for (std::size_t r = 0; r < readers; ++r) {
    pool.emplace_back([&, r]() {
      const CpuPin pin(cpu_for(r + 1));
      ReaderState& st = states[r];
      auto reader = plane_->register_reader();
      // Seeded target sequence, cycled: drawing it up front keeps the RNG
      // out of the lookup loop.
      std::mt19937_64 rng(settings_.seed * 1000003 + r);
      std::uniform_int_distribution<std::size_t> pick(0, targets_.size() - 1);
      std::vector<std::uint32_t> sequence(1 << 16);
      for (auto& s : sequence) s = static_cast<std::uint32_t>(pick(rng));
      std::vector<LookupResult> got(batch);
      std::size_t cursor = 0;
      std::uint64_t verified_epoch = ~std::uint64_t{0};
      std::uint64_t lookup_ns = 0;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Span window("window", "readers");
      const std::uint64_t window_start = now_ns();
      // Per lease: acquire + `batch` lookups are timed as serving; checking
      // the answers, and the snapshot checksum the first time this reader
      // leases a snapshot, is timed apart and kept out of lookups_per_s.
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t t0 = now_ns();
        std::uint64_t t2 = 0;
        {
          const auto lease = reader.acquire();
          const std::uint64_t t1 = traced ? now_ns() : t0;
          std::size_t next = cursor;
          for (std::size_t k = 0; k < batch; ++k) {
            const Target& t = targets_[sequence[next]];
            next = (next + 1) & (sequence.size() - 1);
            got[k] = reader.lookup(lease, t.node, t.addr);
          }
          t2 = now_ns();
          st.acquire_ns += t1 - t0;
          lookup_ns += t2 - t1;
          st.busy_ns.fetch_add(t2 - t0, std::memory_order_relaxed);
          st.lookups.fetch_add(batch, std::memory_order_relaxed);
          for (std::size_t k = 0; k < batch; ++k) {
            const Target& t = targets_[sequence[cursor]];
            cursor = (cursor + 1) & (sequence.size() - 1);
            st.hits += got[k].hit ? 1 : 0;
            st.bad_answers += answer_ok(t, got[k]) ? 0 : 1;
          }
          if (lease->epoch != verified_epoch) {
            verified_epoch = lease->epoch;
            ++st.checksums;
            if (fvn::serve::recompute_checksum(*lease) != lease->checksum) ++st.bad_checksums;
          }
        }
        if (traced) st.verify_ns += now_ns() - t2;
        ++st.leases;
      }
      st.window_ns = now_ns() - window_start;
      Spans::fold("serve.acquire", st.acquire_ns, "readers");
      Spans::fold("serve.lookup", lookup_ns, "readers");
      Spans::fold("bench.verify", st.verify_ns, "readers");
    });
  }
  while (ready.load() < readers) std::this_thread::yield();

  // Sub-window lookup rate, summed over readers: lookups per reader-second
  // of serving time, times the number of readers.
  auto totals = [&states]() {
    std::pair<std::uint64_t, std::uint64_t> sum{0, 0};
    for (const auto& st : states) {
      sum.first += st.lookups.load(std::memory_order_relaxed);
      sum.second += st.busy_ns.load(std::memory_order_relaxed);
    }
    return sum;
  };
  {
    Span window("window");
    const auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    const auto end = t0 + std::chrono::duration<double>(seconds);
    const auto period = std::chrono::duration<double, std::micro>(kPeriodUs);
    const auto subwindow = std::chrono::duration<double>(std::min(kSubwindowS, seconds / 4));
    auto sample_at = t0 + subwindow;
    std::pair<std::uint64_t, std::uint64_t> prev{0, 0};
    std::uint64_t unchanged_ops = 0;
    for (std::size_t i = 0;; ++i) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                period * static_cast<double>(i));
      if (due >= end) break;
      if (Clock::now() < due) {
        // Spin rather than sleep: a sleeping writer's wake-up latency (ms on
        // a busy box) would otherwise dominate the visibility tail.
        Span wait("idle.wait");
        while (Clock::now() < due) {
        }
      }
      const auto start = Clock::now();
      const std::size_t idx = churn_[next_op_++ % churn_.size()];
      const auto& [node, tuple] = routes_[idx];
      bool changed = false;
      {
        Span span("serve.apply");
        changed = plane_->apply(live_[idx] ? "retract" : "install", node, tuple);
      }
      const auto applied = Clock::now();
      live_[idx] ^= 1;
      {
        Span span("serve.publish");
        plane_->publish();
      }
      const auto published = Clock::now();
      if (!changed) ++unchanged_ops;
      using us = std::chrono::duration<double, std::micro>;
      const double lag = us(start - due).count();
      out.lag_us.push_back(lag);
      out.late_ops += lag > kPeriodUs ? 1 : 0;
      out.visible_us.push_back(us(published - due).count());
      out.apply_ns.push_back(us(applied - start).count() * 1e3);
      out.publish_us.push_back(us(published - applied).count());
      if (published >= sample_at) {
        const auto now = totals();
        const auto busy = static_cast<double>(now.second - prev.second);
        if (busy > 0) {
          out.subwindow_rates.push_back(static_cast<double>(readers) *
                                        static_cast<double>(now.first - prev.first) * 1e9 /
                                        busy);
        }
        prev = now;
        sample_at = published + subwindow;
      }
    }
    stop.store(true);
    for (auto& t : pool) t.join();
    out.seconds = seconds_since(t0);
    out.retired_live = static_cast<double>(plane_->stats().retired_live);
    // Every flip must change the shadow table (the route was live or not).
    result.tally(out.visible_us.size(), unchanged_ops, "churn ops that changed the shadow");
  }

  std::uint64_t bad = 0;
  std::uint64_t checks = 0;
  for (const auto& st : states) {
    out.lookups += st.lookups.load();
    out.hits += st.hits;
    out.acquire_ns_sum += static_cast<double>(st.acquire_ns);
    out.acquires += traced ? st.leases : 0;
    out.reader_s += static_cast<double>(st.window_ns) / 1e9;
    out.verify_s += static_cast<double>(st.verify_ns) / 1e9;
    bad += st.bad_answers + st.bad_checksums;
    checks += st.checksums;
  }
  result.tally(out.lookups + checks, bad, "reader answers and snapshot checksums");
  check_live_set(result);
  return out;
}

void ServeBench::check_live_set(Result& result) {
  const auto& spec = plane_->spec();
  auto served = [this, &spec](const Route& route) {
    const fvn::serve::Snapshot& snap = plane_->current();
    const auto node_id = snap.names->find(route.first);
    if (!node_id) return false;
    const auto* table = snap.table(*node_id);
    if (table == nullptr) return false;
    const auto match = table->lookup(plane_->key_bits_of(route.second.at(spec.dst_col)));
    if (!match) return false;
    for (std::size_t k = 0; k < match->count; ++k) {
      const auto& row = match->rows[k];
      if (row.size() == width_ && row_is(row.data(), route.second, *snap.names)) return true;
    }
    return false;
  };
  std::size_t live = 0;
  bool ok = true;
  for (const std::size_t idx : churn_) ok = ok && served(routes_[idx]) == (live_[idx] != 0);
  for (const auto flag : live_) live += flag;
  result.check(ok, "flipped routes served iff live");
  result.check(plane_->current().routes == live, "served route count == live routes");
  for (const std::size_t idx : churn_) {
    if (live_[idx] != 0) continue;
    plane_->apply("install", routes_[idx].first, routes_[idx].second);
    live_[idx] = 1;
  }
  plane_->publish();
  result.check(plane_->current().routes == routes_.size(), "all routes reinstalled");
}

}  // namespace perfbench
