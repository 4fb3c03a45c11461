#include "bench.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

// --- spans -----------------------------------------------------------------

std::atomic<bool> Spans::enabled_{false};

namespace {
std::mutex g_threads_mu;
std::vector<std::unique_ptr<Spans::Thread>>& all_threads() {
  static std::vector<std::unique_ptr<Spans::Thread>> threads;
  return threads;
}
thread_local Spans::Thread* t_thread = nullptr;

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}
}  // namespace

Spans::Thread& Spans::this_thread(const char* group) {
  if (t_thread == nullptr) {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    auto& threads = all_threads();
    threads.push_back(std::make_unique<Thread>());
    t_thread = threads.back().get();
    t_thread->group = group;
    t_thread->tid = static_cast<std::uint32_t>(threads.size());
  }
  return *t_thread;
}

std::vector<const Spans::Thread*> Spans::threads() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  std::vector<const Thread*> out;
  for (const auto& t : all_threads()) out.push_back(t.get());
  return out;
}

void Spans::fold(const char* name, std::uint64_t ns, const char* group) {
  if (enabled()) this_thread(group).folded_ns[name] += ns;
}

Span::Span(const char* name, const char* group) : name_(name) {
  if (!Spans::enabled()) return;
  thread_ = &Spans::this_thread(group);
  depth_ = thread_->depth++;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (thread_ == nullptr) return;
  const std::uint64_t end = now_ns();
  --thread_->depth;
  thread_->records.push_back(Spans::Record{name_, start_ns_, end, depth_});
}

std::vector<LayerTable> layer_tables() {
  std::map<std::string, LayerTable> by_group;
  for (const Spans::Thread* thread : Spans::threads()) {
    std::vector<const Spans::Record*> recs;
    for (const auto& r : thread->records) recs.push_back(&r);
    // Parents start no later than their children and end no earlier; ties
    // on start are broken by depth so a parent precedes its child.
    std::sort(recs.begin(), recs.end(), [](const auto* a, const auto* b) {
      if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
      return a->depth < b->depth;
    });
    // Self time: a span's duration minus the durations of its direct
    // children (the span on top of the stack with a smaller depth).
    std::vector<double> dur(recs.size());
    std::vector<double> self(recs.size());
    std::vector<bool> in_window(recs.size(), false);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      while (!stack.empty() && recs[stack.back()]->depth >= recs[i]->depth) {
        stack.pop_back();
      }
      dur[i] = static_cast<double>(recs[i]->end_ns - recs[i]->start_ns) / 1e9;
      self[i] += dur[i];
      if (!stack.empty()) {
        self[stack.back()] -= dur[i];
        in_window[i] = in_window[stack.back()];
      }
      if (recs[i]->name == "window") in_window[i] = true;
      stack.push_back(i);
    }
    LayerTable& table = by_group[thread->group];
    table.group = thread->group;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (!in_window[i]) continue;
      if (recs[i]->name == "window") {
        table.window_s += dur[i];
        table.self_s["unattributed"] += self[i];
      } else {
        table.self_s[layer_of(recs[i]->name)] += self[i];
      }
    }
    // Folded time lies inside the thread's windows but outside its spans.
    for (const auto& [name, ns] : thread->folded_ns) {
      const double s = static_cast<double>(ns) / 1e9;
      table.self_s[layer_of(name)] += s;
      table.self_s["unattributed"] -= s;
    }
  }
  std::vector<LayerTable> out;
  for (auto& [group, table] : by_group) {
    if (table.window_s > 0) out.push_back(std::move(table));
  }
  return out;
}

std::string render_layer_tables(const std::vector<LayerTable>& tables) {
  std::ostringstream os;
  os << std::fixed;
  for (const auto& table : tables) {
    os << "layer table [" << table.group << "] window "
       << std::setprecision(4) << table.window_s << " s\n";
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [layer, s] : table.self_s) rows.emplace_back(s, layer);
    std::sort(rows.rbegin(), rows.rend());
    double total_share = 0;
    for (const auto& [s, layer] : rows) {
      const double share = table.window_s > 0 ? 100.0 * s / table.window_s : 0;
      total_share += share;
      os << "  " << std::left << std::setw(14) << layer << std::right
         << std::setw(10) << std::setprecision(4) << s << " s "
         << std::setw(7) << std::setprecision(2) << share << " %\n";
    }
    os << "  " << std::left << std::setw(14) << "total" << std::right
       << std::setw(10) << std::setprecision(4) << table.window_s << " s "
       << std::setw(7) << std::setprecision(2) << total_share << " %\n";
  }
  return os.str();
}

std::string spans_to_chrome_json() {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t origin = ~std::uint64_t{0};
  const auto threads = Spans::threads();
  for (const auto* t : threads) {
    for (const auto& r : t->records) origin = std::min(origin, r.start_ns);
  }
  os << std::fixed << std::setprecision(3);
  for (const auto* t : threads) {
    for (const auto& r : t->records) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << r.name << "\",\"cat\":\"" << layer_of(r.name)
         << "\",\"ph\":\"X\",\"ts\":" << static_cast<double>(r.start_ns - origin) / 1e3
         << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
         << ",\"pid\":1,\"tid\":" << t->tid << "}";
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

// --- digest ----------------------------------------------------------------

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_text(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return mix64(h);
}

std::uint64_t hash_value(const fvn::ndlog::Value& v) {
  using fvn::ndlog::ValueKind;
  std::uint64_t h = mix64(static_cast<std::uint64_t>(v.kind()) + 1);
  switch (v.kind()) {
    case ValueKind::Nil: break;
    case ValueKind::Bool: h = mix64(h ^ (v.as_bool() ? 1 : 2)); break;
    case ValueKind::Int: h = mix64(h ^ static_cast<std::uint64_t>(v.as_int())); break;
    case ValueKind::Double: {
      const double d = v.as_double();
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(d));
      h = mix64(h ^ bits);
      break;
    }
    case ValueKind::Str:
    case ValueKind::Addr: h = mix64(h ^ hash_text(v.as_text())); break;
    case ValueKind::List:
      for (const auto& item : v.as_list()) h = mix64(h * 31 + hash_value(item));
      break;
  }
  return h;
}

}  // namespace

Digest digest(const fvn::ndlog::Database& db, const std::vector<std::string>& preds) {
  Digest d;
  auto add_relation = [&d, &db](const std::string& pred) {
    const std::uint64_t seed = hash_text(pred);
    for (const auto& t : db.relation(pred)) {
      std::uint64_t h = seed;
      for (const auto& v : t.values()) h = mix64(h ^ hash_value(v));
      ++d.count;
      d.sum += h;
      d.xor_ ^= mix64(h);
    }
  };
  if (preds.empty()) {
    for (const auto& pred : db.predicates()) add_relation(pred);
  } else {
    for (const auto& pred : preds) add_relation(pred);
  }
  return d;
}

// --- result ----------------------------------------------------------------

void Result::check(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }

void Result::tally(std::uint64_t n, std::uint64_t bad, const std::string& what) {
  attempted += n;
  if (bad == 0) return;
  failed += bad;
  if (notes.size() <= 20) {
    notes.push_back("CHECK FAILED: " + what + " (" + std::to_string(bad) + " of " +
                    std::to_string(n) + ")");
  }
}

}  // namespace perfbench
