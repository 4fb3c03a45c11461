// Shared pieces of the repo benchmark: clocks and order statistics, the
// benchmark-side span log the traced run writes, the fixpoint digest every
// run is checked against, and the result record main() prints.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ndlog/database.hpp"
#include "ndlog/value.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Benchmark-side spans. Every call the benchmark makes into a layer's public
// functions is wrapped in a Span named "<layer>.<call>"; nothing inside src/
// is instrumented. Spans are kept in per-thread memory and only exist while
// tracing is on (the untraced run pays one relaxed load per Span).
// ---------------------------------------------------------------------------

class Spans {
 public:
  struct Record {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t depth = 0;
  };
  struct Thread {
    std::string group;  ///< layer tables are printed per group
    std::uint32_t tid = 0;
    std::uint32_t depth = 0;
    std::vector<Record> records;
    /// Time added with fold(), per span name (no record per call).
    std::map<std::string, std::uint64_t> folded_ns;
  };

  static void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  /// Name the calling thread's group ("main", "readers"); first call wins.
  static Thread& this_thread(const char* group = "main");
  /// Add `ns` to span `name` of the calling thread without a record, for
  /// calls too frequent to record one by one (a reader makes ~10^5 leases a
  /// second). The time counts as self time inside the thread's "window"
  /// spans, so fold only from inside one, and only time no span covers.
  static void fold(const char* name, std::uint64_t ns, const char* group = "main");
  /// Every thread's log (call only after the recording threads joined).
  static std::vector<const Thread*> threads();

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span. A span named "window" is an accounting root: the layer table
/// splits each window's wall time into the self time of the spans inside it
/// plus "unattributed".
class Span {
 public:
  explicit Span(const char* name, const char* group = "main");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans::Thread* thread_ = nullptr;
  const char* name_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};

/// Self time per layer (the span name up to its first '.') within the
/// "window" spans of one thread group, plus "unattributed".
struct LayerTable {
  std::string group;
  double window_s = 0;
  std::map<std::string, double> self_s;  ///< includes "unattributed"
};
std::vector<LayerTable> layer_tables();
std::string render_layer_tables(const std::vector<LayerTable>& tables);
/// Chrome trace_event JSON of every recorded span.
std::string spans_to_chrome_json();

// ---------------------------------------------------------------------------
// Fixpoint digest: order-independent, computed with the benchmark's own hash
// of each value (not the library's), so a change to ndlog hashing cannot
// weaken the oracle.
// ---------------------------------------------------------------------------

struct Digest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xor_ = 0;
  friend bool operator==(const Digest&, const Digest&) = default;
};

/// Digest of the named relations of `db` (all relations when `preds` is empty).
Digest digest(const fvn::ndlog::Database& db, const std::vector<std::string>& preds);

// ---------------------------------------------------------------------------
// Result record.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the final JSON line.
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what);
  /// Count `n` checks of one kind at once, `bad` of them failing.
  void tally(std::uint64_t n, std::uint64_t bad, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

}  // namespace perfbench
