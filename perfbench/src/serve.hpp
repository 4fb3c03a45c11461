// Serving a converged route relation under churn: one writer on the calling
// thread flips routes on an open-loop schedule and publishes after each
// flip; closed-loop reader threads look up seeded targets and verify every
// answer against the route set.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "ndlog/catalog.hpp"
#include "ndlog/tuple.hpp"
#include "obs/metrics.hpp"
#include "serve/plane.hpp"

namespace perfbench {

/// (owning node, tuple) of one served route.
using Route = std::pair<std::string, fvn::ndlog::Tuple>;

/// Every tuple of `predicate` in `db`, keyed by its location column 0.
std::vector<Route> routes_of(const fvn::ndlog::Database& db, const std::string& predicate);

struct ServeSettings {
  std::uint64_t seed = 1;
  int readers = 1;
};

/// Measurements of one serve window.
struct ServeWindow {
  double seconds = 0;
  /// Lookups per second of serving time (acquire + lookups, without the
  /// benchmark's checks), summed over readers, per sub-window.
  std::vector<double> subwindow_rates;
  std::vector<double> visible_us;       ///< due -> publish() returned, per op
  std::vector<double> lag_us;           ///< due -> op started, per op
  std::vector<double> apply_ns;
  std::vector<double> publish_us;
  double acquire_ns_sum = 0;
  std::uint64_t acquires = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t late_ops = 0;  ///< ops that started more than one period late
  double retired_live = 0;     ///< retired snapshots not yet reclaimed at the end
  double reader_s = 0;         ///< reader threads' wall time, summed
  double verify_s = 0;         ///< of which checking answers and checksums (traced)
};

/// A ServePlane loaded with a fixpoint's routes, plus what every lookup
/// against it may legally return.
class ServeBench {
 public:
  /// Install every route and publish once (the serve part of set-up). The
  /// published snapshot is checked against `routes` into `result`.
  ServeBench(const std::string& spec, const fvn::ndlog::Catalog& catalog,
             std::vector<Route> routes, const ServeSettings& settings,
             fvn::obs::Registry* metrics, Result& result);

  /// Serve for `seconds` with churn; `traced` records spans and per-call
  /// timings. Every reader answer, and the checksum of every snapshot a
  /// reader leases, is checked into `result`; the final snapshot is checked
  /// against the live route set, then every flipped route is reinstalled.
  ServeWindow run(double seconds, bool traced, Result& result);

  fvn::serve::ServePlane& plane() { return *plane_; }
  /// Wall time of the initial install + publish (excludes its checks).
  double load_seconds() const { return load_s_; }

 private:
  struct Target {
    fvn::serve::Interner::Id node = 0;
    std::uint32_t addr = 0;
    std::uint32_t row_begin = 0;  ///< into expected_ (in rows)
    std::uint32_t row_count = 0;
    std::uint32_t fixed_rows = 0;  ///< rows never flipped
  };
  /// True when the width_ encoded values at `row` render as `tuple`'s
  /// served columns.
  bool row_is(const fvn::serve::EncodedVal* row, const fvn::ndlog::Tuple& tuple,
              const fvn::serve::Interner::Table& names) const;
  bool answer_ok(const Target& target, const fvn::serve::LookupResult& got) const;
  void check_live_set(Result& result);

  ServeSettings settings_;
  std::unique_ptr<fvn::serve::ServePlane> plane_;  // not movable
  std::vector<Route> routes_;
  std::size_t width_ = 0;
  std::vector<Target> targets_;
  std::vector<fvn::serve::EncodedVal> expected_;  ///< width_ per row
  std::vector<std::uint8_t> churnable_;           ///< per expected row
  std::vector<std::size_t> churn_;                ///< route indices to flip
  std::vector<std::uint8_t> live_;                ///< per route
  std::size_t next_op_ = 0;
  double load_s_ = 0;
};

}  // namespace perfbench
