// Seeded workload inputs. Shapes come from core::*_topology; the seed draws
// every link cost. The programs under test only ever see the resulting
// `link(@src,dst,cost)` facts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ndlog/tuple.hpp"

namespace perfbench {

struct Topology {
  std::string name;  ///< e.g. "ring-56"
  std::vector<fvn::ndlog::Tuple> facts;
};

/// Bidirectional ring with symmetric per-edge costs drawn uniformly from
/// [1, max_cost]. The total ring cost is forced odd (one edge +1), so the two
/// ways round the ring never tie for any (src, dst): the keyed bestPath table
/// then equals the centralized evaluator's set-semantics result exactly.
Topology seeded_ring(std::size_t nodes, std::uint64_t seed, std::int64_t max_cost);

/// Bidirectional line with symmetric per-edge costs drawn from [1, max_cost],
/// except edge n0-n1, which costs 1. With one unit-cost edge every even
/// detour cost is reachable, so the number of bounded walks the link-state
/// program enumerates depends on the seed only through the path lengths.
Topology seeded_line(std::size_t nodes, std::uint64_t seed, std::int64_t max_cost);

}  // namespace perfbench
