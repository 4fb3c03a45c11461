#include "inputs.hpp"

#include <random>

#include "core/protocols.hpp"

namespace perfbench {

namespace {

/// core::*_topology emits each undirected edge as two consecutive directed
/// links; give both the same seed-drawn cost.
void draw_costs(std::vector<fvn::core::Link>& links, std::uint64_t seed,
                std::int64_t max_cost) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> cost(1, max_cost);
  for (std::size_t i = 0; i + 1 < links.size(); i += 2) {
    links[i].cost = links[i + 1].cost = cost(rng);
  }
}

Topology make(std::string name, const std::vector<fvn::core::Link>& links) {
  return Topology{std::move(name), fvn::core::link_facts(links)};
}

}  // namespace

Topology seeded_ring(std::size_t nodes, std::uint64_t seed, std::int64_t max_cost) {
  auto links = fvn::core::ring_topology(nodes);
  draw_costs(links, seed, max_cost);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < links.size(); i += 2) total += links[i].cost;
  if (total % 2 == 0) links[0].cost = links[1].cost = links[0].cost + 1;
  return make("ring-" + std::to_string(nodes), links);
}

Topology seeded_line(std::size_t nodes, std::uint64_t seed, std::int64_t max_cost) {
  auto links = fvn::core::line_topology(nodes);
  draw_costs(links, seed, max_cost);
  if (links.size() >= 2) links[0].cost = links[1].cost = 1;
  return make("line-" + std::to_string(nodes), links);
}

}  // namespace perfbench
