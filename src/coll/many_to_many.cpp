#include "src/coll/many_to_many.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>
#include <utility>

#include "src/coll/registry.hpp"
#include "src/util/rng.hpp"

namespace bgl::coll {

std::size_t Pattern::total_messages() const {
  std::size_t total = 0;
  for (std::size_t n = 0; n < dests.size(); ++n) {
    for (const topo::Rank d : dests[n]) {
      total += (d != static_cast<topo::Rank>(n));
    }
  }
  return total;
}

Pattern Pattern::random_subset(std::int32_t nodes, int fanout, std::uint64_t seed) {
  Pattern pattern;
  pattern.dests.resize(static_cast<std::size_t>(nodes));
  util::Xoshiro256StarStar master(seed);
  for (std::int32_t n = 0; n < nodes; ++n) {
    auto rng = master.fork();
    std::set<topo::Rank> chosen;
    while (chosen.size() < static_cast<std::size_t>(std::min(fanout, nodes - 1))) {
      const auto d = static_cast<topo::Rank>(rng.below(static_cast<std::uint64_t>(nodes)));
      if (d != n) chosen.insert(d);
    }
    pattern.dests[static_cast<std::size_t>(n)].assign(chosen.begin(), chosen.end());
  }
  return pattern;
}

Pattern Pattern::halo(const topo::Shape& shape) {
  const topo::Torus torus{shape};
  Pattern pattern;
  pattern.dests.resize(static_cast<std::size_t>(torus.nodes()));
  for (topo::Rank n = 0; n < torus.nodes(); ++n) {
    std::set<topo::Rank> neighbors;
    for (int d = 0; d < torus.directions(); ++d) {
      const topo::Rank peer = torus.neighbor(n, topo::Direction::from_index(d));
      if (peer >= 0 && peer != n) neighbors.insert(peer);
    }
    pattern.dests[static_cast<std::size_t>(n)].assign(neighbors.begin(), neighbors.end());
  }
  return pattern;
}

Pattern Pattern::grid_partners(std::int32_t nodes, int cols) {
  assert(cols > 0 && nodes % cols == 0);
  Pattern pattern;
  pattern.dests.resize(static_cast<std::size_t>(nodes));
  for (std::int32_t n = 0; n < nodes; ++n) {
    const std::int32_t row = n / cols;
    const std::int32_t col = n % cols;
    auto& dests = pattern.dests[static_cast<std::size_t>(n)];
    for (std::int32_t c = 0; c < cols; ++c) {
      if (c != col) dests.push_back(row * cols + c);
    }
    for (std::int32_t r = 0; r < nodes / cols; ++r) {
      if (r != row) dests.push_back(r * cols + col);
    }
  }
  return pattern;
}

CommSchedule build_sparse_schedule(const Pattern& pattern, StrategyKind kind,
                                   const net::NetworkConfig& net,
                                   const AlltoallOptions& options,
                                   const net::FaultPlan* planning_faults) {
  const auto nodes = static_cast<std::int32_t>(net.shape.nodes());
  if (pattern.dests.size() != static_cast<std::size_t>(nodes)) {
    throw std::invalid_argument("pattern has " + std::to_string(pattern.dests.size()) +
                                " destination lists for " + std::to_string(nodes) +
                                " nodes");
  }
  CommSchedule sched =
      build_schedule(kind, net, options.msg_bytes, options, planning_faults);
  if (sched.form != StreamForm::kOrdered) {
    throw std::invalid_argument(strategy_name(kind) +
                                " has no ordered-stream form for a sparse pattern");
  }
  // One round per destination, the whole message in one burst.
  sched.stream.rounds = 1;
  sched.stream.burst =
      static_cast<int>(sched.phases[sched.stream.final_phase].packets.size());

  sched.covered = PairMask(nodes);
  for (topo::Rank s = 0; s < nodes; ++s) {
    for (topo::Rank d = 0; d < nodes; ++d) {
      if (s != d) sched.covered.set_unreachable(s, d);
    }
  }
  util::Xoshiro256StarStar master(net.seed ^ 0x5b195eULL);
  for (topo::Rank n = 0; n < nodes; ++n) {
    auto rng = master.fork();
    std::vector<topo::Rank> dests;
    for (const topo::Rank d : pattern.dests[static_cast<std::size_t>(n)]) {
      if (d == n) continue;
      dests.push_back(d);
      sched.covered.set_reachable(n, d);
    }
    sched.orders[static_cast<std::size_t>(n)] = DestOrder(std::move(dests), rng);
  }
  return sched;
}

RunResult run_many_to_many(const Pattern& pattern, StrategyKind kind,
                           const AlltoallOptions& options) {
  RunResult result = detail::run_planned(
      options, [&](const net::NetworkConfig& net, const net::FaultPlan* planning_faults) {
        return build_sparse_schedule(pattern, kind, net, options, planning_faults);
      });
  result.strategy = strategy_name(kind);
  // Both rates divide the full all-to-all volume; a sparse run moves less.
  result.percent_peak = 0.0;
  result.per_node_mbps = 0.0;
  return result;
}

}  // namespace bgl::coll
