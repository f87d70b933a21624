// Sparse (many-to-many) personalized communication over the same substrate
// as the all-to-all strategies — the generalization the paper's introduction
// and summary motivate ("we hope the performance analysis and optimization
// techniques ... can also be applied for more complex many-to-many
// communication patterns").
//
// A Pattern lists each node's destinations. It runs as schedule data, not as
// a separate runtime: build_sparse_schedule takes any ordered-form
// strategy's CommSchedule (AR, DR, MPI, AR+throttle, or TPS — the two-phase
// trick applied per message) and replaces each node's destination order
// with its shuffled pattern list. run_many_to_many executes it on
// run_alltoall's path, so fault plans, the reliability layer, verification,
// lint and epoch recovery all apply to sparse patterns.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "src/coll/schedule.hpp"
#include "src/topology/torus.hpp"

namespace bgl::coll {

/// Per-node destination lists (self entries are ignored).
struct Pattern {
  std::vector<std::vector<topo::Rank>> dests;

  std::size_t total_messages() const;

  /// Every node sends to `fanout` distinct uniform-random peers.
  static Pattern random_subset(std::int32_t nodes, int fanout, std::uint64_t seed);

  /// 6-point halo exchange: each node talks to its torus neighbors
  /// (deduplicated; mesh edges skipped).
  static Pattern halo(const topo::Shape& shape);

  /// Row/column partners of a process grid laid over the ranks: each node
  /// sends to every rank sharing its row or column of an rows x cols grid
  /// (a common sub-communicator collective footprint).
  static Pattern grid_partners(std::int32_t nodes, int cols);
};

/// `kind`'s ordered-stream schedule carrying `pattern`: each node's order is
/// its pattern list (self entries dropped, shuffled per node from the
/// config seed), one round whose burst is the whole message, and `covered`
/// claims exactly the pattern's pairs. Throws std::invalid_argument for a
/// kind without an ordered form (VMesh, kBest) or a pattern not sized to
/// the shape.
CommSchedule build_sparse_schedule(const Pattern& pattern, StrategyKind kind,
                                   const net::NetworkConfig& net,
                                   const AlltoallOptions& options,
                                   const net::FaultPlan* planning_faults);

/// Runs `pattern` with `kind`'s transport through the run_alltoall path.
/// percent_peak and per_node_mbps are all-to-all metrics and read 0; pairs
/// outside the pattern count as unreachable in RunResult::reachable.
RunResult run_many_to_many(const Pattern& pattern, StrategyKind kind,
                           const AlltoallOptions& options);

}  // namespace bgl::coll
