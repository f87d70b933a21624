// Epoch-based recovery from mid-collective fail-stop strikes.
//
// A delayed permanent strike (FaultConfig::fail_at > 0) lands while the
// collective is in flight: planning was blind to it (see run_alltoall), so
// when the struck run quiesces, payload is missing — abandoned by the
// retransmission budget, stranded in dead relays' custody, or simply never
// sent to severed destinations. This module turns that wreckage into a
// deterministic epoch sequence:
//
//   epoch 0   the original (struck) run, exactly as before;
//   ---       epoch transition: survivors agree on a liveness view (a
//             modeled ring allgather per torus axis), discard partial flows
//             no repair can complete, and compute the *residual* — every
//             still-reachable ordered pair short of its msg_bytes;
//   epoch k   a lint-checked explicit-form repair CommSchedule re-sends
//             exactly the residual (payload overrides top up partial pairs,
//             never duplicating delivered bytes), executed through the same
//             fabric / reliability / verification path with the strike
//             applied from tick 0 — survivors now plan openly around it.
//
// The loop re-plans until the residual drains (or stops shrinking, or a
// bounded epoch budget is spent), then rewrites the RunResult: elapsed time
// grows by the agreement + repair cycles, delivery/ fault / reliability
// counters accumulate, reachability becomes the survivors' view, and
// stranded_relay_bytes keeps only the custody the repairs failed to replace.
// Everything is a pure function of (config, seed), so a recovered run is as
// bit-reproducible as a healthy one.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "src/coll/schedule.hpp"
#include "src/network/faults.hpp"

namespace bgl::coll {

/// Survivors' agreed post-strike liveness view, plus the modeled cost of
/// reaching agreement: one ring allgather per torus axis, each costing
/// (extent - 1) hops of a single liveness chunk.
struct LivenessView {
  std::vector<std::uint8_t> alive;  // indexed by rank
  std::int64_t survivors = 0;
  Tick agree_cycles = 0;
};

LivenessView exchange_liveness(const net::NetworkConfig& net,
                               const net::FaultPlan& plan);

/// Whether a repair epoch can still serve (src -> dst): both endpoints
/// alive and a live adaptive path between them.
bool pair_recoverable(const net::FaultPlan& plan, topo::Rank src, topo::Rank dst);

/// One undelivered residual: a recoverable ordered pair whose delivery-
/// matrix cell is `bytes` short of the collective's msg_bytes.
struct ResidualPair {
  topo::Rank src = -1;
  topo::Rank dst = -1;
  std::uint64_t bytes = 0;
};

/// Scans the delivery matrix for recoverable pairs short of `msg_bytes`,
/// in deterministic (src, dst) order. Only pairs `scope` marks reachable are
/// owed (the run's coverage claim; empty = every pair).
std::vector<ResidualPair> compute_residual(const DeliveryMatrix& matrix,
                                           std::uint64_t msg_bytes,
                                           const net::FaultPlan& plan,
                                           const PairMask& scope = PairMask{});

/// Builds the explicit-form repair schedule delivering exactly `residual`:
/// one direct adaptive send per pair (payload override = the missing bytes),
/// coverage mask = the residual pairs and nothing else. The result lints
/// clean under the post-strike plan whenever every residual pair is
/// recoverable — callers still run schedule_lint before executing it.
CommSchedule build_repair_schedule(const net::NetworkConfig& net,
                                   std::uint64_t msg_bytes,
                                   const std::vector<ResidualPair>& residual);

/// Post-quiescence epoch orchestration (called by the run path after the
/// struck epoch-0 run): performs the epoch transition and executes repair
/// epochs until the residual drains, rewriting `result` in place as
/// described above. `stranded` is epoch 0's itemized dead-custodian ledger
/// (ScheduleExecutor::collect_stranded); `scope` is epoch 0's coverage claim
/// (a sparse pattern's pairs; empty = every pair), and pairs outside it are
/// neither repaired nor counted reachable. Returns true when an epoch
/// transition ran; false when the strike left nothing to repair (result
/// untouched).
bool recover_epochs(RunResult& result, const AlltoallOptions& options,
                    const net::NetworkConfig& net, const net::FaultPlan& plan,
                    DeliveryMatrix& matrix,
                    const std::vector<StrandedRelay>& stranded,
                    const PairMask& scope);

}  // namespace bgl::coll
