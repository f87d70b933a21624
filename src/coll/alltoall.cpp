#include "src/coll/alltoall.hpp"

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>

#include "src/coll/direct.hpp"
#include "src/coll/recovery.hpp"
#include "src/coll/registry.hpp"
#include "src/coll/schedule.hpp"
#include "src/coll/selector.hpp"
#include "src/coll/tps.hpp"
#include "src/coll/vmesh.hpp"
#include "src/model/peak.hpp"

namespace bgl::coll {

std::string strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kMpi: return "MPI";
    case StrategyKind::kAdaptiveRandom: return "AR";
    case StrategyKind::kDeterministic: return "DR";
    case StrategyKind::kThrottled: return "AR+throttle";
    case StrategyKind::kTwoPhase: return "TPS";
    case StrategyKind::kVirtualMesh: return "VMesh";
    case StrategyKind::kBest: return "best";
  }
  return "?";
}

double peak_cycles_for(const topo::Shape& shape, std::uint64_t msg_bytes,
                       std::uint32_t chunk_cycles) {
  const double chunks_per_pair = static_cast<double>(
      rt::wire_chunks_total(msg_bytes, rt::WireFormat::direct()));
  return model::aa_peak_cycles(shape, chunks_per_pair, chunk_cycles);
}

namespace {

net::NetworkConfig effective_net(const AlltoallOptions& options) {
  if (options.net.shape.nodes() < 2) {
    throw std::invalid_argument("all-to-all needs at least 2 nodes");
  }
  net::NetworkConfig net = options.net;
  // BGL_CHECK=1 turns on the fabric invariant checks (property tests and the
  // sanitizer CI set it; it is too slow for sweeps to default on).
  if (const char* env = std::getenv("BGL_CHECK");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    net.debug_checks = true;
  }
  return net;
}

// Back half of the run path: the slab-parallel eligibility gate, the
// reliability wrapper, the fabric run and the RunResult bookkeeping.
RunResult finish_run(net::NetworkConfig net, ScheduleExecutor& client,
                     const AlltoallOptions& options, const net::FaultPlan& plan,
                     const net::FaultPlan* faults, DeliveryMatrix* matrix) {
  // Eligibility gate for the slab-parallel core (see DESIGN.md "Threading
  // model"). Fault runs are parallel-eligible now that every stochastic
  // fault decision is counter-based and fault state is slab-owned; what
  // still needs one global event order is a schedule with cross-node
  // dependency gates.
  auto coll_fallback = net::ThreadFallbackReason::kNone;
  if (net.sim_threads > 1 && !client.schedule().extra_deps.empty()) {
    coll_fallback = net::ThreadFallbackReason::kCrossNodeDeps;
    net.sim_threads = 1;
  }

  // Under faults the strategy is wrapped in the end-to-end reliability
  // layer; the fabric then pulls from (and delivers to) the wrapper.
  std::optional<rt::ReliableClient> reliable;
  if (faults != nullptr) reliable.emplace(net, client);
  net::Client& top = reliable.has_value() ? static_cast<net::Client&>(*reliable)
                                          : static_cast<net::Client&>(client);

  net::Fabric fabric(net, top);
  client.bind(fabric);
  if (reliable.has_value()) reliable->attach(fabric);
  if (options.hop_observer) fabric.set_hop_observer(options.hop_observer);

  const double peak = peak_cycles_for(net.shape, options.msg_bytes, net.chunk_cycles);
  // Generous watchdog: a healthy run finishes within a few peak times plus
  // the CPU-bound startup term; hitting this means a stall (drained=false).
  const Tick deadline = options.deadline != 0
                            ? options.deadline
                            : static_cast<Tick>(peak * 200.0) + (Tick{4} << 32);

  if (options.wall_timeout_ms > 0.0) {
    const auto kill_at = std::chrono::steady_clock::now() +
                         std::chrono::duration<double, std::milli>(options.wall_timeout_ms);
    fabric.set_abort_check(
        [kill_at] { return std::chrono::steady_clock::now() >= kill_at; });
  }

  RunResult result;
  result.drained = fabric.run(deadline);
  result.timed_out = fabric.aborted();
  result.shape = net.shape;
  result.msg_bytes = options.msg_bytes;
  result.elapsed_cycles = client.completion_cycles();
  result.elapsed_us = static_cast<double>(result.elapsed_cycles) / 700.0;
  result.percent_peak = result.elapsed_cycles > 0
                            ? 100.0 * peak / static_cast<double>(result.elapsed_cycles)
                            : 0.0;
  const double payload_per_node =
      static_cast<double>(net.shape.nodes() - 1) * static_cast<double>(options.msg_bytes);
  result.per_node_mbps = result.elapsed_us > 0
                             ? payload_per_node / result.elapsed_us  // B/us == MB/s
                             : 0.0;
  result.packets_delivered = fabric.stats().packets_delivered;
  result.payload_bytes = fabric.stats().payload_bytes_delivered;
  result.events = fabric.events_processed();
  result.sim_threads = fabric.effective_sim_threads();
  result.sim_threads_reason = coll_fallback != net::ThreadFallbackReason::kNone
                                  ? coll_fallback
                                  : fabric.sim_threads_reason();
  if (net.collect_link_stats) {
    result.links = trace::summarize_links(fabric, result.elapsed_cycles);
  }
  // Reachability is only non-trivial under faults or a claimed coverage
  // mask, which no fault-free all-to-all schedule carries.
  if (faults != nullptr || client.schedule().covered.nodes() != 0) {
    result.reachable = PairMask(static_cast<std::int32_t>(net.shape.nodes()));
    client.mark_reachable(result.reachable);
    result.unreachable_pairs = result.reachable.unreachable_pairs();
  }
  if (faults != nullptr) {
    result.faults = fabric.fault_stats();
    // Relay payload stranded in the custody of fail-stopped nodes: the part
    // of the delivery shortfall the strike itself explains.
    result.faults.stranded_relay_bytes = client.stranded_relay_bytes(plan);
    if (reliable.has_value()) {
      result.reliability = reliable->stats();
      result.abandoned_pairs = reliable->abandoned_pairs().size();
      result.epochs.corruption_retransmits = result.reliability.corrupt_rejected;
    }
  }
  if (matrix != nullptr) {
    result.verified = true;
    result.pairs_complete = matrix->complete_pairs(options.msg_bytes);
    result.reachable_complete =
        matrix->complete_reachable(options.msg_bytes, result.reachable);
  }
  return result;
}

// Whether a run's shortfall is eligible for epoch recovery: a delayed
// permanent strike (dead links or nodes landing mid-run) with recovery
// enabled. Drop/corruption-only fault configs are repaired inline by the
// reliability layer and never re-plan.
bool recovery_armed(const AlltoallOptions& options, const net::FaultPlan& plan,
                    bool blind_strike) {
  return options.recover && blind_strike &&
         (plan.dead_link_count() > 0 || plan.dead_node_count() > 0);
}

// Epoch recovery after the struck epoch-0 run. Only the pairs the schedule
// claims are owed, so a sparse pattern is never topped up to an all-to-all.
void maybe_recover(RunResult& result, const ScheduleExecutor& client,
                   const AlltoallOptions& options, const net::NetworkConfig& net,
                   const net::FaultPlan& plan, DeliveryMatrix* matrix) {
  // A wedged or killed epoch 0 never recovers: its ledger is mid-flight
  // garbage and re-planning from it would double-deliver.
  if (matrix == nullptr || !result.drained || result.timed_out) return;
  std::vector<StrandedRelay> stranded;
  client.collect_stranded(plan, stranded);
  recover_epochs(result, options, net, plan, *matrix, stranded,
                 client.schedule().covered);
}

}  // namespace

namespace detail {

RunResult run_planned(const AlltoallOptions& options, const SchedulePlanner& plan_schedule) {
  net::NetworkConfig net = effective_net(options);

  // One plan, shared by planning (here), the Fabric (which expands its own
  // identical copy — the expansion is a pure function of config and shape)
  // and reachability verification.
  const net::FaultPlan plan(net, net.shape);
  const net::FaultPlan* faults = plan.enabled() ? &plan : nullptr;

  // A delayed strike (fail_at > 0) is invisible to planning: schedules are
  // built as if the network were healthy, because at plan time it *is* —
  // nobody may steer around faults that have not happened. The fabric flips
  // perm_faults_struck() when the strike lands; the resulting shortfall is
  // reported as reachable_complete == false plus the stranded relay-byte
  // count, never silently planned away.
  const bool blind_strike = faults != nullptr && net.faults.fail_at > 0;
  const net::FaultPlan* planning_faults = blind_strike ? nullptr : faults;

  // Epoch recovery needs the per-pair ledger to compute its residual.
  const bool recover = recovery_armed(options, plan, blind_strike);

  // Delivery recording: the caller's matrix, or an internal one when only
  // the RunResult summary is wanted (or recovery may trigger).
  std::optional<DeliveryMatrix> local_matrix;
  DeliveryMatrix* matrix = options.deliveries;
  if (matrix == nullptr && (options.verify || recover)) {
    local_matrix.emplace(static_cast<std::int32_t>(net.shape.nodes()));
    matrix = &*local_matrix;
  }

  ScheduleExecutor client(net, plan_schedule(net, planning_faults), matrix,
                          planning_faults);
  RunResult result = finish_run(net, client, options, plan, faults, matrix);
  if (recover) maybe_recover(result, client, options, net, plan, matrix);
  return result;
}

}  // namespace detail

RunResult run_alltoall(StrategyKind kind, const AlltoallOptions& options) {
  // Build the strategy's declarative schedule and interpret it with the one
  // executor (the equivalence suite pins its behavior to stored goldens).
  RunResult result = detail::run_planned(
      options, [&](const net::NetworkConfig& net, const net::FaultPlan* planning_faults) {
        if (kind == StrategyKind::kBest) {
          kind = select_strategy(net.shape, options.msg_bytes, planning_faults).kind;
        }
        return build_schedule(kind, net, options.msg_bytes, options, planning_faults);
      });
  result.strategy = strategy_name(kind);
  return result;
}

RunResult run_schedule(CommSchedule schedule, const AlltoallOptions& options,
                       const std::string& label) {
  RunResult result = detail::run_planned(
      options, [&](const net::NetworkConfig& net, const net::FaultPlan*) {
        if (schedule.shape != net.shape) {
          throw std::invalid_argument(
              "run_schedule: schedule shape " + schedule.shape.to_string() +
              " does not match network " + net.shape.to_string());
        }
        return std::move(schedule);
      });
  result.strategy = label;
  return result;
}

}  // namespace bgl::coll
