#include "replay.hpp"

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/coll/registry.hpp"
#include "src/coll/schedule.hpp"
#include "src/coll/selector.hpp"
#include "src/network/faults.hpp"
#include "src/runtime/reliability.hpp"
#include "src/trace/stats.hpp"

namespace perfbench {

namespace bc = bgl::coll;
namespace bn = bgl::net;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string Fingerprint::to_string() const {
  return "cycles=" + std::to_string(elapsed_cycles) + " packets=" + std::to_string(packets) +
         " events=" + std::to_string(events) + " threads=" + std::to_string(threads);
}

Fingerprint fingerprint_of(const bc::RunResult& result) {
  return {result.elapsed_cycles, result.packets_delivered, result.events, result.sim_threads};
}

std::string check_run(bool drained, bool timed_out, bool reachable_complete, bool faulted,
                      std::uint64_t corrupt_rejected, std::uint64_t corrupted_payloads) {
  if (timed_out) return "timed out";
  if (!drained) return "did not drain";
  if (!reachable_complete) return "reachable pairs not delivered exactly once";
  if (faulted && corrupt_rejected != corrupted_payloads) {
    return "corrupt_rejected " + std::to_string(corrupt_rejected) + " != corrupted_payloads " +
           std::to_string(corrupted_payloads);
  }
  return "";
}

std::string check_run(const bc::RunResult& result, bool faulted) {
  return check_run(result.drained, result.timed_out, result.reachable_complete, faulted,
                   result.reliability.corrupt_rejected, result.faults.corrupted_payloads);
}

bool TimedClient::next_packet(bn::Rank node, bn::InjectDesc& out) {
  const Clock::time_point start = Clock::now();
  const bool got = inner_.next_packet(node, out);
  Acc& acc = acc_[static_cast<std::size_t>(node)];
  acc.busy += Clock::now() - start;
  ++acc.calls;
  ++acc.polls;
  if (!got) ++acc.empty_polls;
  return got;
}

void TimedClient::on_delivery(bn::Rank node, const bn::Packet& packet) {
  const Clock::time_point start = Clock::now();
  inner_.on_delivery(node, packet);
  Acc& acc = acc_[static_cast<std::size_t>(node)];
  acc.busy += Clock::now() - start;
  ++acc.calls;
}

void TimedClient::on_timer(bn::Rank node, std::uint64_t cookie) {
  const Clock::time_point start = Clock::now();
  inner_.on_timer(node, cookie);
  Acc& acc = acc_[static_cast<std::size_t>(node)];
  acc.busy += Clock::now() - start;
  ++acc.calls;
}

TimedClient::Totals TimedClient::totals() const {
  Totals total;
  Clock::duration busy{};
  for (const Acc& acc : acc_) {
    busy += acc.busy;
    total.calls += acc.calls;
    total.polls += acc.polls;
    total.empty_polls += acc.empty_polls;
  }
  total.busy_s = std::chrono::duration<double>(busy).count();
  return total;
}

namespace {

// The body of replay(); sets `body_end` just before its locals (fabric,
// clients, matrix) are destroyed so the caller can time the teardown.
void replay_into(Replay& r, bc::StrategyKind kind, const bc::AlltoallOptions& options,
                 ReplayMode mode, Clock::time_point& body_end) {
  if (options.hop_observer || options.deliveries != nullptr) {
    throw std::invalid_argument("replay: hop observers and caller matrices are not replayed");
  }
  // run_alltoall's effective_net().
  bn::NetworkConfig net = options.net;
  if (const char* env = std::getenv("BGL_CHECK");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    net.debug_checks = true;
  }
  const auto nodes = static_cast<std::int32_t>(net.shape.nodes());

  Clock::time_point t = Clock::now();
  const bn::FaultPlan plan(net, net.shape);
  r.plan_s = seconds_since(t);
  const bn::FaultPlan* faults = plan.enabled() ? &plan : nullptr;
  if (faults != nullptr && net.faults.fail_at > 0) {
    throw std::invalid_argument("replay: delayed strikes (epoch recovery) are not replayed");
  }

  if (kind == bc::StrategyKind::kBest) {
    t = Clock::now();
    kind = bc::select_strategy(net.shape, options.msg_bytes, faults).kind;
    r.select_s = seconds_since(t);
  }

  t = Clock::now();
  bc::DeliveryMatrix matrix(nodes);
  r.matrix_init_s = seconds_since(t);

  t = Clock::now();
  bc::CommSchedule schedule = bc::build_schedule(kind, net, options.msg_bytes, options, faults);
  r.build_schedule_s = seconds_since(t);

  t = Clock::now();
  bc::ScheduleExecutor executor(net, std::move(schedule), &matrix, faults);
  r.executor_init_s = seconds_since(t);

  // finish_run(): the parallel-eligibility gate, then the client stack.
  bn::NetworkConfig run_net = net;
  if (run_net.sim_threads > 1 && !executor.schedule().extra_deps.empty()) {
    run_net.sim_threads = 1;
  }
  const bool traced = mode == ReplayMode::kTraced;
  std::optional<TimedClient> executor_timer;
  bn::Client* inner = &executor;
  if (traced) inner = &executor_timer.emplace(executor, static_cast<std::size_t>(nodes));

  std::optional<bgl::rt::ReliableClient> reliable;
  if (faults != nullptr) {
    t = Clock::now();
    reliable.emplace(run_net, *inner);
    r.reliability_init_s = seconds_since(t);
  }
  r.reliable = reliable.has_value();
  std::optional<TimedClient> reliability_timer;
  bn::Client* top = reliable.has_value() ? &*reliable : inner;
  if (traced && reliable.has_value()) {
    top = &reliability_timer.emplace(*reliable, static_cast<std::size_t>(nodes));
  }

  t = Clock::now();
  bn::Fabric fabric(run_net, *top);
  r.fabric_init_s = seconds_since(t);
  executor.bind(fabric);
  if (reliable.has_value()) reliable->attach(fabric);

  const double peak = bc::peak_cycles_for(run_net.shape, options.msg_bytes, run_net.chunk_cycles);
  const bn::Tick deadline = options.deadline != 0
                                ? options.deadline
                                : static_cast<bn::Tick>(peak * 200.0) + (bn::Tick{4} << 32);
  if (options.wall_timeout_ms > 0.0) {
    const auto kill_at =
        Clock::now() + std::chrono::duration<double, std::milli>(options.wall_timeout_ms);
    fabric.set_abort_check([kill_at] { return Clock::now() >= kill_at; });
  }
  if (mode == ReplayMode::kSetupOnly) {
    body_end = Clock::now();
    return;
  }

  t = Clock::now();
  const bool drained = fabric.run(deadline);
  r.fabric_run_s = seconds_since(t);

  r.fingerprint = {executor.completion_cycles(), fabric.stats().packets_delivered,
                   fabric.events_processed(), fabric.effective_sim_threads()};
  r.fabric = fabric.stats();

  if (run_net.collect_link_stats) {
    t = Clock::now();
    (void)bgl::trace::summarize_links(fabric, r.fingerprint.elapsed_cycles);
    r.links_s = seconds_since(t);
  }

  t = Clock::now();
  bc::PairMask reachable;
  if (faults != nullptr) {
    r.faults = fabric.fault_stats();
    r.faults.stranded_relay_bytes = executor.stranded_relay_bytes(plan);
    reachable = bc::PairMask(nodes);
    executor.mark_reachable(reachable);
    if (reliable.has_value()) r.reliability = reliable->stats();
  }
  (void)matrix.complete_pairs(options.msg_bytes);
  const bool reachable_complete = matrix.complete_reachable(options.msg_bytes, reachable);
  r.verify_s = seconds_since(t);

  if (traced) {
    r.executor = executor_timer->totals();
    if (reliability_timer.has_value()) r.reliability_outer = reliability_timer->totals();
  }
  r.failure = check_run(drained, fabric.aborted(), reachable_complete, faults != nullptr,
                        r.reliability.corrupt_rejected, r.faults.corrupted_payloads);
  body_end = Clock::now();
}

}  // namespace

Replay replay(bc::StrategyKind kind, const bc::AlltoallOptions& options, ReplayMode mode) {
  Replay r;
  Clock::time_point body_end;
  replay_into(r, kind, options, mode, body_end);
  r.teardown_s = seconds_since(body_end);
  return r;
}

}  // namespace perfbench
