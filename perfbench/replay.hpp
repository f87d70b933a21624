// Traced replay of coll::run_alltoall from the outside.
//
// replay() re-issues, in run_alltoall's order, the public calls it makes for
// the benchmark's workloads (FaultPlan, select_strategy for kBest,
// DeliveryMatrix, build_schedule, ScheduleExecutor, ReliableClient under
// faults, the Fabric constructor, Fabric::run, summarize_links,
// mark_reachable and the delivery checks) and times each one. In traced mode
// it also interposes TimedClient wrappers around the executor and, under
// faults, around the reliability client, so executor time, reliability self
// time and fabric self time separate without touching the simulator.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "src/network/fabric.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// What a run must reproduce exactly at a fixed (seed, threads): the
/// simulated outcome, independent of host timing.
struct Fingerprint {
  bgl::net::Tick elapsed_cycles = 0;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  int threads = 0;

  bool operator==(const Fingerprint&) const = default;
  std::string to_string() const;
};

Fingerprint fingerprint_of(const bgl::coll::RunResult& result);

/// The benchmark's correctness gate for one run: "" when it passes, else why
/// not. A run fails when it did not drain or timed out, when a reachable pair
/// is short or anything landed off the reachable set, or when under faults
/// the receivers rejected a different number of corrupted payloads than the
/// fabric corrupted.
std::string check_run(bool drained, bool timed_out, bool reachable_complete, bool faulted,
                      std::uint64_t corrupt_rejected, std::uint64_t corrupted_payloads);
std::string check_run(const bgl::coll::RunResult& result, bool faulted);

/// Forwards every callback to `inner`, accumulating host time and call
/// counts per node. Each node's accumulator sits on its own cache line and
/// only the slab owning that node touches it, so no atomics are needed.
class TimedClient final : public bgl::net::Client {
 public:
  struct Totals {
    double busy_s = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t polls = 0;        // next_packet calls
    std::uint64_t empty_polls = 0;  // next_packet calls that returned false
  };

  TimedClient(bgl::net::Client& inner, std::size_t nodes) : inner_(inner), acc_(nodes) {}
  TimedClient(const TimedClient&) = delete;
  TimedClient& operator=(const TimedClient&) = delete;

  bool next_packet(bgl::net::Rank node, bgl::net::InjectDesc& out) override;
  void on_delivery(bgl::net::Rank node, const bgl::net::Packet& packet) override;
  void on_timer(bgl::net::Rank node, std::uint64_t cookie) override;

  Totals totals() const;

 private:
  struct alignas(64) Acc {
    Clock::duration busy{};
    std::uint64_t calls = 0;
    std::uint64_t polls = 0;
    std::uint64_t empty_polls = 0;
  };

  bgl::net::Client& inner_;
  std::vector<Acc> acc_;
};

enum class ReplayMode {
  kSetupOnly,  // stop after the Fabric constructor
  kUntraced,   // full run, no wrappers
  kTraced,     // full run with TimedClient wrappers interposed
};

/// Host seconds of each replayed call plus the layer counters of one run.
struct Replay {
  // Set-up calls, before Fabric::run.
  double plan_s = 0.0;
  double select_s = 0.0;
  double matrix_init_s = 0.0;
  double build_schedule_s = 0.0;
  double executor_init_s = 0.0;
  double reliability_init_s = 0.0;
  double fabric_init_s = 0.0;
  // Fabric::run and the calls after it.
  double fabric_run_s = 0.0;
  double links_s = 0.0;
  double verify_s = 0.0;    // stranded bytes, mark_reachable, delivery checks
  double teardown_s = 0.0;  // destroying the fabric, clients and matrix

  // Wrapper totals (kTraced only); reliability is zero on healthy runs.
  TimedClient::Totals executor;
  TimedClient::Totals reliability_outer;
  bool reliable = false;

  Fingerprint fingerprint;
  bgl::net::FabricStats fabric;
  bgl::net::FaultStats faults;
  bgl::rt::ReliabilityStats reliability;
  std::string failure;  // check_run's verdict

  double setup_s() const {
    return plan_s + select_s + matrix_init_s + build_schedule_s + executor_init_s +
           reliability_init_s + fabric_init_s;
  }
};

/// Replays run_alltoall(kind, options). Throws std::invalid_argument for
/// options whose run_alltoall path the replay does not reproduce (hop
/// observers, caller-owned matrices, delayed strikes that arm recovery).
Replay replay(bgl::coll::StrategyKind kind, const bgl::coll::AlltoallOptions& options,
              ReplayMode mode);

}  // namespace perfbench
