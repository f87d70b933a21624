#include "workloads.hpp"

#include "src/network/faults.hpp"

namespace perfbench {

namespace {

using bgl::coll::StrategyKind;

// A stalled simulation is reported as a failed pass (timed_out) instead of
// hanging the benchmark past its exit deadline.
constexpr double kWallTimeoutMs = 100'000.0;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Why each workload exists is recorded in BENCHMARK.json and README.md.
  static const std::vector<Workload> kWorkloads = {
      // Three fault plans per pass (each case index derives its own seeds).
      // The fixed 500k-cycle retransmit timeout quantizes one plan's
      // completion time, so its percent of peak lands on one of a few levels;
      // the aggregate over three plans stays steady from seed to seed. At
      // 8x4x4 a pass takes about 1 s, so a run holds 40 to 70 of them.
      {"ar-faulted-128-st",
       {{StrategyKind::kAdaptiveRandom, "8x4x4", 240},
        {StrategyKind::kAdaptiveRandom, "8x4x4", 240},
        {StrategyKind::kAdaptiveRandom, "8x4x4", 240}},
       "link:0.02,drop:1e-4,corrupt:5e-5"},
      {"short-mix",
       {{StrategyKind::kVirtualMesh, "8x8x8", 8},
        {StrategyKind::kVirtualMesh, "8x8x8", 32},
        {StrategyKind::kAdaptiveRandom, "8x8x8", 32},
        {StrategyKind::kTwoPhase, "4x4x16", 240},
        {StrategyKind::kBest, "8x8x16", 8}},
       ""},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bgl::coll::AlltoallOptions options_for(const Workload& workload, std::size_t index,
                                       std::uint64_t seed) {
  const Case& c = workload.cases.at(index);
  bgl::coll::AlltoallOptions options;
  options.msg_bytes = c.msg_bytes;
  options.net.shape = bgl::topo::parse_shape(c.shape);
  const std::uint64_t stream = seed * 16 + index;
  options.net.seed = splitmix64(stream);
  if (workload.faults[0] != '\0') {
    options.net.faults = bgl::net::parse_fault_spec(workload.faults);
    // Fault seed 0 would derive from the network seed; keep it separate.
    options.net.faults.seed = splitmix64(~stream) | 1;
  }
  options.verify = true;
  options.wall_timeout_ms = kWallTimeoutMs;
  return options;
}

}  // namespace perfbench
