// The benchmark's named workloads and how a workload seed becomes the
// simulator options each pass runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/coll/alltoall.hpp"

namespace perfbench {

/// One run_alltoall call of a pass.
struct Case {
  bgl::coll::StrategyKind kind;
  const char* shape;
  std::uint64_t msg_bytes;
};

/// Every workload runs on one simulator thread: on a shared 4-vCPU host the
/// slab-parallel core's window barriers turn hypervisor steal into 3x swings
/// in pass time, which no regression bound can absorb.
struct Workload {
  const char* name;
  std::vector<Case> cases;  // one pass = every case, in order
  const char* faults;       // --faults spec; "" = healthy network
};

const std::vector<Workload>& workloads();

/// nullptr when `name` is not a workload.
const Workload* find_workload(const std::string& name);

/// The options of `workload.cases[index]` at `seed`: the seed derives both
/// NetworkConfig::seed (destination orders, adaptive tie-breaks) and the
/// fault-plan seed, so the simulator sees only the generated options.
/// Verification is always on.
bgl::coll::AlltoallOptions options_for(const Workload& workload, std::size_t index,
                                       std::uint64_t seed);

}  // namespace perfbench
