// A fixed host-speed probe, measured between the simulator passes.
//
// The benchmark's host is shared: its speed for the simulator's kind of code
// (allocation, hash tables, random reads and writes) drifts by up to 2x over
// minutes, and no hardware counter is available to time the simulator in
// cycles or instructions instead. The probe is a fixed piece of that kind of
// code that uses nothing from src/, so its time tracks the host and never the
// simulator. A run reports pass time in units of the probe's time next to the
// raw seconds: the drift largely cancels in the ratio, and a change to the
// simulator moves the ratio in full.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// Builds the probe's inputs (about 6 MiB); not part of any measurement.
  HostProbe();

  /// Runs the probe once and returns its host seconds (about 40 ms on an
  /// uncontended core of the reference host).
  double measure();

 private:
  std::vector<std::uint32_t> chase_;  // one random cycle over 1 Mi entries
  std::vector<std::uint32_t> table_;  // open-addressing table, 256 Ki entries
  std::vector<std::uint32_t> keys_;
  std::uint64_t sink_ = 0;  // keeps every kernel's result live
};

}  // namespace perfbench
