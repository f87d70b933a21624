// Shared context for the reproduction benches: paper-shape scaling, the
// parallel-runner options (--jobs, --seed) and the machine-readable output
// sinks (--csv, --json). Formatting helpers (headers, shape notes) stay in
// bench/bench_util.hpp.
//
// Partitions above `node_budget` nodes are expensive to simulate
// packet-by-packet, so by default such rows run on a shape scaled down by
// halving dimensions while preserving the asymmetry ratios; `--full` runs
// the paper-exact sizes (documented per bench in EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "src/harness/sweep.hpp"
#include "src/topology/torus.hpp"
#include "src/util/cli.hpp"

namespace bgl::harness {

inline constexpr std::int64_t kDefaultNodeBudget = 1024;

struct BenchContext {
  bool full = false;
  std::int64_t node_budget = kDefaultNodeBudget;
  SweepOptions sweep{};
  std::string csv_path;   // empty = no CSV sink
  std::string json_path;  // empty = no JSON sink
  /// Append the nondeterministic wall_ms/events_per_sec columns to per-run
  /// sink rows (off by default so shard outputs merge bit-identically).
  bool host_timing = false;
  /// Fault injection applied to every point (--faults spec; disabled by
  /// default). Simulation results remain deterministic for a fixed seed.
  net::FaultConfig faults{};
  /// Worker threads inside each simulation (--sim-threads; the slab-parallel
  /// fabric core). Orthogonal to --jobs, which parallelizes across sweep
  /// points: for many small points prefer --jobs, for one huge partition
  /// prefer --sim-threads. Fault injection and hop observers run parallel
  /// too; only zero-lookahead configs and dependency-gated schedules fall
  /// back to 1 per run (RunResult::sim_threads_reason says why).
  int sim_threads = 1;
  /// Per-run CSV/JSON output of an earlier run (--resume): slots whose
  /// drained rows are already present are skipped, and the sinks write a
  /// merged file byte-identical to an uninterrupted run (see resume.hpp).
  /// Sinks are written once the sweep returns, so a killed sweep leaves no
  /// file; resume reuses finished outputs and reruns their undrained rows.
  /// Requires --csv or --json; incompatible with --repeats > 1 and
  /// --host-timing. Resumed points print as zero rows in the bench tables.
  std::string resume_path;

  /// Declares and reads the shared bench options (--full, --budget, --seed,
  /// --jobs, --shard, --repeats, --progress, --csv, --json, --host-timing,
  /// --timeout, --faults, --sim-threads). Call before cli.validate(). Prints
  /// a clear error to stderr and exits with status 2 on invalid values
  /// (--jobs 0, --repeats 0, malformed --shard or --faults, non-numeric
  /// values).
  static BenchContext from_cli(util::Cli& cli);

  std::uint64_t seed() const { return sweep.base_seed; }

  /// The shape a row actually runs at. Preference: halve *every* non-trivial
  /// dimension at once, which preserves the paper shape's asymmetry ratios
  /// exactly (32x32x16 -> 16x16x8); when some dimension is too small for
  /// that, halve the largest halvable dimension instead. Wrap flags are
  /// kept; dimensions never drop below 2.
  topo::Shape runnable(const topo::Shape& paper_shape) const;

  /// Options for one simulated point (the per-job seed is derived later,
  /// when the sweep runs).
  coll::AlltoallOptions base_options(const topo::Shape& shape,
                                     std::uint64_t msg_bytes) const;

  /// Runs the sweep on the worker pool, streams the rows into any
  /// configured sinks (per-run rows when --repeats is 1, aggregated
  /// min/mean/max/stddev rows otherwise), prints the throughput footer,
  /// and returns one representative result per sweep point in job order:
  /// the repeat-0 run for points this shard executed, and a zeroed result
  /// with `ran == false` for points outside the shard (so bench table
  /// indexing stays valid under --shard).
  std::vector<SimResult> run(const Sweep& sweep_jobs) const;
};

}  // namespace bgl::harness
