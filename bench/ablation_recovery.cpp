// Recovery-cost sweep: what a mid-collective fail-stop costs with epoch
// recovery on, by strike time and strategy — plus corruption-detection
// overhead for the Byzantine-link (corrupt:p) fault mode.
//
// Table 1 strikes one node at a fraction of the healthy completion time
// and lets the epoch layer re-plan: survivors agree on a liveness view,
// compute the undelivered residual from the per-pair ledger, and drain it
// with repair schedules until every reachable pair is served exactly once.
// The cell shows the struck run's percent of *healthy* peak (re-plan cycles
// included), the number of repair epochs it took and the payload volume
// the repair epochs re-sourced. Strategies with relay custody (TPS, VMesh)
// pay more: the dead node strands whole second-phase batches that must be
// re-sent from their origins.
//
// Table 2 turns on the corrupt:p fabric mode (payload bits flipped at
// delivery, never dropped) and reports the throughput cost of detecting
// and retransmitting every corruption end-to-end. Detection must be total:
// a '!' marks a run where a corrupted payload escaped the checksum or some
// reachable pair went unserved — both are bugs, not tuning.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/util/shape_arg.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("bytes", "payload per destination (default 240)");
  cli.describe("shape", "partition to strike (default 8x8x8)");
  cli.validate();
  const auto bytes = static_cast<std::uint64_t>(cli.get_int("bytes", 240));
  const auto shape = util::alltoall_shape_arg_or_exit(cli.get("shape", "8x8x8"), cli.program());

  bench::print_header("Ablation — epoch recovery from a mid-collective fail-stop",
                      "percent of healthy peak / repair epochs / payload re-sourced");

  const coll::StrategyKind kinds[] = {coll::StrategyKind::kAdaptiveRandom,
                                      coll::StrategyKind::kTwoPhase,
                                      coll::StrategyKind::kVirtualMesh};
  const char* kind_names[] = {"AR", "TPS", "VMesh"};

  // Healthy baselines: one run per strategy fixes the strike times (fractions
  // of the healthy completion) and the reference peak for every cell.
  coll::Tick healthy_cycles[std::size(kinds)] = {};
  double healthy_peak[std::size(kinds)] = {};
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    auto options = bench::base_options(shape, bytes, ctx);
    options.net.seed = ctx.seed();
    const auto healthy = coll::run_alltoall(kinds[k], options);
    healthy_cycles[k] = healthy.elapsed_cycles;
    healthy_peak[k] = healthy.percent_peak;
  }

  const double strike_fracs[] = {0.125, 0.25, 0.5, 0.75};
  const double corrupt_probs[] = {1e-4, 1e-3};

  harness::Sweep sweep;
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    for (const double frac : strike_fracs) {
      auto options = bench::base_options(shape, bytes, ctx);
      options.verify = true;
      options.net.faults.node_fail = 1;
      options.net.faults.fail_at =
          static_cast<coll::Tick>(static_cast<double>(healthy_cycles[k]) * frac);
      sweep.add(kinds[k], options,
                shape.to_string() + "/" + kind_names[k] + "/strike" +
                    util::fmt(100.0 * frac, 0) + "%");
    }
  }
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    for (const double prob : corrupt_probs) {
      auto options = bench::base_options(shape, bytes, ctx);
      options.verify = true;
      options.net.faults.corrupt_prob = prob;
      sweep.add(kinds[k], options,
                shape.to_string() + "/" + kind_names[k] + "/corrupt" +
                    util::fmt(1e4 * prob, 0) + "e-4");
    }
  }
  const auto results = ctx.run(sweep);

  std::size_t job = 0;
  bool all_recovered = true;

  std::vector<std::string> header = {"strategy", "healthy"};
  for (const double frac : strike_fracs) {
    header.push_back("strike@" + util::fmt(100.0 * frac, 0) + "%");
  }
  util::Table table(header);
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    std::vector<std::string> row = {kind_names[k], util::fmt(healthy_peak[k], 1) + "%"};
    for (std::size_t f = 0; f < std::size(strike_fracs); ++f) {
      const auto& r = results[job++];
      if (!r.ran) {
        row.push_back("-");
        continue;
      }
      const bool ok = r.run.reachable_complete && r.run.faults.stranded_relay_bytes == 0;
      row.push_back(util::fmt(r.run.percent_peak, 1) + " / " +
                    std::to_string(r.run.epochs.replans) + "ep / " +
                    util::fmt(static_cast<double>(r.run.epochs.recovered_bytes) / 1024.0, 0) +
                    "KB" + (ok ? "" : " !"));
      if (!ok) all_recovered = false;
    }
    table.add_row(std::move(row));
  }
  table.print();

  std::printf("\nByzantine-link detection overhead (corrupt:p):\n\n");
  std::vector<std::string> cheader = {"strategy"};
  for (const double prob : corrupt_probs) {
    cheader.push_back("corrupt " + util::fmt(1e4 * prob, 0) + "e-4");
  }
  util::Table ctable(cheader);
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    std::vector<std::string> row = {kind_names[k]};
    for (std::size_t c = 0; c < std::size(corrupt_probs); ++c) {
      const auto& r = results[job++];
      if (!r.ran) {
        row.push_back("-");
        continue;
      }
      const bool ok = r.run.reachable_complete &&
                      r.run.reliability.corrupt_rejected == r.run.faults.corrupted_payloads;
      row.push_back(util::fmt(r.run.percent_peak, 1) + "% / " +
                    std::to_string(r.run.epochs.corruption_retransmits) + " rtx" +
                    (ok ? "" : " !"));
      if (!ok) all_recovered = false;
    }
    ctable.add_row(std::move(row));
  }
  ctable.print();

  std::printf("\nTable 1 cell: struck-run percent of the healthy Eq. 2 peak (re-plan\n"
              "cycles included) / repair epochs / payload the repair epochs re-sourced.\n"
              "Table 2 cell: percent of peak / corrupted payloads detected and\n"
              "retransmitted. '!' marks a run that left a reachable pair unserved,\n"
              "stranded relay bytes undrained, or a corruption undetected — all bugs.\n"
              "Runs are bit-deterministic for a fixed --seed at any --jobs count.\n");
  if (!all_recovered) {
    std::printf("FAILED: at least one run failed recovery or detection.\n");
  }
  // Non-zero on any violated contract so CI's chaos-smoke job can gate on it.
  return all_recovered ? 0 : 1;
}
