// Degradation sweep: all-to-all throughput and delivery under injected
// link failures.
//
// For each strategy, a fraction of the undirected torus links is failed
// permanently (plus a light probabilistic packet-drop rate, exercising the
// end-to-end retransmission path) and the run reports
//   - percent of the *healthy* Eq. 2 peak (so columns are comparable),
//   - the fraction of ordered pairs the strategy could still serve, and
//   - whether every reachable pair received its data exactly once.
// Direct AR degrades gracefully (adaptive routing reroutes inside the
// minimal DAG); DR loses every pair whose single dimension-order path dies;
// TPS re-picks live intermediates; VMesh is the most brittle since one dead
// relay strands a whole row/column of the virtual mesh.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/util/shape_arg.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("bytes", "payload per destination (default 240)");
  cli.describe("shape", "partition to degrade (default 8x8x8)");
  cli.describe("drop", "extra per-arrival packet drop probability (default 1e-5)");
  cli.validate();
  const auto bytes = static_cast<std::uint64_t>(cli.get_int("bytes", 240));
  const auto shape = util::alltoall_shape_arg_or_exit(cli.get("shape", "8x8x8"), cli.program());
  const double drop = cli.get_double("drop", 1e-5);

  bench::print_header("Ablation — graceful degradation under link faults",
                      "percent of healthy peak / % of pairs served, by failed-link fraction");

  const double link_fracs[] = {0.0, 0.01, 0.02, 0.05, 0.10};
  const coll::StrategyKind kinds[] = {
      coll::StrategyKind::kAdaptiveRandom, coll::StrategyKind::kDeterministic,
      coll::StrategyKind::kTwoPhase, coll::StrategyKind::kVirtualMesh};
  const char* kind_names[] = {"AR", "DR", "TPS", "VMesh"};

  harness::Sweep sweep;
  for (const auto kind : kinds) {
    for (const double frac : link_fracs) {
      auto options = bench::base_options(shape, bytes, ctx);
      options.verify = true;
      options.net.faults.link_fail = frac;
      if (frac > 0.0) options.net.faults.drop_prob = drop;
      sweep.add(kind, options,
                shape.to_string() + "/" + coll::strategy_name(kind) + "/link" +
                    util::fmt(100.0 * frac, 0) + "%");
    }
  }
  const auto results = ctx.run(sweep);

  const auto nodes = static_cast<double>(shape.nodes());
  const double all_pairs = nodes * (nodes - 1.0);

  std::vector<std::string> header = {"strategy"};
  for (const double frac : link_fracs) {
    header.push_back(util::fmt(100.0 * frac, 0) + "% links");
  }
  util::Table table(header);
  std::size_t job = 0;
  bool all_reachable_served = true;
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    std::vector<std::string> row = {kind_names[k]};
    for (std::size_t f = 0; f < std::size(link_fracs); ++f) {
      const auto& r = results[job++];
      if (!r.ran) {
        row.push_back("-");
        continue;
      }
      const double served =
          all_pairs > 0.0 ? 100.0 * static_cast<double>(r.run.pairs_complete) / all_pairs
                          : 0.0;
      row.push_back(util::fmt(r.run.percent_peak, 1) + " / " + util::fmt(served, 1) + "%" +
                    (r.run.reachable_complete ? "" : " !"));
      if (!r.run.reachable_complete) all_reachable_served = false;
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\nCell: percent of healthy peak / %% of the %d ordered pairs fully\n"
              "delivered ('!' marks a run where some *reachable* pair was not served —\n"
              "a reliability bug, not expected at these fault rates). Fault plans and\n"
              "results are bit-deterministic for a fixed --seed at any --jobs count.\n",
              static_cast<int>(all_pairs));
  if (!all_reachable_served) {
    std::printf("WARNING: at least one run failed to deliver all reachable pairs.\n");
  }
  return 0;
}
