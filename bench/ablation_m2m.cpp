// Extension bench: the paper's techniques applied to many-to-many patterns
// (introduction / Section 5: "we hope the performance analysis and the
// optimization techniques ... can also be applied for more complex
// many-to-many communication patterns").
//
// Sweeps the fan-out of a random-subset pattern on an asymmetric torus and
// compares direct adaptive routing against two-phase (TPS-style) routing.
// Each (pattern, routing) cell is an independent simulation, so the grid
// runs through the generic harness runner with per-job derived seeds.
// Sparse runs share run_alltoall's path, so --faults (with per-pair
// verification) and --sim-threads apply.
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/coll/many_to_many.hpp"
#include "src/harness/runner.hpp"
#include "src/util/shape_arg.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  cli.describe("shape", "partition (default 8x8x16)");
  cli.describe("bytes", "message bytes per destination (default 960)");
  cli.validate();

  const auto shape = util::shape_arg_or_exit(cli.get("shape", "8x8x16"), cli.program());
  const auto bytes = static_cast<std::uint64_t>(cli.get_int("bytes", 960));
  const auto nodes = static_cast<std::int32_t>(shape.nodes());

  bench::print_header("Extension — many-to-many fan-out sweep, direct vs two-phase",
                      ("partition " + shape.to_string() + ", " + std::to_string(bytes) +
                       " B per message")
                          .c_str());

  struct Case {
    std::string name;
    coll::Pattern pattern;
  };
  std::vector<Case> cases;
  cases.push_back({"halo", coll::Pattern::halo(shape)});
  for (const int fanout : {4, 16, 64}) {
    cases.push_back({"random k=" + std::to_string(fanout),
                     coll::Pattern::random_subset(nodes, fanout, ctx.seed() ^ 0x777)});
  }

  // Two jobs per case: [2i] direct, [2i+1] two-phase.
  const auto results = harness::run_ordered(
      cases.size() * 2, ctx.sweep.jobs, [&](std::size_t index) {
        // --faults and --sim-threads apply as in the all-to-all benches.
        coll::AlltoallOptions options = ctx.base_options(shape, bytes);
        options.net.seed = harness::derive_seed(ctx.seed(), index / 2);
        const auto kind = (index % 2) == 1 ? coll::StrategyKind::kTwoPhase
                                           : coll::StrategyKind::kAdaptiveRandom;
        return coll::run_many_to_many(cases[index / 2].pattern, kind, options);
      });

  util::Table table({"pattern", "messages", "direct us", "two-phase us", "2ph speedup",
                     "bottleneck axis util %"});
  const int axis = shape.longest_axis();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& direct = results[2 * i];
    const auto& tps = results[2 * i + 1];
    table.add_row({cases[i].name, std::to_string(cases[i].pattern.total_messages()),
                   util::fmt(direct.elapsed_us, 1), util::fmt(tps.elapsed_us, 1),
                   util::fmt(direct.elapsed_us / tps.elapsed_us, 2),
                   util::fmt(100.0 * direct.links.axis[static_cast<std::size_t>(axis)].mean, 1)});
  }
  table.print();
  int failed = 0;
  for (const auto& r : results) {
    failed += !r.drained || (r.verified && !r.reachable_complete);
  }
  if (failed > 0) {
    std::printf("\nWARNING: %d run(s) stalled or left a reachable patterned pair short\n",
                failed);
  }
  std::printf("\nExpected shape: sparse fan-outs are latency-bound (two-phase's extra hop\n"
              "hurts); dense fan-outs on an asymmetric torus congest like all-to-all\n"
              "and two-phase routing wins — the paper's claim carried beyond AA.\n");
  return 0;
}
