// Many-to-many communication on the simulated torus — the "more complex
// many-to-many patterns" the paper's introduction hopes its analysis
// benefits. Uses the library's sparse-pattern API (coll::Pattern /
// coll::run_many_to_many) to compare the direct AR transport against the
// TPS two-phase schedule as the fan-out grows from a halo exchange toward a
// full all-to-all.
//
//   ./many_to_many --shape 8x8x16 --bytes 960 --fanouts 2,8,32
#include <cstdio>

#include "src/coll/many_to_many.hpp"
#include "src/util/shape_arg.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  cli.describe("shape", "partition (default 8x8x16)");
  cli.describe("bytes", "message bytes per destination (default 960)");
  cli.describe("fanouts", "comma-separated destination counts (default 2,8,32,128)");
  cli.describe("seed", "simulation seed");
  cli.validate();

  const auto shape = util::shape_arg_or_exit(cli.get("shape", "8x8x16"), cli.program());
  const auto bytes = static_cast<std::uint64_t>(cli.get_int("bytes", 960));
  const auto fanouts = util::parse_int_list(cli.get("fanouts", "2,8,32,128"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto nodes = static_cast<std::int32_t>(shape.nodes());

  std::printf("many-to-many on %s: each node sends %llu B to its peers\n\n",
              shape.to_string().c_str(), static_cast<unsigned long long>(bytes));

  auto run = [&](const coll::Pattern& pattern, bool two_phase) {
    coll::AlltoallOptions options;
    options.net.shape = shape;
    options.net.seed = seed;
    options.msg_bytes = bytes;
    const auto kind =
        two_phase ? coll::StrategyKind::kTwoPhase : coll::StrategyKind::kAdaptiveRandom;
    const auto result = coll::run_many_to_many(pattern, kind, options);
    if (!result.drained) std::fprintf(stderr, "warning: run stalled\n");
    return result;
  };

  util::Table table({"pattern", "messages", "direct us", "two-phase us", "2ph/direct",
                     "direct link util %"});

  const auto halo = coll::Pattern::halo(shape);
  const auto halo_direct = run(halo, false);
  const auto halo_tps = run(halo, true);
  table.add_row({"6-pt halo", std::to_string(halo.total_messages()),
                 util::fmt(halo_direct.elapsed_us, 1), util::fmt(halo_tps.elapsed_us, 1),
                 util::fmt(halo_tps.elapsed_us / halo_direct.elapsed_us, 2),
                 util::fmt(100.0 * halo_direct.links.overall_mean, 1)});

  for (const auto fanout : fanouts) {
    const auto pattern = coll::Pattern::random_subset(nodes, static_cast<int>(fanout),
                                                      seed ^ 0xabcd);
    const auto direct = run(pattern, false);
    const auto tps = run(pattern, true);
    table.add_row({"random k=" + std::to_string(fanout),
                   std::to_string(pattern.total_messages()),
                   util::fmt(direct.elapsed_us, 1), util::fmt(tps.elapsed_us, 1),
                   util::fmt(tps.elapsed_us / direct.elapsed_us, 2),
                   util::fmt(100.0 * direct.links.overall_mean, 1)});
  }
  table.print();
  std::printf("\nSparse patterns are latency-bound and gain nothing from two-phase\n"
              "routing; as the fan-out approaches all-to-all on an asymmetric torus,\n"
              "the congestion-avoidance of the two-phase schedule starts to pay.\n");
  return 0;
}
