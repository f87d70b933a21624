// Message-size sweep across strategies with optional CSV/JSON output — the
// workhorse for producing Figure 6/7-style plots on any partition.
//
//   ./latency_sweep --shape 8x8x16 --sizes 1,8,64,240,960 --jobs 8 --csv sweep.csv
//
// Every (size, strategy) point is an independent simulation; --jobs N runs
// them on N worker threads with per-job seeds derived from --seed, so the
// table is bit-identical whatever the thread count.
#include <cstdio>
#include <string>
#include <vector>

#include "src/harness/bench.hpp"
#include "src/util/shape_arg.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  auto ctx = harness::BenchContext::from_cli(cli);
  cli.describe("shape", "partition (default 8x8x8)");
  cli.describe("sizes", "comma-separated payload sizes (default 1,8,32,64,240,960)");
  cli.describe("strategies", "comma list of mpi,ar,dr,throttle,tps,vmesh (default ar,tps,vmesh)");
  cli.validate();

  const auto shape = util::alltoall_shape_arg_or_exit(cli.get("shape", "8x8x8"), cli.program());
  const auto sizes = util::parse_int_list(cli.get("sizes", "1,8,32,64,240,960"));

  std::vector<coll::StrategyKind> kinds;
  {
    const std::string spec = cli.get("strategies", "ar,tps,vmesh");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      const auto comma = spec.find(',', pos);
      const auto name = spec.substr(pos, comma == std::string::npos ? spec.npos : comma - pos);
      if (name == "mpi") kinds.push_back(coll::StrategyKind::kMpi);
      else if (name == "ar") kinds.push_back(coll::StrategyKind::kAdaptiveRandom);
      else if (name == "dr") kinds.push_back(coll::StrategyKind::kDeterministic);
      else if (name == "throttle") kinds.push_back(coll::StrategyKind::kThrottled);
      else if (name == "tps") kinds.push_back(coll::StrategyKind::kTwoPhase);
      else if (name == "vmesh") kinds.push_back(coll::StrategyKind::kVirtualMesh);
      else {
        std::fprintf(stderr, "unknown strategy: %s\n", name.c_str());
        return 1;
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  harness::Sweep sweep;
  for (const auto size : sizes) {
    for (const auto kind : kinds) {
      sweep.add(kind, ctx.base_options(shape, static_cast<std::uint64_t>(size)));
    }
  }
  const auto results = ctx.run(sweep);

  std::printf("all-to-all time (us) on %s\n\n", shape.to_string().c_str());
  std::vector<std::string> headers = {"msg bytes"};
  for (const auto kind : kinds) headers.push_back(coll::strategy_name(kind));
  util::Table table(headers);

  std::size_t job = 0;
  for (const auto size : sizes) {
    std::vector<std::string> row = {util::fmt_bytes(static_cast<std::uint64_t>(size))};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      row.push_back(util::fmt(results[job++].run.elapsed_us, 1));
    }
    table.add_row(std::move(row));
  }
  table.print();
  return 0;
}
