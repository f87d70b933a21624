// Interactive exploration: run every all-to-all strategy on one partition
// across a size sweep and print a comparison matrix plus per-axis link
// utilization — the tool for reproducing the paper's "which strategy where"
// conclusions on arbitrary shapes.
//
//   ./strategy_explorer --shape 8x32x16 --sizes 8,64,240,960
#include <cstdio>
#include <vector>

#include "src/coll/direct.hpp"
#include "src/coll/schedule.hpp"
#include "src/coll/alltoall.hpp"
#include "src/coll/registry.hpp"
#include "src/network/fabric.hpp"
#include "src/trace/heatmap.hpp"
#include "src/util/shape_arg.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace bgl;
  util::Cli cli(argc, argv);
  cli.describe("shape", "partition (default 8x8x16)");
  cli.describe("sizes", "comma-separated payload sizes (default 8,64,240,960)");
  cli.describe("seed", "simulation seed");
  cli.describe("links", "also print per-axis link utilization per run");
  cli.describe("heatmap", "print an AR link-utilization heatmap first");
  cli.validate();

  const auto shape = util::alltoall_shape_arg_or_exit(cli.get("shape", "8x8x16"), cli.program());
  auto sizes = util::parse_int_list(cli.get("sizes", "8,64,240,960"));
  const bool show_links = cli.get_bool("links", false);

  std::printf("strategy comparison on %s (%lld nodes); cells are %% of Eq. 2 peak\n\n",
              shape.to_string().c_str(), static_cast<long long>(shape.nodes()));

  if (cli.get_bool("heatmap", false)) {
    // One AR run with direct fabric access for the utilization pictures.
    bgl::net::NetworkConfig config;
    config.shape = shape;
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    coll::ScheduleExecutor client(
        config, coll::build_direct_schedule(config, 240, coll::DirectTuning::ar()),
        nullptr);
    bgl::net::Fabric fabric(config, client);
    client.bind(fabric);
    if (fabric.run()) {
      const auto elapsed = fabric.stats().last_delivery;
      std::printf("AR link utilization, 240 B message:\n%s\n%s\n",
                  trace::axis_summary(fabric, elapsed).c_str(),
                  trace::plane_heatmap(fabric, elapsed, 0).c_str());
    }
  }

  std::vector<std::string> headers = {"strategy"};
  for (const auto size : sizes) {
    headers.push_back(util::fmt_bytes(static_cast<std::uint64_t>(size)));
  }
  util::Table table(headers);

  // The registry enumerates every concrete strategy, so a new schedule
  // builder shows up in the matrix without touching this tool.
  for (const auto& info : coll::strategy_registry()) {
    std::vector<std::string> row = {info.name};
    for (const auto size : sizes) {
      coll::AlltoallOptions options;
      options.net.shape = shape;
      options.net.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
      options.msg_bytes = static_cast<std::uint64_t>(size);
      const auto result = coll::run_alltoall(info.kind, options);
      row.push_back(util::fmt(result.percent_peak, 1));
      if (show_links) {
        std::printf("%-12s %6sB: %s\n", result.strategy.c_str(),
                    util::fmt_bytes(options.msg_bytes).c_str(),
                    result.links.to_string().c_str());
      }
    }
    table.add_row(std::move(row));
  }
  if (show_links) std::printf("\n");
  table.print();
  return 0;
}
