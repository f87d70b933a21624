// Tests for the fabric's client-facing API surface: timers, FIFO queries,
// wake semantics and run-result accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "src/network/fabric.hpp"

namespace bgl::net {
namespace {

NetworkConfig make_config(const char* shape) {
  NetworkConfig config;
  config.shape = topo::parse_shape(shape);
  config.seed = 1;
  return config;
}

/// Client that exercises timers and deferred injection via wake_cpu.
class TimerClient : public Client {
 public:
  bool next_packet(topo::Rank node, InjectDesc& out) override {
    if (node != 0) return false;
    if (!armed_) {
      // First ask: refuse and arm a timer instead; the packet goes out only
      // after the timer wakes us.
      armed_ = true;
      fabric->schedule_timer(0, 5000, /*cookie=*/77);
      return false;
    }
    if (!timer_fired_ || sent_) return false;
    sent_ = true;
    out.dst = 1;
    out.wire_chunks = 1;
    out.payload_bytes = 32;
    return true;
  }

  void on_timer(topo::Rank node, std::uint64_t cookie) override {
    EXPECT_EQ(node, 0);
    EXPECT_EQ(cookie, 77u);
    timer_fired_ = true;
    fire_time = fabric->now();
    fabric->wake_cpu(node);
  }

  void on_delivery(topo::Rank node, const Packet&) override {
    EXPECT_EQ(node, 1);
    delivery_time = fabric->now();
  }

  Fabric* fabric = nullptr;
  Tick fire_time = 0;
  Tick delivery_time = 0;

 private:
  bool armed_ = false;
  bool timer_fired_ = false;
  bool sent_ = false;
};

TEST(FabricApi, TimerFiresAndWakesTheCore) {
  auto config = make_config("4x1x1");
  TimerClient client;
  Fabric fabric(config, client);
  client.fabric = &fabric;
  EXPECT_TRUE(fabric.run());
  EXPECT_GE(client.fire_time, 5000u);
  EXPECT_GT(client.delivery_time, client.fire_time)
      << "the deferred packet must go out only after the wake";
}

/// Node 0 arms one timer per (delay, cookie) on its first ask and records
/// every firing as (cookie, now()).
class TimerLogClient : public Client {
 public:
  explicit TimerLogClient(std::vector<std::pair<Tick, std::uint64_t>> timers)
      : timers_(std::move(timers)) {}
  bool next_packet(topo::Rank node, InjectDesc&) override {
    if (node == 0 && !armed_) {
      armed_ = true;
      for (const auto& [delay, cookie] : timers_) fabric->schedule_timer(0, delay, cookie);
    }
    return false;
  }
  void on_delivery(topo::Rank, const Packet&) override {}
  void on_timer(topo::Rank, std::uint64_t cookie) override {
    fired.emplace_back(cookie, fabric->now());
  }

  Fabric* fabric = nullptr;
  std::vector<std::pair<std::uint64_t, Tick>> fired;

 private:
  std::vector<std::pair<Tick, std::uint64_t>> timers_;
  bool armed_ = false;
};

TEST(FabricApi, TimersFireInTickOrderToQuiescence) {
  for (const int threads : {1, 2}) {
    auto config = make_config("4x1x1");
    config.sim_threads = threads;
    TimerLogClient client({{5, 1}, {2, 2}});
    Fabric fabric(config, client);
    client.fabric = &fabric;
    ASSERT_EQ(fabric.effective_sim_threads(), threads);
    EXPECT_TRUE(fabric.run()) << threads << " thread(s)";
    ASSERT_EQ(client.fired.size(), 2u) << threads << " thread(s)";
    EXPECT_EQ(client.fired[0], std::make_pair(std::uint64_t{2}, Tick{2}));
    EXPECT_EQ(client.fired[1], std::make_pair(std::uint64_t{1}, Tick{5}));
  }
}

TEST(FabricApi, DeadlineStopsBeforeLaterTimersAndRunResumes) {
  for (const int threads : {1, 2}) {
    auto config = make_config("4x1x1");
    config.sim_threads = threads;
    TimerLogClient client({{10, 1}, {1000, 2}});
    Fabric fabric(config, client);
    client.fabric = &fabric;
    ASSERT_EQ(fabric.effective_sim_threads(), threads);
    EXPECT_FALSE(fabric.run(100)) << threads << " thread(s)";
    ASSERT_EQ(client.fired.size(), 1u) << threads << " thread(s)";
    EXPECT_EQ(client.fired[0], std::make_pair(std::uint64_t{1}, Tick{10}));
    // The later timer is still pending and fires on the next run.
    EXPECT_TRUE(fabric.run()) << threads << " thread(s)";
    ASSERT_EQ(client.fired.size(), 2u) << threads << " thread(s)";
    EXPECT_EQ(client.fired[1], std::make_pair(std::uint64_t{2}, Tick{1000}));
  }
}

/// Floods one FIFO so occupancy queries have something to see.
class FloodClient : public Client {
 public:
  explicit FloodClient(int count) : remaining_(count) {}
  bool next_packet(topo::Rank node, InjectDesc& out) override {
    if (node != 0 || remaining_ == 0) return false;
    --remaining_;
    out.dst = 1;
    out.wire_chunks = 8;
    out.payload_bytes = 240;
    out.fifo = 3;
    return true;
  }
  void on_delivery(topo::Rank, const Packet&) override {}

 private:
  int remaining_;
};

TEST(FabricApi, FifoQueriesSeeOccupancy) {
  auto config = make_config("4x1x1");
  FloodClient client(20);
  Fabric fabric(config, client);
  EXPECT_EQ(fabric.fifo_free_chunks(0, 3), config.injection_fifo_chunks);
  // Run a slice: FIFO 3 backs up behind the single serialized link.
  fabric.run(3000);
  EXPECT_LT(fabric.fifo_free_chunks(0, 3), config.injection_fifo_chunks);
  // pick_fifo avoids the crowded one.
  const int picked = fabric.pick_fifo(0, 0, config.injection_fifos);
  EXPECT_NE(picked, 3);
  EXPECT_TRUE(fabric.run());
  EXPECT_EQ(fabric.fifo_free_chunks(0, 3), config.injection_fifo_chunks);
}

TEST(FabricApi, RunResultAccountingConsistent) {
  coll::AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x4x2");
  options.net.seed = 2;
  options.msg_bytes = 500;
  const auto result = coll::run_alltoall(coll::StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(result.drained);
  const auto nodes = static_cast<std::uint64_t>(options.net.shape.nodes());
  // Payload accounting: every ordered pair moved exactly msg_bytes.
  EXPECT_EQ(result.payload_bytes, nodes * (nodes - 1) * 500u);
  // 500 B = 3 packets per pair.
  EXPECT_EQ(result.packets_delivered, nodes * (nodes - 1) * 3u);
  // Unit conversions.
  EXPECT_NEAR(result.elapsed_us, static_cast<double>(result.elapsed_cycles) / 700.0, 1e-9);
  const double expected_rate =
      static_cast<double>((nodes - 1) * 500u) / result.elapsed_us;
  EXPECT_NEAR(result.per_node_mbps, expected_rate, 1e-6);
  EXPECT_GT(result.events, result.packets_delivered);
}

TEST(FabricApi, CollectLinkStatsOffLeavesCountersEmpty) {
  coll::AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x2x2");
  options.net.collect_link_stats = false;
  options.msg_bytes = 100;
  const auto result = coll::run_alltoall(coll::StrategyKind::kAdaptiveRandom, options);
  EXPECT_TRUE(result.drained);
  EXPECT_DOUBLE_EQ(result.links.overall_mean, 0.0);
}

TEST(FabricApi, DeadlinePreventsRunawayRuns) {
  coll::AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x4x4");
  options.msg_bytes = 4096;
  options.deadline = 1000;  // absurdly tight: must report non-drained
  const auto result = coll::run_alltoall(coll::StrategyKind::kAdaptiveRandom, options);
  EXPECT_FALSE(result.drained);
}

}  // namespace
}  // namespace bgl::net
