#include "src/coll/many_to_many.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/network/faults.hpp"

namespace bgl::coll {
namespace {

AlltoallOptions make_options(const char* shape, std::uint64_t msg_bytes = 240) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape(shape);
  options.net.seed = 1;
  options.msg_bytes = msg_bytes;
  return options;
}

bool patterned(const Pattern& pattern, topo::Rank s, topo::Rank d) {
  const auto& dests = pattern.dests[static_cast<std::size_t>(s)];
  return s != d && std::find(dests.begin(), dests.end(), d) != dests.end();
}

TEST(Pattern, RandomSubsetHasExactFanout) {
  const auto pattern = Pattern::random_subset(64, 5, 9);
  ASSERT_EQ(pattern.dests.size(), 64u);
  for (std::size_t n = 0; n < 64; ++n) {
    EXPECT_EQ(pattern.dests[n].size(), 5u);
    std::set<topo::Rank> unique(pattern.dests[n].begin(), pattern.dests[n].end());
    EXPECT_EQ(unique.size(), 5u);
    EXPECT_EQ(unique.count(static_cast<topo::Rank>(n)), 0u);
  }
  EXPECT_EQ(pattern.total_messages(), 64u * 5u);
}

TEST(Pattern, HaloMatchesTorusNeighbors) {
  const auto shape = topo::parse_shape("4x4x4");
  const auto pattern = Pattern::halo(shape);
  for (const auto& dests : pattern.dests) EXPECT_EQ(dests.size(), 6u);

  // On a 2-extent dimension +/- reach the same node: deduplicated.
  const auto thin = Pattern::halo(topo::parse_shape("4x4x2"));
  for (const auto& dests : thin.dests) EXPECT_EQ(dests.size(), 5u);

  // Mesh corner has fewer neighbors.
  const auto mesh = Pattern::halo(topo::parse_shape("4Mx4x4"));
  const topo::Torus torus{topo::parse_shape("4Mx4x4")};
  const topo::Rank corner = torus.rank_of({{0, 0, 0}});
  EXPECT_EQ(mesh.dests[static_cast<std::size_t>(corner)].size(), 5u);
}

TEST(Pattern, GridPartnersRowAndColumn) {
  const auto pattern = Pattern::grid_partners(16, 4);
  // Each of 16 ranks talks to 3 row + 3 column partners.
  for (const auto& dests : pattern.dests) EXPECT_EQ(dests.size(), 6u);
  // Rank 5 (row 1, col 1): row partners 4,6,7; column partners 1,9,13.
  const std::set<topo::Rank> expected = {4, 6, 7, 1, 9, 13};
  const std::set<topo::Rank> actual(pattern.dests[5].begin(), pattern.dests[5].end());
  EXPECT_EQ(actual, expected);
}

class M2MTransport : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(M2MTransport, DeliversEveryMessageExactlyOnce) {
  AlltoallOptions options = make_options("4x4x8", 333);
  DeliveryMatrix matrix(static_cast<std::int32_t>(options.net.shape.nodes()));
  options.deliveries = &matrix;

  const auto pattern = Pattern::random_subset(128, 7, 3);
  const RunResult result = run_many_to_many(pattern, GetParam(), options);
  EXPECT_TRUE(result.drained);
  EXPECT_EQ(result.strategy, strategy_name(GetParam()));
  EXPECT_TRUE(result.reachable_complete);
  EXPECT_EQ(result.pairs_complete, 128u * 7u);
  // Every pair outside the pattern is reported unreachable.
  EXPECT_EQ(result.unreachable_pairs, 128u * 127u - 128u * 7u);
  // All-to-all rates do not apply to a sparse run.
  EXPECT_EQ(result.percent_peak, 0.0);
  EXPECT_EQ(result.per_node_mbps, 0.0);

  // Exactly the patterned pairs received exactly msg_bytes.
  for (topo::Rank s = 0; s < 128; ++s) {
    for (topo::Rank d = 0; d < 128; ++d) {
      const std::uint64_t want = patterned(pattern, s, d) ? 333u : 0u;
      ASSERT_EQ(matrix.bytes(s, d), want) << s << " -> " << d;
    }
  }
}

TEST_P(M2MTransport, HaloCompletes) {
  AlltoallOptions options = make_options("4x4x4", 1024);
  options.verify = true;
  const auto pattern = Pattern::halo(options.net.shape);
  const RunResult result = run_many_to_many(pattern, GetParam(), options);
  EXPECT_TRUE(result.drained);
  EXPECT_TRUE(result.reachable_complete);
  EXPECT_GT(result.elapsed_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(DirectAndTwoPhase, M2MTransport,
                         ::testing::Values(StrategyKind::kAdaptiveRandom,
                                           StrategyKind::kTwoPhase));

TEST(M2M, TwoPhaseUsesChosenLinearAxis) {
  const AlltoallOptions options = make_options("4x4x8");
  const auto pattern = Pattern::random_subset(128, 3, 1);
  const CommSchedule sched = build_sparse_schedule(pattern, StrategyKind::kTwoPhase,
                                                   options.net, options, nullptr);
  EXPECT_EQ(sched.stream.relay, RelayRule::kLinearAxis);
  EXPECT_EQ(sched.stream.relay_axis, topo::kZ);
}

TEST(M2M, SparseScheduleSendsWholeMessagesToThePattern) {
  const AlltoallOptions options = make_options("4x4x4", 1000);
  const auto pattern = Pattern::random_subset(64, 4, 2);
  const CommSchedule sched = build_sparse_schedule(
      pattern, StrategyKind::kAdaptiveRandom, options.net, options, nullptr);
  EXPECT_EQ(sched.stream.rounds, 1u);
  EXPECT_EQ(static_cast<std::size_t>(sched.stream.burst), sched.phases[0].packets.size());
  for (topo::Rank n = 0; n < 64; ++n) {
    const DestOrder& order = sched.orders[static_cast<std::size_t>(n)];
    ASSERT_EQ(order.positions(), 4u);
    for (std::uint32_t p = 0; p < order.positions(); ++p) {
      EXPECT_TRUE(patterned(pattern, n, order.at(p)));
    }
  }
}

TEST(M2M, DeterministicRoutingWorksToo) {
  AlltoallOptions options = make_options("4x4x4", 100);
  DeliveryMatrix matrix(64);
  options.deliveries = &matrix;
  const auto pattern = Pattern::random_subset(64, 4, 5);
  const RunResult result = run_many_to_many(pattern, StrategyKind::kDeterministic, options);
  EXPECT_TRUE(result.drained);
  EXPECT_TRUE(result.reachable_complete);
  EXPECT_EQ(result.packets_delivered, 64u * 4u);
}

TEST(M2M, EmptyPatternFinishesImmediately) {
  AlltoallOptions options = make_options("4x4x4");
  options.verify = true;
  Pattern pattern;
  pattern.dests.resize(64);
  const RunResult result = run_many_to_many(pattern, StrategyKind::kAdaptiveRandom, options);
  EXPECT_TRUE(result.drained);
  EXPECT_TRUE(result.reachable_complete);
  EXPECT_EQ(result.elapsed_cycles, 0u);
  EXPECT_EQ(result.packets_delivered, 0u);
}

TEST(M2M, KindsWithoutAnOrderedFormThrow) {
  const AlltoallOptions options = make_options("4x4x4");
  const auto pattern = Pattern::halo(options.net.shape);
  for (const StrategyKind kind : {StrategyKind::kVirtualMesh, StrategyKind::kBest}) {
    EXPECT_THROW(build_sparse_schedule(pattern, kind, options.net, options, nullptr),
                 std::invalid_argument);
    EXPECT_THROW(run_many_to_many(pattern, kind, options), std::invalid_argument);
  }
}

TEST(M2M, PatternNotSizedToTheShapeThrows) {
  const AlltoallOptions options = make_options("4x4x4");
  EXPECT_THROW(run_many_to_many(Pattern::random_subset(32, 3, 1),
                                StrategyKind::kAdaptiveRandom, options),
               std::invalid_argument);
}

// Under permanent link faults the schedule skips unroutable patterned pairs
// at the source and reports them unreachable, instead of losing them
// silently: every patterned pair short of its bytes is one the result marks.
TEST(M2M, FaultedRunReportsEveryLostPatternedPair) {
  AlltoallOptions options = make_options("4x4x8", 333);
  options.net.faults = net::parse_fault_spec("link:0.05,seed:3");
  DeliveryMatrix matrix(128);
  options.deliveries = &matrix;
  const auto pattern = Pattern::random_subset(128, 7, 3);
  const RunResult result = run_many_to_many(pattern, StrategyKind::kAdaptiveRandom, options);
  EXPECT_TRUE(result.drained);
  EXPECT_TRUE(result.verified);
  EXPECT_TRUE(result.reachable_complete);
  ASSERT_EQ(result.reachable.nodes(), 128);

  std::uint64_t short_pairs = 0;
  for (topo::Rank s = 0; s < 128; ++s) {
    for (topo::Rank d = 0; d < 128; ++d) {
      if (!patterned(pattern, s, d)) continue;
      if (matrix.bytes(s, d) != 333u) {
        ++short_pairs;
        EXPECT_FALSE(result.reachable.reachable(s, d)) << s << " -> " << d;
      }
    }
  }
  // The plan severs some patterned pairs, so the check above has teeth.
  EXPECT_GT(short_pairs, 0u);
  EXPECT_EQ(result.pairs_complete + short_pairs, pattern.total_messages());
}

// A mid-run strike arms epoch recovery, which repairs only the pattern's
// pairs: the recovered run is complete and nothing lands outside it.
TEST(M2M, MidRunStrikeRecoversOnlyPatternedPairs) {
  AlltoallOptions options = make_options("4x4x8", 333);
  options.net.faults = net::parse_fault_spec("node:1,fail_at:3000,seed:7");
  DeliveryMatrix matrix(128);
  options.deliveries = &matrix;
  const auto pattern = Pattern::random_subset(128, 7, 3);
  const RunResult result = run_many_to_many(pattern, StrategyKind::kTwoPhase, options);
  EXPECT_TRUE(result.drained);
  EXPECT_GE(result.epochs.replans, 1);
  EXPECT_TRUE(result.reachable_complete);
  EXPECT_EQ(result.faults.stranded_relay_bytes, 0u);
  EXPECT_EQ(result.percent_peak, 0.0);
  for (topo::Rank s = 0; s < 128; ++s) {
    for (topo::Rank d = 0; d < 128; ++d) {
      if (s != d && !patterned(pattern, s, d)) {
        ASSERT_EQ(matrix.bytes(s, d), 0u) << s << " -> " << d;
        EXPECT_FALSE(result.reachable.reachable(s, d));
      }
    }
  }
}

// Sparse runs use the slab-parallel core like any schedule: the delivery
// matrix is cell-exact at 1 and 4 worker threads.
TEST(M2M, ParallelTwoPhaseRunIsCellExact) {
  const auto pattern = Pattern::random_subset(128, 9, 4);
  std::vector<DeliveryMatrix> matrices;
  for (const int threads : {1, 4}) {
    AlltoallOptions options = make_options("4x4x8", 500);
    options.net.sim_threads = threads;
    DeliveryMatrix& matrix = matrices.emplace_back(128);
    options.deliveries = &matrix;
    const RunResult result = run_many_to_many(pattern, StrategyKind::kTwoPhase, options);
    EXPECT_TRUE(result.drained);
    EXPECT_TRUE(result.reachable_complete);
    EXPECT_EQ(result.sim_threads, threads);
  }
  for (topo::Rank s = 0; s < 128; ++s) {
    for (topo::Rank d = 0; d < 128; ++d) {
      ASSERT_EQ(matrices[0].bytes(s, d), matrices[1].bytes(s, d)) << s << " -> " << d;
    }
  }
}

}  // namespace
}  // namespace bgl::coll
