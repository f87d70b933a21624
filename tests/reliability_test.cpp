// End-to-end reliability under injected faults: retransmission recovers
// dropped packets, duplicates are suppressed, fault-free runs pay nothing,
// and the verification contract ("every reachable pair delivered exactly")
// holds across strategies.
#include "src/coll/alltoall.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/network/faults.hpp"
#include "src/topology/torus.hpp"

namespace bgl::coll {
namespace {

AlltoallOptions options_for(const char* shape, std::uint64_t msg_bytes,
                            const char* fault_spec, std::uint64_t seed = 7) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape(shape);
  options.net.seed = seed;
  options.net.faults = net::parse_fault_spec(fault_spec);
  options.msg_bytes = msg_bytes;
  options.verify = true;
  return options;
}

std::uint64_t all_pairs(const AlltoallOptions& options) {
  const auto n = static_cast<std::uint64_t>(options.net.shape.nodes());
  return n * (n - 1);
}

// --- fault-free runs pay nothing ------------------------------------------

TEST(Reliability, FaultFreeRunHasZeroOverhead) {
  const auto options = options_for("4x4x4", 240, "");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.reliability.data_sequenced, 0u);
  EXPECT_EQ(r.reliability.retransmits, 0u);
  EXPECT_EQ(r.reliability.acks_standalone, 0u);
  EXPECT_EQ(r.reliability.acks_piggybacked, 0u);
  EXPECT_EQ(r.faults.total_dropped(), 0u);
  EXPECT_EQ(r.unreachable_pairs, 0u);
  EXPECT_EQ(r.abandoned_pairs, 0u);
  EXPECT_EQ(r.reachable.nodes(), 0);  // empty mask: "all reachable"
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.pairs_complete, all_pairs(options));
}

TEST(Reliability, FaultFreeRunIsBitIdenticalWithAndWithoutFaultStructs) {
  // The empty FaultConfig path must not perturb simulated time at all.
  auto options = options_for("3x3x3", 240, "");
  const RunResult a = run_alltoall(StrategyKind::kTwoPhase, options);
  const RunResult b = run_alltoall(StrategyKind::kTwoPhase, options);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
}

// --- probabilistic drops are repaired by retransmission --------------------

TEST(Reliability, DropsAreRetransmittedToCompletion) {
  const auto options = options_for("4x4x4", 240, "drop:0.02");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.faults.dropped_prob, 0u);
  EXPECT_GT(r.reliability.data_sequenced, 0u);
  EXPECT_GT(r.reliability.retransmits, 0u);
  EXPECT_EQ(r.reliability.gave_up, 0u);
  EXPECT_EQ(r.abandoned_pairs, 0u);
  // Every pair is reachable (no permanent faults) and must be served exactly.
  EXPECT_EQ(r.unreachable_pairs, 0u);
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.pairs_complete, all_pairs(options));
}

TEST(Reliability, DuplicateRetransmitsAreSuppressed) {
  // At a 5% drop rate acks get lost too, so some delivered packet is
  // retransmitted and the copy must be dropped by the receiver, not
  // double-counted into the delivery matrix (reachable_complete checks
  // *exact* byte counts per pair).
  const auto options = options_for("4x4x4", 240, "drop:0.05");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.reliability.duplicates_dropped, 0u);
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.pairs_complete, all_pairs(options));
}

// --- transient outages: backoff rides out the downtime ---------------------

TEST(Reliability, BackoffRidesOutTransientOutages) {
  // Long outages (many RTOs) force repeated retries with exponential
  // backoff; the link heals, so every pair still completes.
  const auto options =
      options_for("3x3x3", 240, "tlink:0.3,repair:100000,rto:2000");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.faults.transient_strikes, 0u);
  EXPECT_GT(r.faults.link_down_cycles, 0u);
  EXPECT_EQ(r.unreachable_pairs, 0u);  // transients never make a pair unreachable
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.pairs_complete, all_pairs(options));
}

// --- permanent faults: reachable pairs exactly, unreachable skipped --------

TEST(Reliability, NodeFailureShrinksTheReachableSet) {
  const auto options = options_for("4x4x4", 240, "node:2,seed:3");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  // Every ordered pair touching a dead endpoint is unreachable: 2 dead
  // nodes cut at least 2*63 + 2*63 - 2 = 250 of the 64*63 pairs.
  EXPECT_GE(r.unreachable_pairs, 250u);
  EXPECT_TRUE(r.reachable_complete);
  EXPECT_EQ(r.pairs_complete + r.unreachable_pairs, all_pairs(options));
}

TEST(Reliability, DeadLinksDegradeGracefullyAcrossStrategies) {
  for (const StrategyKind kind :
       {StrategyKind::kAdaptiveRandom, StrategyKind::kDeterministic,
        StrategyKind::kTwoPhase, StrategyKind::kVirtualMesh}) {
    SCOPED_TRACE(strategy_name(kind));
    const auto options = options_for("4x4x4", 240, "link:0.05,seed:5");
    const RunResult r = run_alltoall(kind, options);
    ASSERT_TRUE(r.drained);
    EXPECT_TRUE(r.reachable_complete);
    EXPECT_EQ(r.pairs_complete + r.unreachable_pairs, all_pairs(options));
  }
}

TEST(Reliability, ExhaustedRetryBudgetIsReportedNotHung) {
  // retries:0 abandons a packet on its first timeout, so at a high drop
  // rate some reachable pairs go unserved — the run must still drain and
  // the verification must flag the loss instead of hanging the simulation.
  const auto options = options_for("3x3x3", 240, "drop:0.08,retries:0,rto:2000");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.reliability.gave_up, 0u);
  EXPECT_GT(r.abandoned_pairs, 0u);
  EXPECT_FALSE(r.reachable_complete);
  EXPECT_LT(r.pairs_complete, all_pairs(options));
}

TEST(Reliability, AbandonedPairsCountsPairsNotPackets) {
  // With no retries at a 20% drop rate most pairs lose several packets;
  // each such pair must still be reported once.
  const auto options = options_for("2x2x2", 4096, "drop:0.2,retries:0,rto:2000");
  const RunResult r = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(r.drained);
  ASSERT_GT(r.abandoned_pairs, 0u);
  EXPECT_LE(r.abandoned_pairs, all_pairs(options));
  EXPECT_LT(r.abandoned_pairs, r.reliability.gave_up);
}

// --- determinism ----------------------------------------------------------

TEST(Reliability, FaultyRunsAreDeterministic) {
  const auto options =
      options_for("4x4x4", 240, "link:0.03,tlink:0.05,repair:30000,drop:0.01");
  const RunResult a = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  const RunResult b = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.faults.dropped_prob, b.faults.dropped_prob);
  EXPECT_EQ(a.faults.dropped_in_flight, b.faults.dropped_in_flight);
  EXPECT_EQ(a.reliability.retransmits, b.reliability.retransmits);
  EXPECT_EQ(a.reliability.duplicates_dropped, b.reliability.duplicates_dropped);
  EXPECT_EQ(a.pairs_complete, b.pairs_complete);
}

}  // namespace
}  // namespace bgl::coll
