// Fault injection on the slab-parallel core.
//
// The contract under test (DESIGN.md "Counter-based fault randomness"):
//  - Every probabilistic fault decision (drop, corruption) is a pure
//    function of (fault seed, flow, sequence, attempt, remaining hops)
//    through a counter-based hash — so with retransmissions quiesced by a
//    generous RTO, the realization and the delivery matrix are *cell-exact*
//    across any --sim-threads count.
//  - Timing-coupled populations (packets in flight when a strike lands, the
//    set of RTO-expired retransmissions) are only promised to be
//    bit-deterministic per (seed, sim_threads): the same run twice is
//    identical, and the final delivery verdict matches single-thread.
//  - Hop observers run parallel via per-slab buffers drained at window
//    barriers in (tick, link id) order: same grant multiset as the
//    reference engine, deterministic replay order.
//
// The chaos case at the bottom exists for the sanitizer CI: every MT fault
// mechanism (transients, drops, corruption, a mid-run strike, the stuck
// sweep) active at once under TSan.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/coll/alltoall.hpp"
#include "src/network/faults.hpp"

namespace bgl::coll {
namespace {

/// One faulted verified run. A generous RTO (rto:2000000 in the specs
/// below) keeps the retransmit population empty so the fault realization is
/// the only stochastic surface.
RunResult faulted_run(const char* shape, StrategyKind kind,
                      std::uint64_t bytes, const char* spec, int threads,
                      DeliveryMatrix* matrix = nullptr) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape(shape);
  options.net.seed = 7;
  options.net.sim_threads = threads;
  options.net.faults = net::parse_fault_spec(spec);
  options.msg_bytes = bytes;
  options.verify = true;
  options.deliveries = matrix;
  return run_alltoall(kind, options);
}

void expect_matrices_equal(const DeliveryMatrix& a, const DeliveryMatrix& b) {
  ASSERT_EQ(a.nodes(), b.nodes());
  for (topo::Rank s = 0; s < a.nodes(); ++s) {
    for (topo::Rank d = 0; d < a.nodes(); ++d) {
      ASSERT_EQ(a.bytes(s, d), b.bytes(s, d))
          << "pair (" << s << " -> " << d << ")";
    }
  }
}

TEST(MtFaults, DropPlanFaultStatsMatchAcrossThreads) {
  const char* spec = "drop:5e-4,seed:3,rto:2000000";
  const std::int32_t nodes = 128;  // 4x4x8
  DeliveryMatrix st(nodes);
  const RunResult ref = faulted_run("4x4x8", StrategyKind::kAdaptiveRandom,
                                    480, spec, 1, &st);
  ASSERT_TRUE(ref.drained);
  ASSERT_GT(ref.faults.dropped_prob, 0u) << "plan injected no drops";
  for (const int threads : {2, 4}) {
    DeliveryMatrix mt(nodes);
    const RunResult r = faulted_run("4x4x8", StrategyKind::kAdaptiveRandom,
                                    480, spec, threads, &mt);
    ASSERT_TRUE(r.drained);
    EXPECT_EQ(r.sim_threads, threads);
    EXPECT_EQ(r.sim_threads_reason, net::ThreadFallbackReason::kNone);
    // The counter-based draws make the loss realization thread-invariant.
    EXPECT_EQ(r.faults.dropped_prob, ref.faults.dropped_prob);
    EXPECT_EQ(r.faults.corrupted_payloads, 0u);
    EXPECT_EQ(r.reliability.data_sequenced, ref.reliability.data_sequenced);
    EXPECT_EQ(r.pairs_complete, ref.pairs_complete);
    EXPECT_TRUE(r.reachable_complete);
    expect_matrices_equal(st, mt);
  }
}

TEST(MtFaults, DegradedLinksMatchAcrossThreads) {
  const char* spec = "link:0.03,degrade:0.05,degrade_mult:4,seed:11,rto:2000000";
  const std::int32_t nodes = 128;
  DeliveryMatrix st(nodes);
  const RunResult ref =
      faulted_run("4x4x8", StrategyKind::kTwoPhase, 480, spec, 1, &st);
  ASSERT_TRUE(ref.drained);
  ASSERT_GT(ref.unreachable_pairs, 0u) << "plan killed no pairs";
  for (const int threads : {2, 4}) {
    DeliveryMatrix mt(nodes);
    const RunResult r =
        faulted_run("4x4x8", StrategyKind::kTwoPhase, 480, spec, threads, &mt);
    ASSERT_TRUE(r.drained);
    EXPECT_EQ(r.sim_threads, threads);
    EXPECT_EQ(r.unreachable_pairs, ref.unreachable_pairs);
    EXPECT_EQ(r.pairs_complete, ref.pairs_complete);
    EXPECT_TRUE(r.reachable_complete);
    expect_matrices_equal(st, mt);
  }
}

TEST(MtFaults, CorruptDetectionMatchesAcrossThreads) {
  const char* spec = "corrupt:2e-4,seed:5,rto:2000000";
  const std::int32_t nodes = 128;
  DeliveryMatrix st(nodes);
  const RunResult ref =
      faulted_run("4x4x8", StrategyKind::kTwoPhase, 480, spec, 1, &st);
  ASSERT_TRUE(ref.drained);
  ASSERT_GT(ref.faults.corrupted_payloads, 0u) << "plan corrupted nothing";
  // Every injected corruption was caught end to end.
  EXPECT_EQ(ref.reliability.corrupt_rejected, ref.faults.corrupted_payloads);
  for (const int threads : {2, 4}) {
    DeliveryMatrix mt(nodes);
    const RunResult r =
        faulted_run("4x4x8", StrategyKind::kTwoPhase, 480, spec, threads, &mt);
    ASSERT_TRUE(r.drained);
    EXPECT_EQ(r.sim_threads, threads);
    EXPECT_EQ(r.faults.corrupted_payloads, ref.faults.corrupted_payloads);
    EXPECT_EQ(r.reliability.corrupt_rejected, r.faults.corrupted_payloads);
    EXPECT_TRUE(r.reachable_complete);
    expect_matrices_equal(st, mt);
  }
}

TEST(MtFaults, DeepWindowLossyRunDeliversCellExactAcrossThreads) {
  // ~140 packets per pair at 2% loss under the default RTO: a dropped
  // sequence waits a full timeout while the rest of its flow keeps
  // arriving, so gaps open more than 64 sequences deep (the receiver's
  // out-of-order bitmap spans several words) and the sender's unacked ring
  // grows well past its initial capacity and wraps as acks advance it.
  const char* spec = "drop:0.02,seed:19";
  const std::int32_t nodes = 16;  // 4x2x2
  DeliveryMatrix st(nodes);
  const RunResult ref = faulted_run("4x2x2", StrategyKind::kAdaptiveRandom,
                                    32768, spec, 1, &st);
  ASSERT_TRUE(ref.drained);
  ASSERT_GT(ref.reliability.retransmits, 0u) << "plan retransmitted nothing";
  EXPECT_TRUE(ref.reachable_complete);
  EXPECT_EQ(ref.reliability.corrupt_rejected, ref.faults.corrupted_payloads);
  for (const int threads : {2, 4}) {
    DeliveryMatrix mt(nodes);
    const RunResult r = faulted_run("4x2x2", StrategyKind::kAdaptiveRandom,
                                    32768, spec, threads, &mt);
    ASSERT_TRUE(r.drained);
    EXPECT_EQ(r.sim_threads, threads);
    EXPECT_TRUE(r.reachable_complete);
    EXPECT_EQ(r.reliability.corrupt_rejected, r.faults.corrupted_payloads);
    EXPECT_EQ(r.pairs_complete, ref.pairs_complete);
    expect_matrices_equal(st, mt);
  }
}

TEST(MtFaults, MidRunStrikeWithRecoveryDeterministicPerThreadCount) {
  // A blind strike's in-flight casualty set is timing-coupled, so across
  // thread counts only the final verdict must agree; for a fixed
  // (seed, sim_threads) the whole run — strike, sweeps, recovery epochs —
  // must be bit-identical.
  const char* spec = "node:1,fail_at:200000,seed:13";
  const RunResult ref =
      faulted_run("4x4x8", StrategyKind::kTwoPhase, 1024, spec, 1);
  const RunResult a =
      faulted_run("4x4x8", StrategyKind::kTwoPhase, 1024, spec, 4);
  const RunResult b =
      faulted_run("4x4x8", StrategyKind::kTwoPhase, 1024, spec, 4);
  ASSERT_TRUE(ref.drained);
  ASSERT_TRUE(a.drained);
  EXPECT_EQ(a.sim_threads, 4);

  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.faults.dropped_in_flight, b.faults.dropped_in_flight);
  EXPECT_EQ(a.faults.dropped_stuck, b.faults.dropped_stuck);
  EXPECT_EQ(a.faults.stranded_relay_bytes, b.faults.stranded_relay_bytes);
  EXPECT_EQ(a.epochs.epochs, b.epochs.epochs);
  EXPECT_EQ(a.epochs.residual_pairs, b.epochs.residual_pairs);
  EXPECT_EQ(a.epochs.recovered_bytes, b.epochs.recovered_bytes);
  EXPECT_EQ(a.pairs_complete, b.pairs_complete);

  // Thread counts agree on what was recoverable, if not on the casualties.
  EXPECT_EQ(a.unreachable_pairs, ref.unreachable_pairs);
  EXPECT_EQ(a.pairs_complete, ref.pairs_complete);
  EXPECT_GT(a.epochs.epochs, 1) << "recovery never re-planned";
}

TEST(MtFaults, TransientOutagesDeterministicPerThreadCount) {
  const char* spec = "tlink:0.05,repair:30000,seed:17,rto:60000";
  const RunResult ref =
      faulted_run("4x4x8", StrategyKind::kAdaptiveRandom, 480, spec, 1);
  const RunResult a =
      faulted_run("4x4x8", StrategyKind::kAdaptiveRandom, 480, spec, 4);
  const RunResult b =
      faulted_run("4x4x8", StrategyKind::kAdaptiveRandom, 480, spec, 4);
  ASSERT_TRUE(ref.drained);
  ASSERT_TRUE(a.drained);
  EXPECT_EQ(a.sim_threads, 4);
  // The outage schedule itself is plan state: identical everywhere.
  EXPECT_EQ(a.faults.transient_strikes, ref.faults.transient_strikes);
  EXPECT_EQ(a.faults.link_down_cycles, ref.faults.link_down_cycles);
  // Same (seed, N) -> same casualties, same everything.
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.faults.dropped_in_flight, b.faults.dropped_in_flight);
  EXPECT_EQ(a.reliability.retransmits, b.reliability.retransmits);
  // Transients heal: both engines deliver everything.
  EXPECT_TRUE(ref.reachable_complete);
  EXPECT_TRUE(a.reachable_complete);
  EXPECT_EQ(a.pairs_complete, ref.pairs_complete);
}

TEST(MtFaults, HopObserverSeesEveryGrantUnderMt) {
  // Observer runs no longer force the reference engine. Two properties:
  //  - grant *count* matches the reference engine exactly (minimal routing:
  //    every packet takes the same number of hops on any path, and the
  //    delivered packet set is thread-invariant);
  //  - the barrier-drained replay is in a deterministic order — an
  //    order-sensitive hash is bit-equal across reruns at the same width.
  // The per-link multiset is NOT compared against single-thread: adaptive
  // direction choices are timing-coupled and legitimately differ.
  AlltoallOptions options;
  options.net.shape = topo::parse_shape("4x4x8");
  options.net.seed = 7;
  options.msg_bytes = 300;
  // Observer invocations are serial in both engines (inline in the handler
  // loop, or replayed by the one thread running the window barrier), so
  // plain variables and order-sensitive mixing are safe.
  std::uint64_t grants = 0;
  std::uint64_t order_hash = 0;
  options.hop_observer = [&](const net::Packet& packet, topo::Rank node,
                             int dir, int target) {
    ++grants;
    const auto key = (static_cast<std::uint64_t>(node) << 16) ^
                     (static_cast<std::uint64_t>(dir) << 8) ^
                     static_cast<std::uint64_t>(target + 1) ^
                     (packet.tag << 24);
    order_hash = order_hash * 0x100000001b3ULL + key;
  };

  options.net.sim_threads = 1;
  const RunResult st = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(st.drained);
  const std::uint64_t st_grants = grants;
  grants = 0;
  order_hash = 0;

  options.net.sim_threads = 4;
  const RunResult mt = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(mt.drained);
  EXPECT_EQ(mt.sim_threads, 4) << "observer run fell back to one thread";
  EXPECT_EQ(grants, st_grants);
  const std::uint64_t mt_grants = grants;
  const std::uint64_t mt_hash = order_hash;
  grants = 0;
  order_hash = 0;

  const RunResult again = run_alltoall(StrategyKind::kAdaptiveRandom, options);
  ASSERT_TRUE(again.drained);
  EXPECT_EQ(grants, mt_grants);
  EXPECT_EQ(order_hash, mt_hash) << "barrier replay order is not deterministic";
}

TEST(MtFaults, ChaosRunUnderEveryFaultMechanismDrains) {
  // Sanitizer fodder: drops + corruption + transients + a mid-run strike +
  // stuck sweeps, all on 4 slabs. Assertions are deliberately light — the
  // point is that TSan/ASan observe every MT fault path in one run, and
  // that the run still quiesces and verifies.
  const char* spec =
      "node:1,link:0.02,tlink:0.03,repair:20000,drop:2e-4,corrupt:1e-4,"
      "fail_at:150000,seed:23,rto:40000";
  const RunResult a =
      faulted_run("4x4x8", StrategyKind::kAdaptiveRandom, 480, spec, 4);
  const RunResult b =
      faulted_run("4x4x8", StrategyKind::kAdaptiveRandom, 480, spec, 4);
  EXPECT_TRUE(a.drained);
  EXPECT_FALSE(a.timed_out);
  EXPECT_EQ(a.sim_threads, 4);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.faults.total_dropped(), b.faults.total_dropped());
  EXPECT_EQ(a.reliability.corrupt_rejected, b.reliability.corrupt_rejected);
  EXPECT_EQ(a.pairs_complete, b.pairs_complete);
}

}  // namespace
}  // namespace bgl::coll
