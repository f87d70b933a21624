// Static schedule validation: every registered strategy must lint clean on
// the standard shape matrix (fault-free and under a fault plan), and the
// linter must reject the seeded-bad schedules — a dropped pair and a
// dependency cycle — plus FIFO-budget violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/coll/many_to_many.hpp"
#include "src/coll/registry.hpp"
#include "src/coll/schedule_lint.hpp"

namespace bgl::coll {
namespace {

bool has_issue(const LintReport& report, const std::string& check) {
  return std::any_of(report.issues.begin(), report.issues.end(),
                     [&](const LintIssue& i) { return i.check == check; });
}

AlltoallOptions options_for(const char* shape, std::uint64_t msg_bytes) {
  AlltoallOptions options;
  options.net.shape = topo::parse_shape(shape);
  options.net.seed = 42;
  options.msg_bytes = msg_bytes;
  return options;
}

TEST(ScheduleLint, EveryStrategyLintsCleanFaultFree) {
  for (const char* shape : {"4x4x4", "4x4x8", "2x4x4", "8x4x2"}) {
    for (const StrategyInfo& info : strategy_registry()) {
      SCOPED_TRACE(std::string(info.name) + " on " + shape);
      const AlltoallOptions options = options_for(shape, 300);
      const CommSchedule sched =
          build_schedule(info.kind, options.net, options.msg_bytes, options, nullptr);
      const LintReport report = schedule_lint(sched, nullptr);
      EXPECT_TRUE(report.ok()) << report.to_string();
      const auto nodes = static_cast<std::uint64_t>(options.net.shape.nodes());
      EXPECT_EQ(report.covered_pairs, nodes * (nodes - 1));
      EXPECT_GE(report.transfers, static_cast<std::int64_t>(nodes * (nodes - 1)));
    }
  }
}

TEST(ScheduleLint, EveryStrategyLintsCleanUnderFaults) {
  for (const StrategyInfo& info : strategy_registry()) {
    SCOPED_TRACE(info.name);
    AlltoallOptions options = options_for("4x4x4", 300);
    options.net.faults.link_fail = 0.05;
    options.net.faults.node_fail = 2;
    options.net.faults.seed = 7;
    const net::FaultPlan plan(options.net, options.net.shape);
    ASSERT_GT(plan.dead_link_count() + plan.dead_node_count(), 0u);
    const CommSchedule sched =
        build_schedule(info.kind, options.net, options.msg_bytes, options, &plan);
    const LintReport report = schedule_lint(sched, &plan);
    EXPECT_TRUE(report.ok()) << report.to_string();
    const auto nodes = static_cast<std::uint64_t>(options.net.shape.nodes());
    EXPECT_LT(report.covered_pairs, nodes * (nodes - 1));
    EXPECT_GT(report.covered_pairs, 0u);
  }
}

TEST(ScheduleLint, CoverageMatchesExecutorReachability) {
  // The lint's covered-pair count must agree with the executor's
  // mark_reachable (both derive from CommSchedule::pair_covered).
  AlltoallOptions options = options_for("4x4x4", 64);
  options.net.faults.node_fail = 3;
  options.net.faults.seed = 11;
  const net::FaultPlan plan(options.net, options.net.shape);
  for (const StrategyInfo& info : strategy_registry()) {
    SCOPED_TRACE(info.name);
    const CommSchedule sched =
        build_schedule(info.kind, options.net, options.msg_bytes, options, &plan);
    const LintReport report = schedule_lint(sched, &plan);
    EXPECT_TRUE(report.ok()) << report.to_string();
    ScheduleExecutor exec(options.net, sched, nullptr, &plan);
    PairMask mask(sched.nodes());
    exec.mark_reachable(mask);
    std::uint64_t reachable = 0;
    for (topo::Rank s = 0; s < sched.nodes(); ++s) {
      for (topo::Rank d = 0; d < sched.nodes(); ++d) {
        if (s != d && mask.reachable(s, d)) ++reachable;
      }
    }
    EXPECT_EQ(report.covered_pairs, reachable);
  }
}

TEST(ScheduleLint, SparsePatternsLintCleanWithPatternCoverage) {
  // A sparse pattern's schedule covers exactly its pairs: all of them
  // fault-free, and under a fault plan those the transport can still route,
  // matching the executor's reachability mask.
  AlltoallOptions options = options_for("4x4x4", 300);
  const std::vector<std::pair<const char*, Pattern>> patterns = {
      {"halo", Pattern::halo(options.net.shape)},
      {"random_subset", Pattern::random_subset(64, 6, 5)},
      {"grid_partners", Pattern::grid_partners(64, 8)},
  };
  for (const bool faulted : {false, true}) {
    options.net.faults = faulted ? net::parse_fault_spec("link:0.05,seed:7")
                                 : net::FaultConfig{};
    const net::FaultPlan plan(options.net, options.net.shape);
    const net::FaultPlan* faults = faulted ? &plan : nullptr;
    for (const auto& [name, pattern] : patterns) {
      for (const StrategyKind kind : {StrategyKind::kAdaptiveRandom,
                                      StrategyKind::kDeterministic,
                                      StrategyKind::kTwoPhase}) {
        SCOPED_TRACE(std::string(name) + " " + strategy_name(kind) +
                     (faulted ? " faulted" : " fault-free"));
        const CommSchedule sched =
            build_sparse_schedule(pattern, kind, options.net, options, faults);
        const LintReport report = schedule_lint(sched, faults);
        EXPECT_TRUE(report.ok()) << report.to_string();
        if (!faulted) {
          EXPECT_EQ(report.covered_pairs, pattern.total_messages());
          continue;
        }
        ScheduleExecutor exec(options.net, sched, nullptr, faults);
        PairMask mask(sched.nodes());
        exec.mark_reachable(mask);
        const std::uint64_t all_pairs = 64u * 63u;
        EXPECT_EQ(report.covered_pairs, all_pairs - mask.unreachable_pairs());
        EXPECT_LE(report.covered_pairs, pattern.total_messages());
      }
    }
  }
}

/// A minimal hand-built explicit schedule on two nodes: each node sends its
/// own block to the other in one phase. Valid as written; the negative tests
/// below break it in targeted ways.
CommSchedule tiny_explicit_schedule() {
  CommSchedule sched;
  sched.shape = topo::parse_shape("2x1x1");
  sched.torus = topo::Torus(sched.shape);
  sched.msg_bytes = 64;
  sched.form = StreamForm::kExplicit;
  PhaseSpec phase;
  phase.packets = rt::packetize(sched.msg_bytes, rt::WireFormat::direct());
  sched.phases.push_back(phase);
  sched.fifo_classes.push_back(FifoClass{});
  SendOp op;
  op.flags = SendOp::kFinalizeSelf;
  op.dst = 1;
  sched.ops.push_back(op);
  op.dst = 0;
  sched.ops.push_back(op);
  sched.op_begin = {0, 1, 2};
  return sched;
}

TEST(ScheduleLint, TinyExplicitScheduleIsClean) {
  const LintReport report = schedule_lint(tiny_explicit_schedule(), nullptr);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.transfers, 2);
  EXPECT_EQ(report.covered_pairs, 2u);
}

TEST(ScheduleLint, RejectsDroppedPair) {
  // Node 1 never sends to node 0, but the schedule still claims full
  // coverage (empty mask = all pairs): the linter must flag the hole.
  CommSchedule sched = tiny_explicit_schedule();
  sched.ops.pop_back();
  sched.op_begin = {0, 1, 1};
  const LintReport report = schedule_lint(sched, nullptr);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "coverage")) << report.to_string();
  EXPECT_EQ(report.covered_pairs, 2u);  // claimed, not carried
  EXPECT_EQ(report.transfers, 1);
}

TEST(ScheduleLint, RejectsDuplicatedPair) {
  CommSchedule sched = tiny_explicit_schedule();
  SendOp dup = sched.ops[0];
  sched.ops.insert(sched.ops.begin() + 1, dup);
  sched.op_begin = {0, 2, 3};
  const LintReport report = schedule_lint(sched, nullptr);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "coverage")) << report.to_string();
}

TEST(ScheduleLint, RejectsDependencyCycle) {
  CommSchedule sched = tiny_explicit_schedule();
  sched.extra_deps = {{0, 1}, {1, 0}};
  const LintReport report = schedule_lint(sched, nullptr);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "deps")) << report.to_string();
}

TEST(ScheduleLint, RejectsDependenciesOnExplicitForm) {
  // Even an acyclic, in-range dependency set is unenforceable on an
  // explicit-form schedule: the executor has no per-transfer emission point
  // to gate, so the linter must flag the constraint as non-executable.
  CommSchedule sched = tiny_explicit_schedule();
  sched.extra_deps = {{0, 1}};
  const LintReport report = schedule_lint(sched, nullptr);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "deps")) << report.to_string();
}

TEST(ScheduleLint, RejectsDependenciesOnRelaySchedule) {
  // TPS relays through intermediates; extra_deps on such a schedule are
  // declared-but-unenforceable and must be rejected, not silently ignored.
  const AlltoallOptions options = options_for("4x4x4", 300);
  CommSchedule sched =
      build_schedule(StrategyKind::kTwoPhase, options.net, options.msg_bytes,
                     options, nullptr);
  ASSERT_EQ(sched.form, StreamForm::kOrdered);
  ASSERT_NE(sched.stream.relay, RelayRule::kNone);
  sched.extra_deps = {{0, 1}};
  const LintReport report = schedule_lint(sched, nullptr);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "deps")) << report.to_string();
}

TEST(ScheduleLint, AcceptsDependenciesOnOrderedDirectSchedule) {
  const AlltoallOptions options = options_for("4x4x4", 300);
  CommSchedule sched = build_schedule(StrategyKind::kMpi, options.net,
                                      options.msg_bytes, options, nullptr);
  ASSERT_EQ(sched.form, StreamForm::kOrdered);
  ASSERT_EQ(sched.stream.relay, RelayRule::kNone);
  sched.extra_deps = {{0, 100}};  // acyclic, in range: executable
  const LintReport report = schedule_lint(sched, nullptr);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ScheduleLint, RejectsOutOfRangeDependency) {
  CommSchedule sched = tiny_explicit_schedule();
  sched.extra_deps = {{0, 99}};
  const LintReport report = schedule_lint(sched, nullptr);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "deps")) << report.to_string();
}

TEST(ScheduleLint, RejectsBackwardsPhaseDependency) {
  // Two-phase variant: an edge from a phase-1 transfer back to a phase-0
  // transfer contradicts execution order.
  CommSchedule sched = tiny_explicit_schedule();
  sched.phases.push_back(sched.phases[0]);
  sched.ops[1].phase = 1;
  sched.extra_deps = {{1, 0}};
  const LintReport report = schedule_lint(sched, nullptr);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "deps")) << report.to_string();
}

TEST(ScheduleLint, RejectsOverlappingReservedFifoClasses) {
  CommSchedule sched = tiny_explicit_schedule();
  sched.injection_fifos = 8;
  sched.fifo_classes = {FifoClass{0, 5, FifoPolicy::kRoundRobin, true},
                        FifoClass{4, 4, FifoPolicy::kRoundRobin, true}};
  const LintReport report = schedule_lint(sched, nullptr);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "fifo-budget")) << report.to_string();
}

TEST(ScheduleLint, RejectsFifoClassOutsideHardwareRange) {
  CommSchedule sched = tiny_explicit_schedule();
  sched.injection_fifos = 4;
  sched.fifo_classes = {FifoClass{2, 6, FifoPolicy::kRoundRobin, false}};
  const LintReport report = schedule_lint(sched, nullptr);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "fifo-budget")) << report.to_string();
}

TEST(ScheduleLint, RejectsDeadRelayUnderFaults) {
  // Claim coverage of a pair whose only listed transfer relays through a
  // dead node: the relay check must fire.
  AlltoallOptions options = options_for("4x1x1", 64);
  CommSchedule sched;
  sched.shape = options.net.shape;
  sched.torus = topo::Torus(sched.shape);
  sched.msg_bytes = 64;
  sched.form = StreamForm::kExplicit;
  PhaseSpec phase;
  phase.packets = rt::packetize(sched.msg_bytes, rt::WireFormat::direct());
  sched.phases.push_back(phase);
  sched.phases.push_back(phase);
  sched.fifo_classes.push_back(FifoClass{});
  // Node 0 hands its block to relay 1 (phase 0 is implicit in the pool
  // model: the relay's op lists node 0 as an original source); node 1
  // forwards to 2. Then kill node 1 with a fault plan.
  sched.covered = PairMask(4);
  for (topo::Rank s = 0; s < 4; ++s) {
    for (topo::Rank d = 0; d < 4; ++d) {
      if (s != d && !(s == 0 && d == 2)) sched.covered.set_unreachable(s, d);
    }
  }
  sched.finalize_pool = {0};
  SendOp op;
  op.dst = 2;
  op.phase = 1;
  op.finalize_begin = 0;
  op.finalize_count = 1;
  sched.ops.push_back(op);
  sched.op_begin = {0, 0, 1, 1, 1};

  net::NetworkConfig net = options.net;
  net.faults.node_fail = 1;
  net.faults.seed = 3;
  // Find a seed that kills node 1 specifically.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    net.faults.seed = seed;
    const net::FaultPlan probe(net, net.shape);
    if (!probe.node_alive(1) && probe.node_alive(0) && probe.node_alive(2)) break;
  }
  const net::FaultPlan plan(net, net.shape);
  ASSERT_FALSE(plan.node_alive(1));
  const LintReport report = schedule_lint(sched, &plan);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "relay")) << report.to_string();
}

// Golden transfer tables on a 4-node mesh (seed 5, 64 B): pins the schedule
// builders' destination orders, relay picks, phase and FIFO-class
// assignments. Regenerate with
//   schedule_lint --strategy <name> --shape 2x2x1 --size 64 --seed 5 --dump-csv
TEST(ScheduleLint, GoldenDumps) {
  AlltoallOptions options = options_for("2x2x1", 64);
  options.net.seed = 5;
  const struct {
    StrategyKind kind;
    const char* csv;
  } goldens[] = {
      {StrategyKind::kAdaptiveRandom,
       "transfer,phase,src,dst,relays,bytes,fifo_class\n"
       "0,0,0,2,,64,0\n"
       "1,0,0,1,,64,0\n"
       "2,0,0,3,,64,0\n"
       "3,0,1,2,,64,0\n"
       "4,0,1,3,,64,0\n"
       "5,0,1,0,,64,0\n"
       "6,0,2,0,,64,0\n"
       "7,0,2,1,,64,0\n"
       "8,0,2,3,,64,0\n"
       "9,0,3,0,,64,0\n"
       "10,0,3,1,,64,0\n"
       "11,0,3,2,,64,0\n"},
      {StrategyKind::kTwoPhase,
       "transfer,phase,src,dst,relays,bytes,fifo_class\n"
       "0,1,0,3,1,64,1\n"
       "1,1,0,2,,64,1\n"
       "2,0,0,1,,64,0\n"
       "3,1,1,3,,64,1\n"
       "4,1,1,2,0,64,1\n"
       "5,0,1,0,,64,0\n"
       "6,1,2,0,,64,1\n"
       "7,1,2,1,3,64,1\n"
       "8,0,2,3,,64,0\n"
       "9,1,3,1,,64,1\n"
       "10,0,3,2,,64,0\n"
       "11,1,3,0,2,64,1\n"},
      {StrategyKind::kVirtualMesh,
       "transfer,phase,src,dst,relays,bytes,fifo_class\n"
       "0,0,0,1,,64,0\n"
       "1,1,0,2,,64,0\n"
       "2,1,1,2,0,64,0\n"
       "3,0,1,0,,64,0\n"
       "4,1,0,3,1,64,0\n"
       "5,1,1,3,,64,0\n"
       "6,0,2,3,,64,0\n"
       "7,1,2,0,,64,0\n"
       "8,1,3,0,2,64,0\n"
       "9,0,3,2,,64,0\n"
       "10,1,2,1,3,64,0\n"
       "11,1,3,1,,64,0\n"},
  };
  for (const auto& golden : goldens) {
    SCOPED_TRACE(strategy_name(golden.kind));
    const CommSchedule sched =
        build_schedule(golden.kind, options.net, options.msg_bytes, options, nullptr);
    EXPECT_EQ(sched.to_csv(nullptr), golden.csv);
  }
}

TEST(ScheduleLint, DumpsMatchTransferCount) {
  const AlltoallOptions options = options_for("2x2x2", 96);
  for (const StrategyInfo& info : strategy_registry()) {
    SCOPED_TRACE(info.name);
    const CommSchedule sched =
        build_schedule(info.kind, options.net, options.msg_bytes, options, nullptr);
    const std::string csv = sched.to_csv(nullptr);
    const auto rows = static_cast<std::int64_t>(
        std::count(csv.begin(), csv.end(), '\n'));
    EXPECT_EQ(rows, sched.transfer_count(nullptr) + 1);  // + header
    const std::string json = sched.to_json(nullptr);
    EXPECT_NE(json.find("\"transfers\""), std::string::npos);
  }
}

}  // namespace
}  // namespace bgl::coll
