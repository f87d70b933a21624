#include "src/coll/schedule_lint.hpp"

#include <algorithm>
#include <deque>

namespace bgl::coll {

namespace {

void add(LintReport& report, const char* check, std::string message) {
  report.issues.push_back(LintIssue{check, std::move(message)});
}

std::string pair_str(topo::Rank s, topo::Rank d) {
  std::string out = "(";
  out += std::to_string(s);
  out += " -> ";
  out += std::to_string(d);
  out += ')';
  return out;
}

/// Structural well-formedness; returns false when the schedule is too broken
/// for the transfer-level checks to run safely.
bool check_structure(const CommSchedule& sched, LintReport& report) {
  bool safe = true;
  if (sched.phases.empty()) {
    add(report, "structure", "schedule has no phases");
    return false;
  }
  if (sched.fifo_classes.empty()) {
    add(report, "structure", "schedule has no FIFO classes");
    return false;
  }
  const auto phase_count = static_cast<int>(sched.phases.size());
  const auto class_count = static_cast<int>(sched.fifo_classes.size());
  for (int p = 0; p < phase_count; ++p) {
    const PhaseSpec& phase = sched.phases[static_cast<std::size_t>(p)];
    if (phase.packets.empty()) {
      add(report, "structure", "phase " + std::to_string(p) + " has an empty message");
    }
    if (phase.fifo_class >= class_count) {
      add(report, "structure",
          "phase " + std::to_string(p) + " references FIFO class " +
              std::to_string(phase.fifo_class) + " of " + std::to_string(class_count));
      safe = false;
    }
  }

  // Barrier table: every kLocalBarrier phase needs exactly one BarrierSpec,
  // specs come sorted by phase, and each spec's vectors cover every node.
  std::vector<int> barrier_spec_of(static_cast<std::size_t>(phase_count), -1);
  int prev_barrier_phase = 0;
  for (std::size_t g = 0; g < sched.barriers.size(); ++g) {
    const BarrierSpec& barrier = sched.barriers[g];
    if (barrier.phase <= 0 || barrier.phase >= phase_count) {
      add(report, "structure",
          "barrier " + std::to_string(g) + " gates phase " +
              std::to_string(barrier.phase) +
              " out of range (needs a preceding phase to gate on)");
      continue;
    }
    if (barrier.phase <= prev_barrier_phase && g > 0) {
      add(report, "structure",
          "barrier " + std::to_string(g) + " gates phase " +
              std::to_string(barrier.phase) +
              " out of order (barriers must be sorted by ascending phase)");
    }
    prev_barrier_phase = barrier.phase;
    if (barrier_spec_of[static_cast<std::size_t>(barrier.phase)] >= 0) {
      add(report, "structure",
          "phase " + std::to_string(barrier.phase) +
              " gated by more than one barrier");
    }
    barrier_spec_of[static_cast<std::size_t>(barrier.phase)] =
        static_cast<int>(g);
    const auto nodes = static_cast<std::size_t>(sched.nodes());
    if (barrier.expected.size() != nodes ||
        barrier.compute_cycles.size() != nodes) {
      add(report, "structure", "barrier vectors not sized to the node count");
    }
  }
  for (int p = 0; p < phase_count; ++p) {
    const bool gated =
        sched.phases[static_cast<std::size_t>(p)].gate == PhaseGate::kLocalBarrier;
    const bool has_spec = barrier_spec_of[static_cast<std::size_t>(p)] >= 0;
    if (gated && !has_spec) {
      add(report, "structure",
          "phase " + std::to_string(p) +
              " is barrier-gated but has no BarrierSpec");
    } else if (!gated && has_spec) {
      add(report, "structure",
          "phase " + std::to_string(p) +
              " has a BarrierSpec but is not barrier-gated");
    }
  }
  if (!sched.barriers.empty() && sched.form != StreamForm::kExplicit) {
    add(report, "structure", "barriers require an explicit-form schedule");
  }

  if (sched.form == StreamForm::kOrdered) {
    if (sched.orders.size() != static_cast<std::size_t>(sched.nodes())) {
      add(report, "structure", "ordered stream needs one DestOrder per node");
      safe = false;
    }
    if (sched.stream.final_phase >= phase_count ||
        sched.stream.relayed_phase >= phase_count) {
      add(report, "structure", "ordered stream references a phase out of range");
      safe = false;
    } else {
      // Every packet of the message must be emitted by the round/burst walk.
      const auto& packets =
          sched.phases[static_cast<std::size_t>(sched.stream.final_phase)].packets;
      const std::uint64_t emitted = static_cast<std::uint64_t>(sched.stream.rounds) *
                                    static_cast<std::uint64_t>(sched.stream.burst);
      if (sched.stream.burst < 1) {
        add(report, "structure", "ordered stream burst < 1");
      } else if (emitted < packets.size()) {
        add(report, "structure",
            "ordered stream emits " + std::to_string(emitted) + " of " +
                std::to_string(packets.size()) + " message packets");
      }
    }
    if (sched.stream.relay == RelayRule::kLinearAxis &&
        (sched.stream.relay_axis < 0 ||
         sched.stream.relay_axis >= sched.shape.axis_count())) {
      add(report, "structure", "relay axis out of range");
      safe = false;
    }
  } else {
    const auto nodes = static_cast<std::size_t>(sched.nodes());
    if (sched.op_begin.size() != nodes + 1 || sched.op_begin.front() != 0 ||
        sched.op_begin.back() != sched.ops.size() ||
        !std::is_sorted(sched.op_begin.begin(), sched.op_begin.end())) {
      add(report, "structure", "op_begin is not a valid node offset table");
      return false;
    }
    for (std::size_t i = 0; i < sched.ops.size(); ++i) {
      const SendOp& op = sched.ops[i];
      if (op.dst < 0 || op.dst >= sched.nodes()) {
        add(report, "structure", "op " + std::to_string(i) + " has dst out of range");
        safe = false;
      }
      if (op.phase >= phase_count) {
        add(report, "structure", "op " + std::to_string(i) + " has phase out of range");
        safe = false;
      }
      if ((op.flags & SendOp::kFinalizeSelf) == 0 && op.finalize_count > 0 &&
          (op.finalize_begin < 0 ||
           static_cast<std::size_t>(op.finalize_begin) +
               static_cast<std::size_t>(op.finalize_count) >
               sched.finalize_pool.size())) {
        add(report, "structure",
            "op " + std::to_string(i) + " finalize span outside the pool");
        safe = false;
      }
    }
  }
  if (sched.covered.nodes() != 0 && sched.covered.nodes() != sched.nodes()) {
    add(report, "structure", "coverage mask not sized to the node count");
    safe = false;
  }
  return safe;
}

void check_fifo_budget(const CommSchedule& sched, LintReport& report) {
  const int fifos = sched.injection_fifos;
  std::vector<int> reserved_owner(static_cast<std::size_t>(fifos), -1);
  for (std::size_t c = 0; c < sched.fifo_classes.size(); ++c) {
    const FifoClass& fc = sched.fifo_classes[c];
    const int count = fc.resolved_count(fifos);
    if (fc.begin < 0 || count < 1 || fc.begin + count > fifos) {
      add(report, "fifo-budget",
          "class " + std::to_string(c) + " spans [" + std::to_string(fc.begin) +
              ", " + std::to_string(fc.begin + count) + ") of " +
              std::to_string(fifos) + " FIFOs");
      continue;
    }
    if (!fc.reserved) continue;
    for (int f = fc.begin; f < fc.begin + count; ++f) {
      int& owner = reserved_owner[static_cast<std::size_t>(f)];
      if (owner >= 0) {
        add(report, "fifo-budget",
            "reserved classes " + std::to_string(owner) + " and " +
                std::to_string(c) + " both claim FIFO " + std::to_string(f));
      } else {
        owner = static_cast<int>(c);
      }
    }
  }
}

void check_transfers(const CommSchedule& sched, const net::FaultPlan* faults,
                     LintReport& report, std::vector<std::uint8_t>& phase_of) {
  const auto nodes = static_cast<std::size_t>(sched.nodes());
  std::vector<std::uint8_t> carried(nodes * nodes, 0);
  const bool faulted = faults != nullptr && faults->enabled();

  sched.for_each_transfer(faults, [&](const Transfer& t) {
    ++report.transfers;
    phase_of.push_back(t.phase);
    if (t.src < 0 || t.src >= sched.nodes() || t.dst < 0 || t.dst >= sched.nodes()) {
      add(report, "coverage",
          "transfer " + std::to_string(t.id) + " has endpoints out of range");
      return;
    }
    if (t.src == t.dst) {
      add(report, "coverage",
          "transfer " + std::to_string(t.id) + " carries the diagonal pair " +
              pair_str(t.src, t.dst));
      return;
    }
    std::uint8_t& count = carried[static_cast<std::size_t>(t.src) * nodes +
                                  static_cast<std::size_t>(t.dst)];
    if (count < 255) ++count;

    if (faulted) {
      bool live = faults->node_alive(t.src) && faults->node_alive(t.dst);
      topo::Rank hop_src = t.src;
      for (int i = 0; i < t.relay_count; ++i) {
        const topo::Rank relay = t.relays[static_cast<std::size_t>(i)];
        live = live && faults->node_alive(relay) &&
               faults->pair_routable(hop_src, relay, net::RoutingMode::kAdaptive);
        hop_src = relay;
      }
      if (live && hop_src != t.dst) {
        live = faults->pair_routable(hop_src, t.dst,
                                     sched.phases[t.phase].mode);
      }
      if (!live) {
        add(report, "relay",
            "transfer " + std::to_string(t.id) + " " + pair_str(t.src, t.dst) +
                " rides a dead relay or leg under the fault plan");
      }
    }
  });

  for (topo::Rank s = 0; s < sched.nodes(); ++s) {
    for (topo::Rank d = 0; d < sched.nodes(); ++d) {
      if (s == d) continue;
      const std::uint8_t count =
          carried[static_cast<std::size_t>(s) * nodes + static_cast<std::size_t>(d)];
      const bool want = sched.pair_covered(s, d, faults);
      if (want) ++report.covered_pairs;
      if (want && count == 0) {
        add(report, "coverage", "covered pair " + pair_str(s, d) + " is never carried");
      } else if (!want && count > 0) {
        add(report, "coverage",
            "uncovered pair " + pair_str(s, d) + " is carried " +
                std::to_string(count) + "x");
      } else if (count > 1) {
        add(report, "coverage",
            "pair " + pair_str(s, d) + " is carried " + std::to_string(count) + "x");
      }
    }
  }
}

void check_deps(const CommSchedule& sched, LintReport& report,
                const std::vector<std::uint8_t>& phase_of) {
  if (sched.extra_deps.empty()) return;
  // The executor can only gate emission in the ordered relay-free form (one
  // message per (src, dst) pair, one cursor position); anywhere else the
  // declared constraint would be unenforceable and is rejected up front,
  // matching ScheduleExecutor::init_extra_deps.
  if (sched.form == StreamForm::kExplicit) {
    add(report, "deps", "extra_deps are not executable on an explicit-form schedule");
  } else if (sched.stream.relay != RelayRule::kNone) {
    add(report, "deps", "extra_deps are not executable on a relaying schedule");
  }
  const auto transfers = static_cast<std::int64_t>(phase_of.size());
  std::vector<std::vector<std::int64_t>> out_edges(phase_of.size());
  std::vector<std::int32_t> in_degree(phase_of.size(), 0);
  for (const auto& [before, after] : sched.extra_deps) {
    if (before < 0 || before >= transfers || after < 0 || after >= transfers) {
      add(report, "deps",
          "dependency (" + std::to_string(before) + " -> " + std::to_string(after) +
              ") references a transfer out of range");
      continue;
    }
    if (phase_of[static_cast<std::size_t>(before)] >
        phase_of[static_cast<std::size_t>(after)]) {
      add(report, "deps",
          "dependency (" + std::to_string(before) + " -> " + std::to_string(after) +
              ") runs backwards across phases");
    }
    out_edges[static_cast<std::size_t>(before)].push_back(after);
    ++in_degree[static_cast<std::size_t>(after)];
  }

  // Kahn's algorithm; anything left over sits on a cycle.
  std::deque<std::int64_t> ready;
  for (std::int64_t t = 0; t < transfers; ++t) {
    if (in_degree[static_cast<std::size_t>(t)] == 0) ready.push_back(t);
  }
  std::int64_t ordered = 0;
  while (!ready.empty()) {
    const std::int64_t t = ready.front();
    ready.pop_front();
    ++ordered;
    for (const std::int64_t next : out_edges[static_cast<std::size_t>(t)]) {
      if (--in_degree[static_cast<std::size_t>(next)] == 0) ready.push_back(next);
    }
  }
  if (ordered != transfers) {
    add(report, "deps",
        std::to_string(transfers - ordered) + " transfers sit on a dependency cycle");
  }
}

}  // namespace

std::string LintReport::to_string() const {
  if (issues.empty()) return "ok";
  std::string out;
  for (const LintIssue& issue : issues) {
    if (!out.empty()) out += '\n';
    out += issue.check + ": " + issue.message;
  }
  return out;
}

LintReport schedule_lint(const CommSchedule& sched, const net::FaultPlan* faults) {
  LintReport report;
  if (!check_structure(sched, report)) return report;
  check_fifo_budget(sched, report);
  std::vector<std::uint8_t> phase_of;
  check_transfers(sched, faults, report, phase_of);
  check_deps(sched, report, phase_of);
  return report;
}

}  // namespace bgl::coll
