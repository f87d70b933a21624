// perfbench: the simulator's benchmark program (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
//
// --trace 0 runs closed-loop passes of the workload through the public entry
// point coll::run_alltoall for S seconds (one caller, the next pass starts
// when the previous returns), checks every run, and reports the end-to-end
// metrics. --trace 1 runs one reference pass, then alternates untraced and
// traced replays (replay.hpp) and reports the per-layer metrics. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the line before it, "record {...}", holds the full result with
// its host, seed and per-pass samples.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "host_probe.hpp"
#include "replay.hpp"
#include "src/coll/alltoall.hpp"
#include "src/util/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace bc = bgl::coll;

// Set-up-only replays for setup_s: at least kMinSetupReps, then more while
// they have taken under kSetupBudgetS, up to kMaxSetupReps. A set-up costs
// about 1 to 10 ms, much of it page faults, so one sample says little.
constexpr std::size_t kMinSetupReps = 21;
constexpr std::size_t kMaxSetupReps = 301;
constexpr double kSetupBudgetS = 1.5;

// Passes a --trace 0 run makes even when --seconds has run out, so run_s is
// always a median of at least three.
constexpr std::size_t kMinPasses = 3;

// --- JSON -------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Insertion-ordered JSON object.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, json_number(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_string(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  return out + "]";
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Whether another pass (or replay pair) fits: it would end, at the median
// duration seen so far, within the run's --seconds.
bool another_fits(Clock::time_point start, const std::vector<double>& durations,
                  double seconds) {
  return seconds_since(start) + median(durations) <= seconds;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The highest percentile with at least ten samples beyond it (nearest rank);
// with fewer than 20 samples none qualifies and the maximum is reported.
struct Tail {
  std::string label;
  double value = 0.0;
};

Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
      std::string label = "p";
      label += json_number(p);
      return {label, v[std::max<std::size_t>(rank, 1) - 1]};
    }
  }
  return {"max", v.empty() ? 0.0 : v.back()};
}

// --- host record --------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

// Per-core L2 size in KiB from CPUID (0 when the CPU does not say).
unsigned l2_kib() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000006u &&
      __get_cpuid(0x80000006u, &a, &b, &c, &d)) {
    return c >> 16;
  }
#endif
  return 0;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string host_record(const std::string& commit) {
  return JsonObject()
      .num("nproc", nproc())
      .str("cpu", cpu_model())
      .num("l2_kib_per_core", l2_kib())
      .str("build", PERFBENCH_BUILD_TYPE)
      .str("compiler", PERFBENCH_COMPILER)
      .str("commit", commit)
      .dump();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- arguments ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: error: " << error << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--commit ID]\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  std::int64_t seed = 0;
  std::int64_t trace = 0;
  try {
    bgl::util::Cli cli(argc, argv);
    cli.describe("workload", "workload name (required)");
    cli.describe("seed", "workload seed, >= 0 (default 1)");
    cli.describe("seconds", "measured seconds per run, (0, 60] (default 10)");
    cli.describe("trace", "0: end-to-end metrics, 1: per-layer metrics (default 0)");
    cli.describe("commit", "source identifier recorded in the host record");
    cli.validate();
    args.workload = cli.get("workload", "");
    seed = cli.get_int("seed", 1);
    args.seconds = cli.get_double("seconds", args.seconds);
    trace = cli.get_int("trace", 0);
    args.commit = cli.get("commit", args.commit);
  } catch (const std::runtime_error& e) {
    usage(e.what());
  }
  if (args.workload.empty()) usage("--workload is required");
  if (seed < 0) usage("--seed must be >= 0");
  if (!(args.seconds > 0.0) || args.seconds > 60.0) usage("--seconds must be in (0, 60]");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  args.seed = static_cast<std::uint64_t>(seed);
  args.trace = trace == 1;
  return args;
}

// --- output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject out;
  for (const Metric& m : metrics) {
    out.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).dump());
  }
  return out.dump();
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  std::cout << JsonObject()
                   .raw("correct", correct ? "true" : "false")
                   .num("attempted", attempted)
                   .num("failed", failed)
                   .raw("metrics", metrics_json(metrics))
                   .dump()
            << std::endl;
}

bool is_faulted(const Workload& w) { return w.faults[0] != '\0'; }

// --- passes ---------------------------------------------------------------------

std::string case_label(const Workload& w, std::size_t i) {
  const Case& c = w.cases[i];
  return bc::strategy_name(c.kind) + " " + c.shape + " " + std::to_string(c.msg_bytes) + "B";
}

// One closed-loop pass: every case of the workload through run_alltoall.
struct Pass {
  double run_s = 0.0;
  std::vector<double> case_s;   // host seconds of each run_alltoall call
  std::vector<double> probe_s;  // the host probe after each call, when probed
  std::uint64_t packets = 0;
  double peak_cycles = 0.0;     // sum of the cases' Eq. 2 peaks
  double elapsed_cycles = 0.0;  // sum of the cases' simulated times
  std::vector<Fingerprint> fingerprints;
  std::vector<bgl::net::ThreadFallbackReason> reasons;
  std::string failure;  // "" when every case passed the gate
};

// With a probe, it runs after every case, outside the case's timing.
Pass run_pass(const Workload& w, std::uint64_t seed, HostProbe* probe = nullptr) {
  Pass pass;
  for (std::size_t i = 0; i < w.cases.size(); ++i) {
    const bc::AlltoallOptions options = options_for(w, i, seed);
    const Clock::time_point start = Clock::now();
    const bc::RunResult r = bc::run_alltoall(w.cases[i].kind, options);
    pass.case_s.push_back(seconds_since(start));
    pass.run_s += pass.case_s.back();
    if (probe != nullptr) pass.probe_s.push_back(probe->measure());
    pass.packets += r.packets_delivered;
    pass.peak_cycles +=
        bc::peak_cycles_for(options.net.shape, options.msg_bytes, options.net.chunk_cycles);
    pass.elapsed_cycles += static_cast<double>(r.elapsed_cycles);
    pass.fingerprints.push_back(fingerprint_of(r));
    pass.reasons.push_back(r.sim_threads_reason);
    const std::string why = check_run(r, is_faulted(w));
    if (!why.empty() && pass.failure.empty()) {
      pass.failure = "case " + case_label(w, i) + ": " + why;
    }
  }
  return pass;
}

// The threads each case ran on, with the reason when it is not the request.
std::string threads_json(const Workload& w, const Pass& pass) {
  std::string out = "[";
  for (std::size_t i = 0; i < w.cases.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(case_label(w, i) + ": " + std::to_string(pass.fingerprints[i].threads) +
                       " (" + bgl::net::to_string(pass.reasons[i]) + ")");
  }
  return out + "]";
}

// Compares a run's fingerprint with the reference; "" when they match.
std::string fingerprint_mismatch(const Workload& w, std::size_t i, const Fingerprint& got,
                                 const Fingerprint& want) {
  if (got == want) return "";
  return "case " + case_label(w, i) + ": fingerprint " + got.to_string() + " differs from " +
         want.to_string();
}

// --trace 0: end-to-end metrics.
int run_end_to_end(const Workload& w, const Args& args, JsonObject& record) {
  HostProbe probe;
  const Clock::time_point start = Clock::now();
  // Set-up first: it also brings the allocator and page tables to the state
  // the passes run in.
  std::vector<double> setup;
  while (setup.size() < kMinSetupReps ||
         (seconds_since(start) < kSetupBudgetS && setup.size() < kMaxSetupReps)) {
    double s = 0.0;
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
      s += replay(w.cases[i].kind, options_for(w, i, args.seed), ReplayMode::kSetupOnly)
               .setup_s();
    }
    setup.push_back(s);
  }

  // The host probe runs after every case, so its samples span the same
  // stretch of host time as the passes they are compared with.
  probe.measure();  // warm-up
  std::vector<Pass> passes;
  std::vector<double> run_s;
  std::vector<double> probe_s;
  std::vector<double> cycle_s;  // one pass plus its probes
  int failed = 0;
  while (passes.size() < kMinPasses || another_fits(start, cycle_s, args.seconds)) {
    const Clock::time_point cycle_start = Clock::now();
    Pass pass = run_pass(w, args.seed, &probe);
    cycle_s.push_back(seconds_since(cycle_start));
    if (pass.failure.empty() && !passes.empty()) {
      for (std::size_t i = 0; i < w.cases.size() && pass.failure.empty(); ++i) {
        pass.failure = fingerprint_mismatch(w, i, pass.fingerprints[i], passes[0].fingerprints[i]);
      }
    }
    std::printf("pass %zu: %.4f s %s, %llu packets, %s%s\n", passes.size() + 1, pass.run_s,
                json_array(pass.case_s).c_str(), static_cast<unsigned long long>(pass.packets),
                pass.failure.empty() ? "ok" : "FAILED: ", pass.failure.c_str());
    std::fflush(stdout);
    if (!pass.failure.empty()) ++failed;
    run_s.push_back(pass.run_s);
    probe_s.insert(probe_s.end(), pass.probe_s.begin(), pass.probe_s.end());
    passes.push_back(std::move(pass));
  }

  std::vector<double> pkts_per_s;
  for (const Pass& p : passes) pkts_per_s.push_back(static_cast<double>(p.packets) / p.run_s);
  const int attempted = static_cast<int>(passes.size());
  const double failed_frac = static_cast<double>(failed) / attempted;
  const Tail tail = tail_of(run_s);
  // Pass time in probe units; packets per pass are fixed by the fingerprint.
  const double run_ref = median(run_s) / median(probe_s);
  const std::vector<Metric> metrics = {
      {"run_ref", "probe", run_ref},
      {"pkts_per_ref", "1/probe", static_cast<double>(passes[0].packets) / run_ref},
      {"setup_s", "s", median(setup)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"percent_peak", "%", ratio(100.0 * passes[0].peak_cycles, passes[0].elapsed_cycles)},
      {"pass_frac", "fraction", 1.0 - failed_frac},
  };

  std::printf("end-to-end (%d passes, closed loop, 1 caller):\n", attempted);
  print_metrics(metrics);
  print_metrics({{"run_s", "s", median(run_s)},
                 {"pkts_per_s", "1/s", median(pkts_per_s)},
                 {"probe_s", "s", median(probe_s)}});
  std::printf("  %-36s %16.6g %s (n=%d)\n", ("run_s." + tail.label).c_str(), tail.value, "s",
              attempted);
  std::printf("  %-36s %16.6g fraction (%d of %d passes failed)\n", "failed_frac", failed_frac,
              failed, attempted);

  record.raw("run_s_samples", json_array(run_s))
      .raw("probe_s_samples", json_array(probe_s))
      .num("run_s", median(run_s))
      .num("pkts_per_s", median(pkts_per_s))
      .num("setup_reps", static_cast<double>(setup.size()))
      .raw("run_s_tail", JsonObject()
                              .str("percentile", tail.label)
                              .num("value", tail.value)
                              .num("n", attempted)
                              .dump())
      .num("failed_frac", failed_frac)
      .raw("sim_threads", threads_json(w, passes[0]))
      .raw("metrics", metrics_json(metrics));
  std::cout << "record " << record.dump() << "\n";
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

// Per-layer metrics of one replay pass (the sum over the workload's cases).
std::vector<Metric> layer_metrics(const std::vector<Replay>& pass) {
  double fabric_run = 0, fabric_self = 0, fabric_init = 0, plan = 0, rel_init = 0,
         rel_self = 0, select = 0, build = 0, matrix = 0, exec_init = 0, exec_busy = 0,
         verify = 0, links = 0, teardown = 0;
  double events = 0, packets = 0, grants = 0, blocked = 0, no_cand = 0, chunk_hops = 0;
  double dropped = 0, corrupted = 0, vetoes = 0, rel_calls = 0, seq = 0, retx = 0, acks = 0,
         piggy = 0, dups = 0, rejected = 0, exec_calls = 0, polls = 0, empty = 0, threads = 0;
  for (const Replay& r : pass) {
    const double outer = r.reliable ? r.reliability_outer.busy_s : r.executor.busy_s;
    fabric_run += r.fabric_run_s;
    fabric_self += r.fabric_run_s * r.fingerprint.threads - outer;
    fabric_init += r.fabric_init_s;
    plan += r.plan_s;
    rel_init += r.reliability_init_s;
    if (r.reliable) rel_self += r.reliability_outer.busy_s - r.executor.busy_s;
    select += r.select_s;
    build += r.build_schedule_s;
    matrix += r.matrix_init_s;
    exec_init += r.executor_init_s;
    exec_busy += r.executor.busy_s;
    verify += r.verify_s;
    links += r.links_s;
    teardown += r.teardown_s;
    events += static_cast<double>(r.fingerprint.events);
    packets += static_cast<double>(r.fingerprint.packets);
    grants += static_cast<double>(r.fabric.arb_grants);
    blocked += static_cast<double>(r.fabric.arb_blocked);
    no_cand += static_cast<double>(r.fabric.arb_no_candidate);
    chunk_hops += static_cast<double>(r.fabric.chunk_hops);
    dropped += static_cast<double>(r.faults.total_dropped());
    corrupted += static_cast<double>(r.faults.corrupted_payloads);
    vetoes += static_cast<double>(r.faults.reroute_vetoes);
    rel_calls += static_cast<double>(r.reliability_outer.calls);
    seq += static_cast<double>(r.reliability.data_sequenced);
    retx += static_cast<double>(r.reliability.retransmits);
    acks += static_cast<double>(r.reliability.acks_standalone);
    piggy += static_cast<double>(r.reliability.acks_piggybacked);
    dups += static_cast<double>(r.reliability.duplicates_dropped);
    rejected += static_cast<double>(r.reliability.corrupt_rejected);
    exec_calls += static_cast<double>(r.executor.calls);
    polls += static_cast<double>(r.executor.polls);
    empty += static_cast<double>(r.executor.empty_polls);
    threads = std::max(threads, static_cast<double>(r.fingerprint.threads));
  }
  return {
      {"network.fabric_run_s", "s", fabric_run},
      {"network.fabric_self_thread_s", "s", fabric_self},
      {"network.events", "count", events},
      {"network.events_per_pkt", "events/pkt", ratio(events, packets)},
      {"network.ns_per_event", "ns", ratio(fabric_self * 1e9, events)},
      {"network.arb_grants", "count", grants},
      {"network.arb_blocked", "count", blocked},
      {"network.arb_no_candidate", "count", no_cand},
      {"network.arb_grant_ratio", "ratio", ratio(grants, grants + blocked + no_cand)},
      {"network.chunk_hops", "count", chunk_hops},
      {"network.fabric_init_s", "s", fabric_init},
      {"faults.plan_s", "s", plan},
      {"faults.dropped", "count", dropped},
      {"faults.corrupted", "count", corrupted},
      {"faults.reroute_vetoes", "count", vetoes},
      {"runtime.reliability_init_s", "s", rel_init},
      {"runtime.reliability_self_thread_s", "s", rel_self},
      {"runtime.reliability_calls", "count", rel_calls},
      {"runtime.data_sequenced", "count", seq},
      {"runtime.retransmits", "count", retx},
      {"runtime.acks_standalone", "count", acks},
      {"runtime.acks_piggybacked", "count", piggy},
      {"runtime.duplicates_dropped", "count", dups},
      {"runtime.corrupt_rejected", "count", rejected},
      {"runtime.useful_ratio", "ratio", ratio(seq, seq + retx + acks)},
      {"coll.select_s", "s", select},
      {"coll.build_schedule_s", "s", build},
      {"coll.matrix_init_s", "s", matrix},
      {"coll.executor_init_s", "s", exec_init},
      {"coll.executor_busy_thread_s", "s", exec_busy},
      {"coll.executor_calls", "count", exec_calls},
      {"coll.empty_poll_ratio", "ratio", ratio(empty, polls)},
      {"coll.verify_s", "s", verify},
      {"trace.links_s", "s", links},
      {"sim.threads_used", "count", threads},
      {"host.teardown_s", "s", teardown},
  };
}

// Element-wise median over passes of metric vectors with the same layout.
std::vector<Metric> median_metrics(const std::vector<std::vector<Metric>>& passes) {
  std::vector<Metric> out = passes.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& p : passes) values.push_back(p[m].value);
    out[m].value = median(values);
  }
  return out;
}

// --trace 1: per-layer metrics from the traced replay.
int run_traced(const Workload& w, const Args& args, JsonObject& record) {
  HostProbe probe;
  const Clock::time_point start = Clock::now();
  int attempted = 1;
  int failed = 0;
  bool replay_diverged = false;

  const Pass reference = run_pass(w, args.seed);
  if (!reference.failure.empty()) {
    ++failed;
    std::fprintf(stderr, "perfbench: reference pass failed: %s\n", reference.failure.c_str());
  }

  // Alternate untraced and traced replays so host drift hits both alike.
  std::vector<double> untraced_run_s;
  std::vector<double> traced_run_s;
  std::vector<std::vector<Metric>> traced;
  std::vector<double> pair_s;
  std::vector<double> probe_s;  // the host probe after each replay pass
  while (traced.empty() || another_fits(start, pair_s, args.seconds)) {
    const Clock::time_point pair_start = Clock::now();
    for (const ReplayMode mode : {ReplayMode::kUntraced, ReplayMode::kTraced}) {
      std::vector<Replay> pass;
      std::string failure;
      double fabric_run_s = 0.0;
      for (std::size_t i = 0; i < w.cases.size(); ++i) {
        pass.push_back(replay(w.cases[i].kind, options_for(w, i, args.seed), mode));
        const Replay& r = pass.back();
        fabric_run_s += r.fabric_run_s;
        const std::string diverged =
            fingerprint_mismatch(w, i, r.fingerprint, reference.fingerprints[i]);
        if (!diverged.empty()) {
          // The replay would measure a different program than run_alltoall.
          replay_diverged = true;
          std::fprintf(stderr, "perfbench: REPLAY DIVERGED from run_alltoall: %s\n",
                       diverged.c_str());
        }
        if (failure.empty()) failure = !diverged.empty() ? diverged : r.failure;
      }
      ++attempted;
      if (!failure.empty()) ++failed;
      std::printf("%s replay: Fabric::run %.4f s, %s%s\n",
                  mode == ReplayMode::kTraced ? "traced" : "untraced", fabric_run_s,
                  failure.empty() ? "ok" : "FAILED: ", failure.c_str());
      std::fflush(stdout);
      probe_s.push_back(probe.measure());
      if (mode == ReplayMode::kTraced) {
        traced_run_s.push_back(fabric_run_s);
        traced.push_back(layer_metrics(pass));
      } else {
        untraced_run_s.push_back(fabric_run_s);
      }
    }
    pair_s.push_back(seconds_since(pair_start));
  }

  std::vector<Metric> metrics = median_metrics(traced);
  metrics.push_back(
      {"trace.overhead_ratio", "ratio", ratio(median(traced_run_s), median(untraced_run_s))});
  metrics.push_back({"host.probe_s", "s", median(probe_s)});

  std::printf("per-layer (median of %zu traced replays):\n", traced.size());
  print_metrics(metrics);
  record.raw("sim_threads", threads_json(w, reference))
      .raw("untraced_fabric_run_s_samples", json_array(untraced_run_s))
      .raw("traced_fabric_run_s_samples", json_array(traced_run_s))
      .raw("metrics", metrics_json(metrics));
  std::cout << "record " << record.dump() << "\n";
  print_result(failed == 0, attempted, failed, metrics);
  if (replay_diverged) {
    std::fprintf(stderr, "perfbench: traced replay does not reproduce run_alltoall\n");
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) usage("unknown workload " + args.workload);
  try {
    JsonObject record;
    record.str("workload", w->name)
        .raw("seed", std::to_string(args.seed))
        .num("trace", args.trace ? 1 : 0)
        .num("seconds", args.seconds)
        .raw("host", host_record(args.commit));
    std::printf("perfbench workload=%s seed=%llu trace=%d\nhost %s\n", w->name,
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                host_record(args.commit).c_str());
    std::fflush(stdout);
    return args.trace ? run_traced(*w, args, record) : run_end_to_end(*w, args, record);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
