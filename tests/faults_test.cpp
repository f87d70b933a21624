// The fault-injection plan: strict --faults spec parsing, deterministic
// expansion of a FaultConfig over a Shape, and the minimal-path routability
// oracle that strategies and verification share.
#include "src/network/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/network/fabric.hpp"
#include "src/topology/torus.hpp"

namespace bgl::net {
namespace {

// --- parse_fault_spec ------------------------------------------------------

TEST(ParseFaultSpec, ParsesEveryKey) {
  const FaultConfig c = parse_fault_spec(
      "link:0.02,tlink=0.01,repair:1000,fail_at:5,degrade:0.1,degrade_mult:8,"
      "node:3,drop:1e-5,corrupt:2e-4,seed:7,rto:2000,retries:4,stuck:9000");
  EXPECT_DOUBLE_EQ(c.link_fail, 0.02);
  EXPECT_DOUBLE_EQ(c.link_transient, 0.01);
  EXPECT_EQ(c.repair_cycles, 1000);
  EXPECT_EQ(c.fail_at, 5);
  EXPECT_DOUBLE_EQ(c.degrade, 0.1);
  EXPECT_EQ(c.degrade_mult, 8u);
  EXPECT_EQ(c.node_fail, 3);
  EXPECT_DOUBLE_EQ(c.drop_prob, 1e-5);
  EXPECT_DOUBLE_EQ(c.corrupt_prob, 2e-4);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_EQ(c.retrans_timeout, 2000);
  EXPECT_EQ(c.max_retries, 4);
  EXPECT_EQ(c.stuck_drop_cycles, 9000);
  EXPECT_TRUE(c.enabled());
}

TEST(ParseFaultSpec, EmptySpecIsDisabled) {
  EXPECT_FALSE(parse_fault_spec("").enabled());
}

TEST(ParseFaultSpec, ParsesCorruptProbability) {
  const FaultConfig c = parse_fault_spec("corrupt:0.01");
  EXPECT_DOUBLE_EQ(c.corrupt_prob, 0.01);
  EXPECT_TRUE(c.enabled());
  EXPECT_DOUBLE_EQ(parse_fault_spec("corrupt:0").corrupt_prob, 0.0);
  EXPECT_DOUBLE_EQ(parse_fault_spec("drop:0.001,corrupt:1e-3").corrupt_prob, 1e-3);
}

TEST(ParseFaultSpec, RejectsDuplicateKeys) {
  EXPECT_THROW(parse_fault_spec("link:0.1,link:0.2"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("drop:0.1,corrupt:0.1,drop:0.1"),
               std::runtime_error);
  // Mixed key:value / key=value syntax is still the same key.
  EXPECT_THROW(parse_fault_spec("node:1,node=2"), std::runtime_error);
  try {
    parse_fault_spec("corrupt:0.1,corrupt:0.1");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("corrupt"), std::string::npos);
  }
}

TEST(ParseFaultSpec, RejectsOutOfRangeProbabilities) {
  EXPECT_THROW(parse_fault_spec("corrupt:1.5"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("corrupt:-0.1"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("drop:1.0001"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("tlink:2"), std::runtime_error);
  // The bounds themselves are legal.
  EXPECT_DOUBLE_EQ(parse_fault_spec("corrupt:1").corrupt_prob, 1.0);
  EXPECT_DOUBLE_EQ(parse_fault_spec("drop:1,corrupt:0").drop_prob, 1.0);
}

TEST(ParseFaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_fault_spec("link"), std::runtime_error);          // no value
  EXPECT_THROW(parse_fault_spec("link:"), std::runtime_error);         // empty value
  EXPECT_THROW(parse_fault_spec(":0.1"), std::runtime_error);          // empty key
  EXPECT_THROW(parse_fault_spec("link:0.1,,drop:0"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("warp:0.5"), std::runtime_error);      // unknown key
  EXPECT_THROW(parse_fault_spec("link:zebra"), std::runtime_error);    // not a number
  EXPECT_THROW(parse_fault_spec("link:1.5"), std::runtime_error);      // > 1
  EXPECT_THROW(parse_fault_spec("drop:-0.1"), std::runtime_error);     // < 0
  EXPECT_THROW(parse_fault_spec("node:-2"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("repair:0"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("rto:0"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("degrade_mult:1"), std::runtime_error);
  EXPECT_THROW(parse_fault_spec("link:0.1 "), std::runtime_error);     // trailing junk
}

TEST(ParseFaultSpec, ErrorMessagesNameTheOption) {
  try {
    parse_fault_spec("bogus:1");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("--faults"), std::string::npos);
  }
}

// --- FaultPlan expansion ---------------------------------------------------

NetworkConfig config_for(const std::string& spec, std::uint64_t seed = 1) {
  NetworkConfig net;
  net.shape = topo::parse_shape("4x4x4");
  net.seed = seed;
  net.faults = parse_fault_spec(spec);
  return net;
}

TEST(FaultPlan, DisabledConfigYieldsEmptyPlan) {
  const NetworkConfig net = config_for("");
  const FaultPlan plan(net, net.shape);
  EXPECT_FALSE(plan.enabled());
  EXPECT_EQ(plan.dead_link_count(), 0u);
  EXPECT_EQ(plan.dead_node_count(), 0u);
  EXPECT_TRUE(plan.node_alive(0));
  EXPECT_EQ(plan.link_health(0), LinkHealth::kUp);
}

TEST(FaultPlan, PureFunctionOfConfigAndShape) {
  const NetworkConfig net = config_for("link:0.05,tlink:0.05,node:2,degrade:0.1");
  const FaultPlan a(net, net.shape);
  const FaultPlan b(net, net.shape);
  ASSERT_TRUE(a.enabled());
  EXPECT_EQ(a.derived_seed(), b.derived_seed());
  EXPECT_EQ(a.dead_link_count(), b.dead_link_count());
  EXPECT_EQ(a.degraded_link_count(), b.degraded_link_count());
  EXPECT_EQ(a.dead_node_count(), b.dead_node_count());
  ASSERT_EQ(a.transients().size(), b.transients().size());
  for (std::size_t i = 0; i < a.transients().size(); ++i) {
    EXPECT_EQ(a.transients()[i].link, b.transients()[i].link);
    EXPECT_EQ(a.transients()[i].down_at, b.transients()[i].down_at);
    EXPECT_EQ(a.transients()[i].up_at, b.transients()[i].up_at);
  }
  const int links = static_cast<int>(net.shape.nodes()) * net.shape.directions();
  for (int link = 0; link < links; ++link) {
    EXPECT_EQ(a.link_health(link), b.link_health(link));
  }
}

TEST(FaultPlan, SeedZeroDerivesFromNetworkSeed) {
  const FaultPlan a(config_for("link:0.05", 1), topo::parse_shape("4x4x4"));
  const FaultPlan b(config_for("link:0.05", 2), topo::parse_shape("4x4x4"));
  EXPECT_NE(a.derived_seed(), b.derived_seed());

  // An explicit fault seed pins the placement regardless of the network seed.
  const FaultPlan c(config_for("link:0.05,seed:9", 1), topo::parse_shape("4x4x4"));
  const FaultPlan d(config_for("link:0.05,seed:9", 2), topo::parse_shape("4x4x4"));
  EXPECT_EQ(c.derived_seed(), 9u);
  EXPECT_EQ(c.dead_link_count(), d.dead_link_count());
  const int links = 4 * 4 * 4 * topo::parse_shape("4x4x4").directions();
  for (int link = 0; link < links; ++link) {
    EXPECT_EQ(c.link_health(link), d.link_health(link));
  }
}

TEST(FaultPlan, FailsBothDirectionsOfAnUndirectedLink) {
  const NetworkConfig net = config_for("link:0.10");
  const FaultPlan plan(net, net.shape);
  const topo::Torus torus(net.shape);
  ASSERT_GT(plan.dead_link_count(), 0u);
  std::size_t directed_dead = 0;
  for (topo::Rank n = 0; n < torus.nodes(); ++n) {
    for (int d = 0; d < torus.directions(); ++d) {
      if (!plan.link_dead(plan.link_id(n, d))) continue;
      ++directed_dead;
      const topo::Rank peer = torus.neighbor(n, topo::Direction::from_index(d));
      ASSERT_GE(peer, 0);
      // The reverse port on the peer must be dead too.
      const int reverse = d ^ 1;
      EXPECT_TRUE(plan.link_dead(plan.link_id(peer, reverse)));
    }
  }
  EXPECT_EQ(directed_dead, 2 * plan.dead_link_count());
}

TEST(FaultPlan, NodeFailureCountsMatch) {
  const NetworkConfig net = config_for("node:3");
  const FaultPlan plan(net, net.shape);
  EXPECT_EQ(plan.dead_node_count(), 3u);
  std::size_t dead = 0;
  for (topo::Rank n = 0; n < net.shape.nodes(); ++n) {
    if (!plan.node_alive(n)) ++dead;
  }
  EXPECT_EQ(dead, 3u);
}

// --- routability oracle ----------------------------------------------------

TEST(FaultPlan, PairRoutableRespectsDeadEndpoints) {
  const NetworkConfig net = config_for("node:2");
  const FaultPlan plan(net, net.shape);
  topo::Rank dead = -1;
  for (topo::Rank n = 0; n < net.shape.nodes(); ++n) {
    if (!plan.node_alive(n)) { dead = n; break; }
  }
  ASSERT_GE(dead, 0);
  const topo::Rank alive = plan.node_alive(0) ? 0 : 1;
  ASSERT_TRUE(plan.node_alive(alive));
  EXPECT_FALSE(plan.pair_routable(alive, dead, RoutingMode::kAdaptive));
  EXPECT_FALSE(plan.pair_routable(dead, alive, RoutingMode::kAdaptive));
}

TEST(FaultPlan, AdaptiveSurvivesFaultsThatKillDeterministicPaths) {
  // With only link faults (all nodes alive), adaptive minimal routing on a
  // torus finds a detour for most pairs, while dimension-order loses every
  // pair whose single path crosses a dead link. Adaptive routability must
  // be a superset of deterministic routability.
  const NetworkConfig net = config_for("link:0.08");
  const FaultPlan plan(net, net.shape);
  ASSERT_GT(plan.dead_link_count(), 0u);
  std::size_t det_lost = 0;
  for (topo::Rank s = 0; s < net.shape.nodes(); ++s) {
    for (topo::Rank d = 0; d < net.shape.nodes(); ++d) {
      if (s == d) continue;
      const bool adaptive = plan.pair_routable(s, d, RoutingMode::kAdaptive);
      const bool det = plan.pair_routable(s, d, RoutingMode::kDeterministic);
      if (det) {
        EXPECT_TRUE(adaptive) << "pair " << s << "->" << d;
      }
      if (!det) ++det_lost;
    }
  }
  EXPECT_GT(det_lost, 0u);  // 8% dead links must cut some dimension-order path
}

TEST(FaultPlan, RoutabilityIsStableAcrossCalls) {
  const NetworkConfig net = config_for("link:0.05,node:1");
  const FaultPlan plan(net, net.shape);
  for (topo::Rank s = 0; s < 8; ++s) {
    for (topo::Rank d = 56; d < net.shape.nodes(); ++d) {
      if (s == d) continue;
      const bool first = plan.pair_routable(s, d, RoutingMode::kAdaptive);
      plan.invalidate_routes();
      EXPECT_EQ(plan.pair_routable(s, d, RoutingMode::kAdaptive), first);
    }
  }
}

// --- oracle vs. brute force ------------------------------------------------

/// splitmix64, so every sampled case is a pure function of its index.
std::uint64_t next_random(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct OracleCase {
  topo::Shape shape;
  std::string faults;
};

/// 1-D to 4-D shapes of at most 64 nodes with mixed ring and mesh axes,
/// extent-1, extent-2 and odd extents, under link and node faults.
OracleCase make_oracle_case(int index) {
  std::uint64_t state = 0x04ac1e00ull + static_cast<std::uint64_t>(index);
  OracleCase c;
  // Fixed cases first: even rings on most axes, so choose_hops draws up to
  // four coins.
  static const char* const kFixed[] = {"2x2x2x2", "4x2x2x2", "4x4x2M"};
  if (index < 3) {
    c.shape = topo::parse_shape(kFixed[index]);
  } else {
    do {
      c.shape.axes = 1 + static_cast<int>(next_random(state) % 4);
      for (int axis = 0; axis < topo::kMaxAxes; ++axis) {
        const auto ax = static_cast<std::size_t>(axis);
        const bool used = axis < c.shape.axes;
        c.shape.dim[ax] = used ? 1 + static_cast<int>(next_random(state) % 6) : 1;
        c.shape.wrap[ax] = !used || next_random(state) % 3 != 0;
      }
    } while (c.shape.nodes() < 2 || c.shape.nodes() > 64);
  }
  c.faults = "link:" + std::to_string(static_cast<double>(5 + next_random(state) % 25) / 100);
  c.faults += ",node:" + std::to_string(next_random(state) % 3);
  c.faults += ",seed:" + std::to_string(1 + next_random(state) % 1000);
  return c;
}

std::string describe(const OracleCase& c) {
  std::string text;
  for (int axis = 0; axis < c.shape.axes; ++axis) {
    const auto ax = static_cast<std::size_t>(axis);
    if (axis > 0) text += "x";
    text += std::to_string(c.shape.dim[ax]) + (c.shape.wrap[ax] ? "" : "M");
  }
  return text + " faults " + c.faults;
}

HopVec flipped(HopVec hops, int mask) {
  for (std::size_t axis = 0; axis < hops.size(); ++axis) {
    if (((mask >> axis) & 1) != 0) hops[axis] = static_cast<std::int16_t>(-hops[axis]);
  }
  return hops;
}

/// Un-memoized DFS over the minimal DAG: the reference route_live must match.
bool reference_live(const FaultPlan& plan, topo::Rank node, const HopVec& hops,
                    RoutingMode mode) {
  if (!plan.node_alive(node)) return false;
  if (hops == HopVec{}) return true;
  const topo::Torus& torus = plan.torus();
  for (int axis = 0; axis < torus.axis_count(); ++axis) {
    const auto ax = static_cast<std::size_t>(axis);
    if (hops[ax] == 0) continue;
    const int sign = hops[ax] > 0 ? +1 : -1;
    const topo::Direction dir{axis, sign};
    if (!plan.link_dead(plan.link_id(node, dir.index()))) {
      HopVec next = hops;
      next[ax] = static_cast<std::int16_t>(next[ax] - sign);
      if (reference_live(plan, torus.neighbor(node, dir), next, mode)) return true;
    }
    if (mode == RoutingMode::kDeterministic) return false;
  }
  return false;
}

/// The minimal hop vector of (src, dst), ties taken toward +, and its
/// half-way tie axes: flipping any subset of them gives the other minimal
/// vectors.
struct MinimalHops {
  HopVec hops{};
  int ties = 0;
};

MinimalHops minimal_hops(const topo::Torus& torus, topo::Rank src, topo::Rank dst) {
  const topo::Coord a = torus.coord_of(src);
  const topo::Coord b = torus.coord_of(dst);
  MinimalHops m;
  for (int axis = 0; axis < torus.axis_count(); ++axis) {
    m.hops[static_cast<std::size_t>(axis)] =
        static_cast<std::int16_t>(torus.hops_signed(a[axis], b[axis], axis));
    if (torus.is_halfway_tie(a[axis], b[axis], axis)) m.ties |= 1 << axis;
  }
  return m;
}

/// Coin that replays the bits of `script` in order and counts its draws.
struct ScriptedCoin {
  unsigned script = 0;
  int drawn = 0;
  bool coin() { return ((script >> drawn++) & 1u) != 0; }
};

constexpr int kOracleCases = 40;
constexpr RoutingMode kModes[] = {RoutingMode::kAdaptive, RoutingMode::kDeterministic};

TEST(FaultProperty, RouteLiveMatchesBruteForceOnEveryMinimalHopVector) {
  for (int index = 0; index < kOracleCases; ++index) {
    const OracleCase c = make_oracle_case(index);
    SCOPED_TRACE(describe(c));
    NetworkConfig net;
    net.shape = c.shape;
    net.faults = parse_fault_spec(c.faults);
    const FaultPlan plan(net, net.shape);
    ASSERT_TRUE(plan.enabled());
    const topo::Torus& torus = plan.torus();
    for (const RoutingMode mode : kModes) {
      // Two passes over a cold slab memo, then the plan's own memo in reverse
      // order: a colliding or misplaced entry shows up as a mismatch.
      FaultPlan::RouteMemo memo;
      for (int pass = 0; pass < 3; ++pass) {
        FaultPlan::RouteMemo* cache = pass < 2 ? &memo : nullptr;
        for (topo::Rank i = 0; i < torus.nodes(); ++i) {
          const topo::Rank src = pass < 2 ? i : torus.nodes() - 1 - i;
          for (topo::Rank dst = 0; dst < torus.nodes(); ++dst) {
            const MinimalHops m = minimal_hops(torus, src, dst);
            for (int flips = 0; flips < 16; ++flips) {
              if ((flips & ~m.ties) != 0) continue;
              const HopVec hops = flipped(m.hops, flips);
              ASSERT_EQ(plan.route_live(src, hops, mode, cache),
                        reference_live(plan, src, hops, mode))
                  << "src " << src << " dst " << dst << " flips " << flips << " mode "
                  << static_cast<int>(mode) << " pass " << pass;
            }
          }
        }
      }
    }
  }
}

TEST(FaultProperty, PairRoutableAndChooseHopsMatchBruteForce) {
  for (int index = 0; index < kOracleCases; ++index) {
    const OracleCase c = make_oracle_case(index);
    SCOPED_TRACE(describe(c));
    NetworkConfig net;
    net.shape = c.shape;
    net.faults = parse_fault_spec(c.faults);
    const FaultPlan plan(net, net.shape);
    const topo::Torus& torus = plan.torus();
    for (const RoutingMode mode : kModes) {
      FaultPlan::RouteMemo memo;
      for (topo::Rank src = 0; src < torus.nodes(); ++src) {
        for (topo::Rank dst = 0; dst < torus.nodes(); ++dst) {
          if (src == dst) continue;
          const MinimalHops m = minimal_hops(torus, src, dst);
          int first_live = -1;
          std::vector<bool> live(16, false);
          for (int flips = 0; flips < 16; ++flips) {
            if ((flips & ~m.ties) != 0) continue;
            live[static_cast<std::size_t>(flips)] =
                reference_live(plan, src, flipped(m.hops, flips), mode);
            if (first_live < 0 && live[static_cast<std::size_t>(flips)]) first_live = flips;
          }
          const std::string where =
              "src " + std::to_string(src) + " dst " + std::to_string(dst);
          ASSERT_EQ(plan.pair_routable(src, dst, mode), first_live >= 0) << where;
          const FaultPlan::PairRoute route = plan.route_pair(src, dst, mode, &memo);
          ASSERT_EQ(route.routable, first_live >= 0) << where;
          ASSERT_EQ(static_cast<int>(route.fallback), first_live) << where;

          // Every coin script: one draw per tie axis in axis order; the draw
          // stands when live (or when nothing is), else the first live flip.
          const int tie_count = std::popcount(static_cast<unsigned>(m.ties));
          for (unsigned script = 0; script < (1u << tie_count); ++script) {
            int drawn = 0;
            for (int axis = 0, bit = 0; axis < torus.axis_count(); ++axis) {
              if (((m.ties >> axis) & 1) == 0) continue;
              if (((script >> bit++) & 1u) != 0) drawn |= 1 << axis;
            }
            const int want = first_live < 0 || live[static_cast<std::size_t>(drawn)]
                                 ? drawn
                                 : first_live;
            ScriptedCoin coin{script, 0};
            ASSERT_EQ(plan.choose_hops(route, coin, &memo), flipped(m.hops, want))
                << where << " script " << script;
            ASSERT_EQ(coin.drawn, tie_count) << where << " script " << script;
          }
        }
      }
    }
  }
}

/// Every node sends `per_node` one-chunk packets and samples the executing
/// slab's route memo each time its core asks for work. Samples are kept per
/// node: a node's handlers run on exactly one slab.
class MemoProbeClient : public Client {
 public:
  struct Samples {
    int asks = 0;
    std::size_t max_bytes = 0;
  };

  MemoProbeClient(std::int32_t nodes, int per_node, Tick strike_at)
      : before(static_cast<std::size_t>(nodes)),
        after(static_cast<std::size_t>(nodes)),
        remaining_(static_cast<std::size_t>(nodes), per_node),
        nodes_(nodes),
        strike_at_(strike_at) {}

  bool next_packet(topo::Rank node, InjectDesc& out) override {
    Samples& samples =
        (fabric->now() < strike_at_ ? before : after)[static_cast<std::size_t>(node)];
    ++samples.asks;
    samples.max_bytes = std::max(samples.max_bytes, fabric->route_memo_scratch()->bytes());
    int& left = remaining_[static_cast<std::size_t>(node)];
    if (left == 0) return false;
    --left;
    out.dst = (node + 1 + left % (nodes_ - 1)) % nodes_;
    out.wire_chunks = 1;
    out.payload_bytes = 32;
    return true;
  }
  void on_delivery(topo::Rank, const Packet&) override {}

  /// Merged over nodes: total asks and the largest memo seen.
  static Samples merged(const std::vector<Samples>& per_node) {
    Samples total;
    for (const Samples& s : per_node) {
      total.asks += s.asks;
      total.max_bytes = std::max(total.max_bytes, s.max_bytes);
    }
    return total;
  }

  Fabric* fabric = nullptr;
  std::vector<Samples> before;
  std::vector<Samples> after;

 private:
  std::vector<int> remaining_;
  std::int32_t nodes_;
  Tick strike_at_;
};

TEST(FaultProperty, RouteMemoIsAllocatedOnlyOnceFaultsAreConsultable) {
  for (const int threads : {1, 2}) {
    for (const char* spec : {"", "link:0.1,fail_at:1000,seed:5"}) {
      SCOPED_TRACE(std::string("faults '") + spec + "', " + std::to_string(threads) +
                   " thread(s)");
      NetworkConfig net;
      net.shape = topo::parse_shape("4x4x4");
      net.seed = 3;
      net.sim_threads = threads;
      net.faults = parse_fault_spec(spec);
      const Tick strike_at =
          net.faults.enabled() ? net.faults.fail_at : std::numeric_limits<Tick>::max();
      MemoProbeClient client(static_cast<std::int32_t>(net.shape.nodes()), 80, strike_at);
      Fabric fabric(net, client);
      client.fabric = &fabric;
      ASSERT_EQ(fabric.effective_sim_threads(), threads);
      fabric.run();
      const auto before = MemoProbeClient::merged(client.before);
      const auto after = MemoProbeClient::merged(client.after);
      EXPECT_GT(before.asks, 0);
      EXPECT_EQ(before.max_bytes, 0u) << "memo storage before the strike";
      if (net.faults.enabled()) {
        EXPECT_GT(after.asks, 0);
        EXPECT_GT(after.max_bytes, 0u) << "a struck run must consult the memo";
      }
    }
  }
}

}  // namespace
}  // namespace bgl::net
