// Deterministic fault injection for the simulated torus.
//
// A FaultPlan expands a FaultConfig into concrete faults on a concrete
// Shape: which undirected links are permanently dead or degraded, which
// nodes are down, and when each transient link failure strikes and repairs.
// The expansion is a pure function of (config, shape) — the plan built by
// the Fabric and the plan a strategy client plans against are guaranteed to
// agree, and a sweep is bit-identical for any worker count.
//
// The plan also carries the minimal-path routability oracle used by
//  - strategy clients, to skip destinations that cannot be reached and to
//    re-pick live intermediates (TPS),
//  - the fabric, to refuse grants that would walk a packet into a dead end
//    it could never leave, and
//  - verification, to define the "reachable pairs" a degraded run must
//    still deliver exactly.
// Routability is evaluated against the *permanent* fault state: transient
// link failures heal, so they delay packets (or force retransmits) without
// making a pair unreachable.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/network/config.hpp"
#include "src/topology/torus.hpp"

namespace bgl::net {

/// Counter-based (stateless) fault randomness: a splitmix64-style mix of a
/// seed and two key words. Every stochastic per-packet fault decision (drop,
/// corruption) is a pure function of (fault seed, flow identity, attempt,
/// hop) through this hash, never a draw from a sequential RNG stream — so
/// the realization is independent of event-processing order and a run
/// reproduces the same faults at any `--sim-threads N`.
inline std::uint64_t fault_hash(std::uint64_t seed, std::uint64_t a,
                                std::uint64_t b) noexcept {
  std::uint64_t x = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// The hash as a uniform draw in [0, 1) (53 mantissa bits).
inline double fault_unit(std::uint64_t seed, std::uint64_t a,
                         std::uint64_t b) noexcept {
  return static_cast<double>(fault_hash(seed, a, b) >> 11) * 0x1.0p-53;
}

/// Parses the CLI fault spec: a comma-separated list of key:value (or
/// key=value) entries, e.g. "link:0.02,drop:1e-5,seed=7".
///   link:F          fraction of undirected links failed permanently
///   tlink:F         fraction of undirected links failing transiently
///   repair:T        transient downtime in cycles
///   fail_at:T       strike tick for permanent faults (default 0)
///   degrade:F       fraction of undirected links degraded
///   degrade_mult:K  chunk-cycle multiplier on degraded links
///   node:N          number of failed nodes
///   drop:P          per-arrival packet drop probability
///   seed:S          fault-plan seed (0 derives from the network seed)
///   rto:T           base retransmission timeout in cycles
///   retries:N       retransmission budget per packet
/// Throws std::runtime_error with a message naming --faults on malformed
/// input (unknown key, bad number, out-of-range value).
FaultConfig parse_fault_spec(const std::string& text);

/// State of one directed link under the plan.
enum class LinkHealth : std::uint8_t {
  kUp = 0,
  kDegraded = 1,   // serialization takes degrade_mult x chunk_cycles
  kTransient = 2,  // scheduled to fail and repair once
  kDead = 3,       // permanently down from fail_at on
};

/// One transient link outage (applies to both directions of the link).
struct TransientOutage {
  std::int32_t link = 0;  // directed link id of the + direction end
  Tick down_at = 0;
  Tick up_at = 0;
};

class FaultPlan {
 public:
  /// Routability memo for route_live, one byte per (node, minimal hop
  /// vector) and routing mode: 0 unknown, 1 dead, 2 live. Minimal hops on
  /// axis a lie in [-half_a, half_a] (half_a = k_a/2 on a ring, k_a - 1 on a
  /// mesh), so the entry sits at node*H + sum_a (h_a + half_a)*stride_a with
  /// H = prod_a (2 half_a + 1). A mode's N*H-byte table (28.8 KB on 8x4x4,
  /// 373 KB on 8x8x8, 20 MB on 16x16x16) is allocated on its first query.
  /// The plan keeps an internal memo for single-threaded callers; parallel
  /// slabs pass their own (the oracle is a pure function of immutable plan
  /// state, so per-slab memos answer identically).
  class RouteMemo {
   public:
    /// Forgets every answer and releases the tables.
    void clear() noexcept { tables_ = {}; }
    /// Bytes of table storage held (0 until the first query).
    std::size_t bytes() const noexcept {
      return tables_[0].capacity() + tables_[1].capacity();
    }

   private:
    friend class FaultPlan;
    std::array<std::vector<std::uint8_t>, 2> tables_;  // indexed by RoutingMode
  };

  /// The routability probe injection makes for (src, dst), before it knows
  /// whether the FIFO has room: the minimal hop vector with half-way ties
  /// taken toward +, the tie axes, and whether any tie resolution leaves a
  /// live minimal path.
  struct PairRoute {
    topo::Rank src = 0;
    RoutingMode mode = RoutingMode::kAdaptive;
    HopVec hops{0, 0, 0, 0};
    std::uint8_t ties = 0;  // bit a: axis a is a half-way tie
    bool routable = true;
    /// First live tie-flip mask in ascending mask order, the resolution
    /// choose_hops falls back to; -1 keeps whatever the coins draw.
    std::int8_t fallback = -1;
  };

  FaultPlan() = default;

  /// Expands `config.faults` over `shape`. A disabled config yields an
  /// empty plan (`enabled() == false`).
  FaultPlan(const NetworkConfig& config, const topo::Shape& shape);

  bool enabled() const noexcept { return enabled_; }
  const FaultConfig& config() const noexcept { return faults_; }
  const topo::Torus& torus() const noexcept { return torus_; }

  /// Seed the plan actually used (faults.seed, or the value derived from the
  /// network seed when faults.seed == 0); consumers needing more fault
  /// randomness (the fabric's drop RNG) fork from this.
  std::uint64_t derived_seed() const noexcept { return derived_seed_; }

  /// Directed link id, mirroring Fabric::link_id (2n directions per node).
  int link_id(topo::Rank node, int dir) const noexcept {
    return node * torus_.directions() + dir;
  }

  /// Permanent health of a directed link (kTransient links count as up).
  LinkHealth link_health(int link) const noexcept {
    return enabled_ ? static_cast<LinkHealth>(link_state_[static_cast<std::size_t>(link)])
                    : LinkHealth::kUp;
  }
  bool link_dead(int link) const noexcept {
    return link_health(link) == LinkHealth::kDead;
  }
  bool node_alive(topo::Rank node) const noexcept {
    return !enabled_ || node_dead_[static_cast<std::size_t>(node)] == 0;
  }

  const std::vector<TransientOutage>& transients() const noexcept { return transients_; }
  std::size_t dead_link_count() const noexcept { return dead_links_; }
  std::size_t degraded_link_count() const noexcept { return degraded_links_; }
  std::size_t dead_node_count() const noexcept { return dead_nodes_; }

  /// True when a packet at `node` with remaining signed hops `hops` can
  /// still reach its destination over live links and nodes under `mode`
  /// (adaptive: any live path in the minimal DAG; deterministic: the single
  /// dimension-order path). `hops` must be minimal. Memoized in `memo` when
  /// given, else in the plan's internal (not thread-safe) memo; call only on
  /// plans with faults.
  bool route_live(topo::Rank node, const HopVec& hops, RoutingMode mode,
                  RouteMemo* memo = nullptr) const;

  /// Geometry of (src, dst) alone: the minimal hops and tie axes, routable,
  /// no fallback. Injection uses it while the fault state is not consultable.
  PairRoute minimal_route(topo::Rank src, topo::Rank dst, RoutingMode mode) const noexcept;

  /// minimal_route plus the oracle: routable when some tie resolution yields
  /// a live minimal path (so both endpoints are alive), with the first such
  /// resolution as the fallback. A disabled plan answers minimal_route.
  PairRoute route_pair(topo::Rank src, topo::Rank dst, RoutingMode mode,
                       RouteMemo* memo = nullptr) const;

  /// True when (src, dst) is deliverable under `mode`. Always true on a
  /// disabled plan (src != dst assumed).
  bool pair_routable(topo::Rank src, topo::Rank dst, RoutingMode mode,
                     RouteMemo* memo = nullptr) const {
    return !enabled_ || route_pair(src, dst, mode, memo).routable;
  }

  /// Signed hop vector for `route`: draws one `rng.coin()` per tie axis, in
  /// axis order, exactly as on a fault-free network, and keeps that draw
  /// unless its minimal DAG is severed and `route` has a live fallback.
  template <class Rng>
  HopVec choose_hops(const PairRoute& route, Rng& rng, RouteMemo* memo = nullptr) const {
    int drawn = 0;
    for (int axis = 0; axis < torus_.axis_count(); ++axis) {
      if (((route.ties >> axis) & 1) != 0 && rng.coin()) drawn |= 1 << axis;
    }
    const HopVec preferred = flip_axes(route.hops, drawn);
    if (route.fallback < 0 || drawn == route.fallback ||
        route_live(route.src, preferred, route.mode, memo)) {
      return preferred;
    }
    return flip_axes(route.hops, route.fallback);
  }

  /// Forget memoized routability (call after a permanent fault epoch
  /// change, i.e. when fail_at > 0 strikes).
  void invalidate_routes() const { route_memo_.clear(); }

 private:
  bool enabled_ = false;
  FaultConfig faults_{};
  std::uint64_t derived_seed_ = 0;
  topo::Torus torus_{};
  std::vector<std::uint8_t> link_state_;  // per directed link, LinkHealth
  std::vector<std::uint8_t> node_dead_;
  std::vector<TransientOutage> transients_;
  std::size_t dead_links_ = 0;
  std::size_t degraded_links_ = 0;
  std::size_t dead_nodes_ = 0;

  static HopVec flip_axes(HopVec hops, int mask) noexcept {
    for (std::size_t axis = 0; axis < hops.size(); ++axis) {
      if (((mask >> axis) & 1) != 0) hops[axis] = static_cast<std::int16_t>(-hops[axis]);
    }
    return hops;
  }

  // RouteMemo layout: per-axis hop offset half_a, and H, the number of
  // minimal hop vectors per node.
  std::array<int, topo::kMaxAxes> route_half_{};
  std::size_t route_span_ = 1;
  mutable RouteMemo route_memo_;
};

}  // namespace bgl::net
