#include "src/network/faults.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "src/util/cli.hpp"
#include "src/util/rng.hpp"

namespace bgl::net {
namespace {

// RouteMemo entries.
enum : std::uint8_t { kRouteUnknown, kRouteDead, kRouteLive };

[[noreturn]] void spec_error(const std::string& detail) {
  throw std::runtime_error("option --faults: " + detail);
}

double fraction(const std::string& value, const std::string& key) {
  const double f = util::parse_strict_double(value, "option --faults " + key);
  if (!(f >= 0.0 && f <= 1.0)) {
    spec_error(key + " must be in [0, 1], got '" + value + "'");
  }
  return f;
}

std::int64_t non_negative(const std::string& value, const std::string& key) {
  const std::int64_t n = util::parse_strict_int(value, "option --faults " + key);
  if (n < 0) spec_error(key + " must be >= 0, got '" + value + "'");
  return n;
}

}  // namespace

FaultConfig parse_fault_spec(const std::string& text) {
  FaultConfig out;
  std::vector<std::string> seen;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const auto entry =
        text.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (entry.empty()) {
      if (text.empty()) break;
      spec_error("empty entry in '" + text + "'");
    }
    auto sep = entry.find(':');
    if (sep == std::string::npos) sep = entry.find('=');
    if (sep == std::string::npos || sep == 0 || sep + 1 >= entry.size()) {
      spec_error("expected key:value, got '" + entry + "'");
    }
    const std::string key = entry.substr(0, sep);
    const std::string value = entry.substr(sep + 1);
    // Last-wins would make "link:0.1,link:0" silently disable the fault the
    // user thought they configured; duplicates are always a spec bug.
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      spec_error("duplicate key '" + key + "' in '" + text + "'");
    }
    seen.push_back(key);
    if (key == "link") {
      out.link_fail = fraction(value, key);
    } else if (key == "tlink") {
      out.link_transient = fraction(value, key);
    } else if (key == "repair") {
      const auto n = non_negative(value, key);
      if (n == 0) spec_error("repair must be > 0");
      out.repair_cycles = n;
    } else if (key == "fail_at") {
      out.fail_at = non_negative(value, key);
    } else if (key == "degrade") {
      out.degrade = fraction(value, key);
    } else if (key == "degrade_mult") {
      const auto n = non_negative(value, key);
      if (n < 2 || n > 1024) spec_error("degrade_mult must be in [2, 1024]");
      out.degrade_mult = static_cast<std::uint32_t>(n);
    } else if (key == "node") {
      out.node_fail = static_cast<int>(non_negative(value, key));
    } else if (key == "drop") {
      out.drop_prob = fraction(value, key);
    } else if (key == "corrupt") {
      out.corrupt_prob = fraction(value, key);
    } else if (key == "seed") {
      out.seed = static_cast<std::uint64_t>(
          util::parse_strict_int(value, "option --faults seed"));
    } else if (key == "rto") {
      const auto n = non_negative(value, key);
      if (n == 0) spec_error("rto must be > 0");
      out.retrans_timeout = n;
    } else if (key == "retries") {
      out.max_retries = static_cast<int>(non_negative(value, key));
    } else if (key == "stuck") {
      out.stuck_drop_cycles = non_negative(value, key);
    } else {
      spec_error("unknown key '" + key + "' (expected link, tlink, repair, fail_at, " +
                 "degrade, degrade_mult, node, drop, corrupt, seed, rto, retries, stuck)");
    }
  }
  return out;
}

FaultPlan::FaultPlan(const NetworkConfig& config, const topo::Shape& shape)
    : torus_(shape) {
  faults_ = config.faults;
  enabled_ = faults_.enabled();
  if (!enabled_) return;

  const std::size_t links = static_cast<std::size_t>(torus_.nodes()) *
                            static_cast<std::size_t>(torus_.directions());
  for (int axis = 0; axis < torus_.axis_count(); ++axis) {
    const auto ax = static_cast<std::size_t>(axis);
    route_half_[ax] = shape.wrap[ax] ? shape.dim[ax] / 2 : shape.dim[ax] - 1;
    route_span_ *= static_cast<std::size_t>(2 * route_half_[ax] + 1);
  }
  link_state_.assign(links, static_cast<std::uint8_t>(LinkHealth::kUp));
  node_dead_.assign(static_cast<std::size_t>(torus_.nodes()), 0);

  // seed 0 derives from the network seed, so repeated sweep jobs sample
  // independent fault placements while staying reproducible.
  derived_seed_ =
      faults_.seed != 0 ? faults_.seed : (config.seed ^ 0x6661756c74ULL);  // "fault"
  std::uint64_t sm = derived_seed_;
  util::Xoshiro256StarStar rng(util::splitmix64(sm));

  // Enumerate undirected links as (node, +axis) ports that have a peer; the
  // paired (-axis) port on the peer is derived, so failing an entry always
  // fails both directions.
  std::vector<std::pair<topo::Rank, int>> undirected;
  for (topo::Rank node = 0; node < torus_.nodes(); ++node) {
    for (int axis = 0; axis < torus_.axis_count(); ++axis) {
      const topo::Direction plus{axis, +1};
      if (torus_.neighbor(node, plus) >= 0) undirected.emplace_back(node, axis);
    }
  }
  rng.shuffle(undirected);

  const auto count = [&](double frac) {
    return std::min(undirected.size(),
                    static_cast<std::size_t>(
                        std::llround(frac * static_cast<double>(undirected.size()))));
  };
  const std::size_t n_dead = count(faults_.link_fail);
  const std::size_t n_trans = count(faults_.link_transient);
  const std::size_t n_degr = count(faults_.degrade);

  const auto mark_both = [&](std::size_t idx, LinkHealth health) {
    const auto [node, axis] = undirected[idx];
    const topo::Direction plus{axis, +1};
    const topo::Rank peer = torus_.neighbor(node, plus);
    link_state_[static_cast<std::size_t>(link_id(node, plus.index()))] =
        static_cast<std::uint8_t>(health);
    link_state_[static_cast<std::size_t>(
        link_id(peer, topo::Direction{axis, -1}.index()))] =
        static_cast<std::uint8_t>(health);
  };

  // The shuffled list is consumed in disjoint segments: dead, then transient,
  // then degraded, clamped to the number of links available.
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n_dead && cursor < undirected.size(); ++i, ++cursor) {
    mark_both(cursor, LinkHealth::kDead);
    ++dead_links_;
  }
  for (std::size_t i = 0; i < n_trans && cursor < undirected.size(); ++i, ++cursor) {
    mark_both(cursor, LinkHealth::kTransient);
    const auto [node, axis] = undirected[cursor];
    TransientOutage outage;
    outage.link = link_id(node, topo::Direction{axis, +1}.index());
    outage.down_at =
        faults_.fail_at + static_cast<Tick>(rng.below(
                              static_cast<std::uint64_t>(faults_.repair_cycles)));
    outage.up_at = outage.down_at + faults_.repair_cycles;
    transients_.push_back(outage);
  }
  for (std::size_t i = 0; i < n_degr && cursor < undirected.size(); ++i, ++cursor) {
    mark_both(cursor, LinkHealth::kDegraded);
    ++degraded_links_;
  }

  // Node failures kill every incident directed link (both in and out), so all
  // fault checks in the fabric reduce to link checks.
  if (faults_.node_fail > 0) {
    std::vector<topo::Rank> nodes(static_cast<std::size_t>(torus_.nodes()));
    for (topo::Rank r = 0; r < torus_.nodes(); ++r) nodes[static_cast<std::size_t>(r)] = r;
    rng.shuffle(nodes);
    const std::size_t n_nodes =
        std::min(nodes.size(), static_cast<std::size_t>(faults_.node_fail));
    for (std::size_t i = 0; i < n_nodes; ++i) {
      const topo::Rank victim = nodes[i];
      node_dead_[static_cast<std::size_t>(victim)] = 1;
      ++dead_nodes_;
      for (int d = 0; d < torus_.directions(); ++d) {
        const topo::Direction dir = topo::Direction::from_index(d);
        const topo::Rank peer = torus_.neighbor(victim, dir);
        if (peer < 0) continue;
        link_state_[static_cast<std::size_t>(link_id(victim, d))] =
            static_cast<std::uint8_t>(LinkHealth::kDead);
        link_state_[static_cast<std::size_t>(
            link_id(peer, topo::Direction{dir.axis, -dir.sign}.index()))] =
            static_cast<std::uint8_t>(LinkHealth::kDead);
      }
    }
  }

  // Drop transients whose link a permanent fault already killed (segment
  // overlap cannot happen, but a node failure can land on a transient link).
  std::erase_if(transients_, [&](const TransientOutage& t) {
    return link_state_[static_cast<std::size_t>(t.link)] !=
           static_cast<std::uint8_t>(LinkHealth::kTransient);
  });
  std::sort(transients_.begin(), transients_.end(),
            [](const TransientOutage& a, const TransientOutage& b) {
              return a.down_at != b.down_at ? a.down_at < b.down_at : a.link < b.link;
            });
}

bool FaultPlan::route_live(topo::Rank node, const HopVec& hops, RoutingMode mode,
                           RouteMemo* memo) const {
  if (!node_alive(node)) return false;
  if (hops == HopVec{}) return true;

  std::vector<std::uint8_t>& table =
      (memo != nullptr ? *memo : route_memo_).tables_[static_cast<std::size_t>(mode)];
  if (table.empty()) {
    table.assign(static_cast<std::size_t>(torus_.nodes()) * route_span_, kRouteUnknown);
  }
  // node*H + sum_a (h_a + half_a)*stride_a by Horner's rule, last axis first.
  std::size_t index = static_cast<std::size_t>(node);
  for (int axis = torus_.axis_count() - 1; axis >= 0; --axis) {
    const auto ax = static_cast<std::size_t>(axis);
    assert(std::abs(hops[ax]) <= route_half_[ax]);
    index = index * static_cast<std::size_t>(2 * route_half_[ax] + 1) +
            static_cast<std::size_t>(hops[ax] + route_half_[ax]);
  }
  // The table is sized before the recursion below, so `entry` stays valid.
  std::uint8_t& entry = table[index];
  if (entry != kRouteUnknown) return entry == kRouteLive;

  bool live = false;
  for (int axis = 0; axis < torus_.axis_count() && !live; ++axis) {
    if (hops[static_cast<std::size_t>(axis)] == 0) continue;
    const int sign = hops[static_cast<std::size_t>(axis)] > 0 ? +1 : -1;
    const topo::Direction dir{axis, sign};
    if (link_state_[static_cast<std::size_t>(link_id(node, dir.index()))] !=
        static_cast<std::uint8_t>(LinkHealth::kDead)) {
      auto next = hops;
      next[static_cast<std::size_t>(axis)] =
          static_cast<std::int16_t>(next[static_cast<std::size_t>(axis)] - sign);
      live = route_live(torus_.neighbor(node, dir), next, mode, memo);
    }
    // Dimension-ordered routing has no second choice: only the first
    // unfinished axis may move.
    if (mode == RoutingMode::kDeterministic) break;
  }
  entry = live ? kRouteLive : kRouteDead;
  return live;
}

FaultPlan::PairRoute FaultPlan::minimal_route(topo::Rank src, topo::Rank dst,
                                              RoutingMode mode) const noexcept {
  const topo::Coord a = torus_.coord_of(src);
  const topo::Coord b = torus_.coord_of(dst);
  PairRoute route;
  route.src = src;
  route.mode = mode;
  for (int axis = 0; axis < torus_.axis_count(); ++axis) {
    route.hops[static_cast<std::size_t>(axis)] =
        static_cast<std::int16_t>(torus_.hops_signed(a[axis], b[axis], axis));
    if (torus_.is_halfway_tie(a[axis], b[axis], axis)) {
      route.ties = static_cast<std::uint8_t>(route.ties | (1u << axis));
    }
  }
  return route;
}

FaultPlan::PairRoute FaultPlan::route_pair(topo::Rank src, topo::Rank dst,
                                           RoutingMode mode, RouteMemo* memo) const {
  PairRoute route = minimal_route(src, dst, mode);
  if (!enabled_) return route;
  // Try every sign assignment of the half-way tie axes: a pair is routable
  // when any minimal path under any legal tie resolution survives.
  route.routable = false;
  for (int flips = 0; flips < (1 << torus_.axis_count()); ++flips) {
    if ((flips & ~route.ties) != 0) continue;
    if (route_live(src, flip_axes(route.hops, flips), mode, memo)) {
      route.routable = true;
      route.fallback = static_cast<std::int8_t>(flips);
      break;
    }
  }
  return route;
}

}  // namespace bgl::net
