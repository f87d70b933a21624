// Property suite for the k-ary n-dimensional topology generalization:
// on deterministically sampled random shapes with 1 to 4 axes (torus and
// mesh dimensions mixed), the geometry queries must agree with brute force
// — rank/coord round-trips, neighbor symmetry, per-axis hop counts
// including the half-way tie, distance as the axis sum, and mean hops —
// and the schedule executor must deliver every pair's payload exactly once
// end to end.
#include "src/topology/torus.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/coll/alltoall.hpp"

namespace bgl::topo {
namespace {

/// splitmix64 — every sampled case is a pure function of its index.
std::uint64_t next_random(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A random 1-4 dimensional shape spec (extents 2..6, ~1/4 of the
/// dimensions mesh), built through the parser so the string path is
/// exercised too.
std::string random_spec(int axes, std::uint64_t salt) {
  std::uint64_t state = 0x70d07e57ull * 2654435761ull + salt;
  next_random(state);
  std::string spec;
  for (int a = 0; a < axes; ++a) {
    if (a > 0) spec += 'x';
    spec += std::to_string(2 + next_random(state) % 5);
    if (next_random(state) % 4 == 0) spec += 'M';
  }
  return spec;
}

/// Brute-force minimal hops along one axis: walk both ways, take the best
/// legal path.
int brute_hops(const Shape& shape, int a, int b, int axis) {
  const int extent = shape.dim[static_cast<std::size_t>(axis)];
  const int direct = std::abs(a - b);
  if (!shape.wrap[static_cast<std::size_t>(axis)]) return direct;
  return std::min(direct, extent - direct);
}

class NdShapeProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(NdShapeProperty, RankCoordRoundTrip) {
  const Shape shape = parse_shape(GetParam());
  const Torus torus{shape};
  for (Rank r = 0; r < torus.nodes(); ++r) {
    const Coord c = torus.coord_of(r);
    EXPECT_EQ(torus.rank_of(c), r);
    for (int a = 0; a < kMaxAxes; ++a) {
      if (a < shape.axis_count()) {
        EXPECT_GE(c[a], 0);
        EXPECT_LT(c[a], shape.dim[static_cast<std::size_t>(a)]);
      } else {
        EXPECT_EQ(c[a], 0) << "coords beyond the shape's axes must stay 0";
      }
    }
  }
}

TEST_P(NdShapeProperty, NeighborSymmetryAndEdges) {
  const Shape shape = parse_shape(GetParam());
  const Torus torus{shape};
  for (Rank r = 0; r < torus.nodes(); ++r) {
    for (int d = 0; d < torus.directions(); ++d) {
      const Direction dir = Direction::from_index(d);
      const Rank nb = torus.neighbor(r, dir);
      const Coord c = torus.coord_of(r);
      const int extent = shape.dim[static_cast<std::size_t>(dir.axis)];
      const bool at_edge = dir.sign > 0 ? c[dir.axis] == extent - 1 : c[dir.axis] == 0;
      const bool wraps = shape.wrap[static_cast<std::size_t>(dir.axis)];
      if (at_edge && !wraps) {
        EXPECT_EQ(nb, -1) << "stepping off a mesh edge must fail";
        continue;
      }
      ASSERT_GE(nb, 0);
      // The reverse direction (index ^ 1) leads straight back.
      EXPECT_EQ(torus.neighbor(nb, Direction::from_index(d ^ 1)), r);
      // Exactly one coordinate moved, by one step (mod extent).
      const Coord nc = torus.coord_of(nb);
      for (int a = 0; a < shape.axis_count(); ++a) {
        if (a != dir.axis) {
          EXPECT_EQ(nc[a], c[a]);
        } else {
          const int expect = (c[a] + dir.sign + extent) % extent;
          EXPECT_EQ(nc[a], expect);
        }
      }
    }
  }
}

TEST_P(NdShapeProperty, HopsMatchBruteForce) {
  const Shape shape = parse_shape(GetParam());
  const Torus torus{shape};
  for (int axis = 0; axis < shape.axis_count(); ++axis) {
    const int extent = shape.dim[static_cast<std::size_t>(axis)];
    for (int a = 0; a < extent; ++a) {
      for (int b = 0; b < extent; ++b) {
        const int want = brute_hops(shape, a, b, axis);
        EXPECT_EQ(torus.hops(a, b, axis), want);
        const int signed_hops = torus.hops_signed(a, b, axis);
        EXPECT_EQ(std::abs(signed_hops), want);
        // Walking `signed_hops` steps from `a` must land on `b`.
        const int landed = shape.wrap[static_cast<std::size_t>(axis)]
                               ? ((a + signed_hops) % extent + extent) % extent
                               : a + signed_hops;
        EXPECT_EQ(landed, b);
        // The half-way tie exists iff the torus distance is ambiguous; the
        // deterministic variant prefers +.
        const bool tie = torus.is_halfway_tie(a, b, axis);
        const bool expect_tie = shape.wrap[static_cast<std::size_t>(axis)] &&
                                extent % 2 == 0 && want == extent / 2 && want > 0;
        EXPECT_EQ(tie, expect_tie);
        if (tie) {
          EXPECT_GT(signed_hops, 0);
        }
      }
    }
  }
}

TEST_P(NdShapeProperty, DistanceIsTheAxisSum) {
  const Shape shape = parse_shape(GetParam());
  const Torus torus{shape};
  const std::int32_t nodes = torus.nodes();
  // Sample pairs on larger shapes; exhaustive below 32 nodes.
  const std::int32_t stride = nodes <= 32 ? 1 : nodes / 31;
  for (Rank s = 0; s < nodes; s += stride) {
    for (Rank d = 0; d < nodes; ++d) {
      const Coord cs = torus.coord_of(s);
      const Coord cd = torus.coord_of(d);
      int want = 0;
      for (int a = 0; a < shape.axis_count(); ++a) {
        want += brute_hops(shape, cs[a], cd[a], a);
      }
      EXPECT_EQ(torus.distance(s, d), want);
    }
  }
}

TEST_P(NdShapeProperty, MeanHopsMatchesBruteForce) {
  const Shape shape = parse_shape(GetParam());
  const Torus torus{shape};
  for (int axis = 0; axis < shape.axis_count(); ++axis) {
    const int extent = shape.dim[static_cast<std::size_t>(axis)];
    double total = 0.0;
    for (int a = 0; a < extent; ++a) {
      for (int b = 0; b < extent; ++b) {
        total += brute_hops(shape, a, b, axis);
      }
    }
    EXPECT_DOUBLE_EQ(torus.mean_hops(axis),
                     total / (static_cast<double>(extent) * extent));
  }
}

std::vector<std::string> sampled_specs() {
  std::vector<std::string> specs;
  for (int axes = 1; axes <= 4; ++axes) {
    for (std::uint64_t salt = 0; salt < 4; ++salt) {
      specs.push_back(random_spec(axes, static_cast<std::uint64_t>(axes) * 16 + salt));
    }
  }
  // Pin the corner cases the sampler may miss.
  specs.push_back("64");
  specs.push_back("2M");
  specs.push_back("8x8");
  specs.push_back("4x4x4x4");
  specs.push_back("2x2x2x2M");
  return specs;
}

INSTANTIATE_TEST_SUITE_P(SampledShapes, NdShapeProperty,
                         ::testing::ValuesIn(sampled_specs()),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == 'x') c = '_';
                           }
                           return name;
                         });

// --- end-to-end delivery on n-D shapes --------------------------------------

struct EndToEndCase {
  const char* spec;
  coll::StrategyKind kind;
  std::uint64_t msg_bytes;
};

class NdEndToEnd : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(NdEndToEnd, DeliversEveryPairExactlyOnce) {
  const EndToEndCase& c = GetParam();
  coll::AlltoallOptions options;
  options.net.shape = parse_shape(c.spec);
  options.net.seed = 11;
  options.msg_bytes = c.msg_bytes;
  const auto nodes = static_cast<std::int32_t>(options.net.shape.nodes());
  coll::DeliveryMatrix matrix(nodes);
  options.deliveries = &matrix;
  const coll::RunResult result = coll::run_alltoall(c.kind, options);
  EXPECT_TRUE(result.drained);
  // complete() demands *exactly* msg_bytes per ordered pair: missing and
  // duplicated deliveries both fail.
  EXPECT_TRUE(matrix.complete(c.msg_bytes)) << matrix.first_error(c.msg_bytes);
}

const EndToEndCase kEndToEndCases[] = {
    {"16", coll::StrategyKind::kAdaptiveRandom, 300},
    {"32", coll::StrategyKind::kVirtualMesh, 64},
    {"8x4", coll::StrategyKind::kAdaptiveRandom, 300},
    {"6x6", coll::StrategyKind::kTwoPhase, 120},
    {"8x8", coll::StrategyKind::kVirtualMesh, 48},
    {"4x3x2M", coll::StrategyKind::kMpi, 200},
    {"3x3x3x3", coll::StrategyKind::kAdaptiveRandom, 96},
    {"2x2x4x2", coll::StrategyKind::kTwoPhase, 150},
    {"4x2x2x2M", coll::StrategyKind::kVirtualMesh, 80},
};

INSTANTIATE_TEST_SUITE_P(SampledRuns, NdEndToEnd, ::testing::ValuesIn(kEndToEndCases),
                         [](const ::testing::TestParamInfo<EndToEndCase>& param_info) {
                           std::string name = param_info.param.spec;
                           for (char& c : name) {
                             if (c == 'x') c = '_';
                           }
                           return name + "_" + std::to_string(param_info.index);
                         });

}  // namespace
}  // namespace bgl::topo
