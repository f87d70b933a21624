// Shared CLI handling of --shape style arguments. A malformed partition
// spec (zero/negative extent, too many dimensions, int32 overflow, stray
// characters) is a user error, not a programming error: report the parser's
// message on stderr and exit 2, the same convention the bench harness uses
// for every other bad option. Programs that run an all-to-all also reject a
// single-node shape.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "src/topology/torus.hpp"

namespace bgl::util {

inline topo::Shape shape_arg_or_exit(const std::string& spec,
                                     const std::string& program) {
  try {
    return topo::parse_shape(spec);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: error: %s\n", program.c_str(), error.what());
    std::exit(2);
  }
}

/// shape_arg_or_exit for programs that run an all-to-all (or any other
/// exchange between nodes), which needs at least two nodes: a single-node
/// partition exits 2 the same way.
inline topo::Shape alltoall_shape_arg_or_exit(const std::string& spec,
                                              const std::string& program) {
  const topo::Shape shape = shape_arg_or_exit(spec, program);
  if (shape.nodes() < 2) {
    std::fprintf(stderr, "%s: error: shape %s has one node; exchanging data needs at least 2\n",
                 program.c_str(), shape.to_string().c_str());
    std::exit(2);
  }
  return shape;
}

}  // namespace bgl::util
