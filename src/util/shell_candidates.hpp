#pragma once
/// \file shell_candidates.hpp
/// The vocabulary of a candidate-aware shell walk (`Topology::walk_shells`,
/// `DistanceOracle::walk_shells`), shared by the topology and graph layers
/// without either depending on the other.

#include <span>

#include "util/function_ref.hpp"
#include "util/types.hpp"

namespace proxcache {

/// The nodes a shell walk reports, given two ways: their ids in increasing
/// order (a file's replica list) and a membership test over the same set
/// (`Placement::caches`). A walk reads whichever is cheaper per shell.
struct ShellCandidates {
  std::span<const NodeId> sorted;
  FunctionRef<bool(NodeId)> contains;
};

/// A shell walk's visitor: `fn(d, hits)` gets the candidates at distance
/// exactly `d` and returns whether the walk goes on. `hits` ends with the
/// call.
using ShellHitVisitor = FunctionRef<bool(Hop, std::span<const NodeId>)>;

}  // namespace proxcache
