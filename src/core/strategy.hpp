#pragma once
/// \file strategy.hpp
/// The assignment-strategy interface: given the next request and the
/// current loads, pick the serving node (paper §II-B "assignment strategy").
///
/// One protocol lives here, split in two halves — the seam the sharded
/// engine (src/parallel/sharded_runner.hpp) parallelizes across. The key
/// observation: for every built-in policy the *expensive* per-request work
/// (candidate discovery via shell walks or reservoir passes, distance and
/// weight computation, fallback-radius expansion) never reads the load
/// vector, while the *cheap* final step (min-load comparison plus tie-break
/// draws) is the only load-dependent part. `propose` performs all
/// load-independent work — including every RNG draw whose count does not
/// depend on loads — and records the candidate set; `choose` consumes live
/// loads and finishes the decision on the same stream.
///
/// `Strategy::assign` is the one-shot composition `propose; choose` on one
/// Rng, with a private arena. The serial loop and the event engine call
/// it; the sharded engine runs `propose` on a worker pool and `choose`
/// serially in request order. Because `assign` is not virtual, the two
/// paths cannot drift apart: the serial engine's golden masters
/// (tests/test_determinism.cpp) lock the halves the sharded engine runs.

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/request.hpp"
#include "random/rng.hpp"
#include "util/types.hpp"

namespace proxcache {

/// A single assignment decision.
struct Assignment {
  NodeId server = kInvalidNode;  ///< chosen server; invalid = dropped
  Hop hops = 0;                  ///< requester→server distance (charged to C)
  bool fallback = false;         ///< a fallback path was taken
};

/// The shared ExpandRadius fallback schedule (Strategy II semantics, also
/// used by least-loaded): 0 → 1, then doubling, saturating at the lattice
/// diameter. One definition so the strategies cannot drift apart.
[[nodiscard]] inline Hop next_fallback_radius(Hop radius, Hop diameter) {
  if (radius == 0) return 1;
  return radius >= diameter / 2 ? diameter : static_cast<Hop>(radius * 2);
}

/// One candidate recorded by `propose`: the node plus everything `choose`
/// would otherwise have to recompute (distance; sampling weight for the
/// weighted policies). Kept flat (SoA-of-requests is the arena itself) so a
/// worker's whole scratch is one contiguous, cache-friendly buffer.
struct ProposedCandidate {
  NodeId node = kInvalidNode;
  Hop hops = 0;
  double weight = 0.0;
  /// Hierarchy tier the candidate lives in (tier/strategies.hpp); 0 on
  /// flat topologies. Rides the arena so cross-tier `choose` can apply
  /// depth tie-breaks without re-locating the node.
  std::uint32_t tier = 0;
};

/// Per-shard scratch: `propose` appends candidates here; slices are handed
/// to `choose` by [first, count) windows. One arena per worker lane — never
/// shared across threads.
using CandidateArena = std::vector<ProposedCandidate>;

/// The load-independent half of a decision, produced by `propose`.
///
/// Either the decision is already final (`decided` — nearest-replica, the
/// NearestReplica/Drop fallbacks) and `server`/`hops` hold it, or
/// `arena[first .. first+count)` holds the candidate window that `choose`
/// resolves against live loads.
struct Proposal {
  std::uint32_t first = 0;     ///< arena index of this request's window
  std::uint32_t count = 0;     ///< candidates recorded (0 when decided)
  NodeId server = kInvalidNode;  ///< final server when `decided`
  Hop hops = 0;                  ///< final distance when `decided`
  double total_weight = 0.0;   ///< Σ candidate weights (weighted policies)
  bool decided = false;        ///< load-independent decision already final
  bool fallback = false;       ///< a fallback path was taken
};

/// Sequential request-to-server mapper. Implementations must be
/// deterministic given the Rng stream and may read (never write) the
/// tracker's current loads.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Decide where `request` is served: `propose` then `choose` on the
  /// caller's stream, with a private arena.
  Assignment assign(const Request& request, const LoadView& loads,
                    Rng& rng) {
    scratch_.clear();
    Proposal proposal;
    propose(request, rng, scratch_, proposal);
    return choose(request, proposal, scratch_, loads, rng);
  }

  /// Load-independent half: discover candidates (appending them to
  /// `arena`), run fallback handling, and perform every RNG draw whose
  /// count does not depend on loads. May mutate strategy-local scratch, so
  /// each concurrent caller needs its own instance ("lane").
  virtual void propose(const Request& request, Rng& rng,
                       CandidateArena& arena, Proposal& out) = 0;

  /// Load-dependent half: finish `proposal` against live `loads`,
  /// continuing on the *same* Rng stream `propose` left off. Must be
  /// callable concurrently with `propose` on *other* instances (the
  /// sharded engine's commit thread chooses while the lanes propose the
  /// next batch), hence const: it may not touch strategy-local scratch
  /// (the arena window is its scratch — it may mutate that in place).
  [[nodiscard]] virtual Assignment choose(const Request& request,
                                          const Proposal& proposal,
                                          CandidateArena& arena,
                                          const LoadView& loads,
                                          Rng& rng) const = 0;

  /// Short identifier for logs/tables, e.g. "nearest" or "two-choice(r=16)".
  [[nodiscard]] virtual std::string name() const = 0;

 private:
  CandidateArena scratch_;  ///< `assign`'s private arena
};

/// Shared tail of `choose` for proposals `propose` already finalized.
[[nodiscard]] inline Assignment decided_assignment(const Proposal& proposal) {
  Assignment assignment;
  assignment.server = proposal.server;
  assignment.hops = proposal.hops;
  assignment.fallback = proposal.fallback;
  return assignment;
}

}  // namespace proxcache
