#include "strategy/least_loaded.hpp"

#include <sstream>

#include "util/contracts.hpp"

namespace proxcache {

std::string LeastLoadedStrategy::name() const {
  std::ostringstream os;
  os << "least-loaded(r=";
  if (options_.radius == kUnboundedRadius) {
    os << "inf";
  } else {
    os << options_.radius;
  }
  os << ")";
  return os.str();
}

void LeastLoadedStrategy::propose(const Request& request, Rng& rng,
                                  CandidateArena& arena, Proposal& out) {
  const Topology& topology = index_->topology();
  Hop radius = options_.radius;
  out.first = static_cast<std::uint32_t>(arena.size());

  while (true) {
    // The enumeration order is deterministic and load-independent, so the
    // whole probe — the expensive part — records into the arena without
    // touching loads or the rng.
    index_->for_each_replica_within(
        request.origin, request.file, radius,
        [&](NodeId v, Hop d) { arena.push_back({v, d, 0.0}); });
    out.count = static_cast<std::uint32_t>(arena.size()) - out.first;
    if (out.count > 0) return;

    // Empty F_j(u): same fallback semantics as Strategy II.
    out.fallback = true;
    switch (options_.fallback) {
      case FallbackPolicy::Drop:
        out.decided = true;  // invalid server signals the drop
        return;
      case FallbackPolicy::NearestReplica: {
        const NearestResult nearest =
            index_->nearest(request.origin, request.file, rng);
        PROXCACHE_CHECK(nearest.server != kInvalidNode,
                        "uncached file reached the strategy; "
                        "SanitizingTraceSource must run first");
        out.decided = true;
        out.server = nearest.server;
        out.hops = nearest.distance;
        return;
      }
      case FallbackPolicy::ExpandRadius: {
        const Hop diameter = topology.diameter();
        // A full-diameter probe already saw every replica, so an empty
        // result can only mean an uncached file slipped past sanitize.
        PROXCACHE_CHECK(radius < diameter,
                        "uncached file reached the strategy; "
                        "SanitizingTraceSource must run first");
        radius = next_fallback_radius(radius, diameter);
        break;
      }
    }
  }
}

Assignment LeastLoadedStrategy::choose(const Request& request,
                                       const Proposal& proposal,
                                       CandidateArena& arena,
                                       const LoadView& loads,
                                       Rng& rng) const {
  (void)request;
  if (proposal.decided) return decided_assignment(proposal);
  Assignment assignment;
  assignment.fallback = proposal.fallback;

  // Streaming min-scan over the recorded window: identical comparison and
  // tie-draw order to the historical pass that interleaved with the
  // enumeration.
  const ProposedCandidate* candidates = arena.data() + proposal.first;
  NodeId best_node = kInvalidNode;
  Load best_load = 0;
  Hop best_dist = 0;
  std::uint32_t ties = 0;
  for (std::uint32_t i = 0; i < proposal.count; ++i) {
    const NodeId v = candidates[i].node;
    const Hop d = candidates[i].hops;
    const Load load = loads.load(v);
    if (best_node == kInvalidNode || load < best_load ||
        (load == best_load && d < best_dist)) {
      best_node = v;
      best_load = load;
      best_dist = d;
      ties = 1;
      continue;
    }
    if (load == best_load && d == best_dist) {
      ++ties;
      if (rng.below(ties) == 0) best_node = v;
    }
  }
  assignment.server = best_node;
  assignment.hops = best_dist;
  return assignment;
}

}  // namespace proxcache
