#include "core/nearest_replica.hpp"

#include "util/contracts.hpp"

namespace proxcache {

void NearestReplicaStrategy::propose(const Request& request, Rng& rng,
                                     CandidateArena& arena, Proposal& out) {
  (void)arena;  // Strategy I is load-oblivious: the decision is final here.
  const NearestResult nearest = index_->nearest(request.origin, request.file,
                                                rng);
  PROXCACHE_CHECK(nearest.server != kInvalidNode,
                  "request for uncached file reached the strategy; "
                  "SanitizingTraceSource must run first");
  out.decided = true;
  out.server = nearest.server;
  out.hops = nearest.distance;
}

Assignment NearestReplicaStrategy::choose(const Request& request,
                                          const Proposal& proposal,
                                          CandidateArena& arena,
                                          const LoadView& loads,
                                          Rng& rng) const {
  (void)request;
  (void)arena;
  (void)loads;
  (void)rng;
  return decided_assignment(proposal);
}

}  // namespace proxcache
