#include "core/two_choice.hpp"

#include <algorithm>
#include <sstream>

#include "core/nearest_replica.hpp"
#include "random/sampling.hpp"
#include "util/contracts.hpp"

namespace proxcache {

TwoChoiceStrategy::TwoChoiceStrategy(const ReplicaIndex& index,
                                     TwoChoiceOptions options)
    : index_(&index), options_(options) {
  PROXCACHE_REQUIRE(options.num_choices >= 1 && options.num_choices <= 8,
                    "num_choices must be in [1, 8]");
  PROXCACHE_REQUIRE(options.beta >= 0.0 && options.beta <= 1.0,
                    "beta must be in [0, 1]");
}

std::string TwoChoiceStrategy::name() const {
  std::ostringstream os;
  os << (options_.num_choices == 2 ? "two-choice"
                                   : std::to_string(options_.num_choices) +
                                         "-choice");
  if (options_.radius != kUnboundedRadius) {
    os << "(r=" << options_.radius << ")";
  } else {
    os << "(r=inf)";
  }
  return os.str();
}

std::uint32_t TwoChoiceStrategy::sample_candidates(NodeId origin, FileId file,
                                                   Hop radius, Rng& rng,
                                                   NodeId out[8]) const {
  const std::uint32_t d = options_.num_choices;
  const Topology& topology = index_->topology();
  const auto& placement = index_->placement();

  if (radius >= topology.diameter()) {
    // Unconstrained: sample directly from the replica list S_j.
    const auto replicas = placement.replicas(file);
    const std::size_t count = replicas.size();
    if (count == 0) return 0;
    if (options_.with_replacement) {
      for (std::uint32_t i = 0; i < d; ++i) {
        out[i] = replicas[rng.below(count)];
      }
      return d;
    }
    if (count <= d) {
      for (std::size_t i = 0; i < count; ++i) out[i] = replicas[i];
      return static_cast<std::uint32_t>(count);
    }
    if (d == 2) {
      const auto [a, b] = rng.distinct_pair(count);
      out[0] = replicas[a];
      out[1] = replicas[b];
      return 2;
    }
    // General d: rejection over indices (d << count in practice).
    std::uint32_t have = 0;
    std::size_t picked[8];
    while (have < d) {
      const std::size_t idx = rng.below(count);
      bool duplicate = false;
      for (std::uint32_t i = 0; i < have; ++i) {
        if (picked[i] == idx) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        picked[have] = idx;
        out[have++] = replicas[idx];
      }
    }
    return d;
  }

  // Radius-constrained: one streaming pass with a k-reservoir.
  if (options_.with_replacement) {
    // With replacement: d independent 1-reservoirs over the same pass.
    ReservoirOne reservoirs[8] = {ReservoirOne(rng), ReservoirOne(rng),
                                  ReservoirOne(rng), ReservoirOne(rng),
                                  ReservoirOne(rng), ReservoirOne(rng),
                                  ReservoirOne(rng), ReservoirOne(rng)};
    index_->for_each_replica_within(origin, file, radius,
                                    [&](NodeId v, Hop) {
                                      for (std::uint32_t i = 0; i < d; ++i) {
                                        reservoirs[i].offer(v);
                                      }
                                    });
    if (reservoirs[0].count() == 0) return 0;
    for (std::uint32_t i = 0; i < d; ++i) out[i] = *reservoirs[i].value();
    return d;
  }
  ReservoirK reservoir(rng, options_.num_choices);
  index_->for_each_replica_within(origin, file, radius,
                                  [&](NodeId v, Hop) { reservoir.offer(v); });
  const auto sample = reservoir.sample();
  for (std::size_t i = 0; i < sample.size(); ++i) out[i] = sample[i];
  return static_cast<std::uint32_t>(sample.size());
}

void TwoChoiceStrategy::propose(const Request& request, Rng& rng,
                                CandidateArena& arena, Proposal& out) {
  const Topology& topology = index_->topology();
  out.first = static_cast<std::uint32_t>(arena.size());

  NodeId candidates[8];
  Hop radius = options_.radius;
  // (1+β): occasionally skip the comparison entirely and take one uniform
  // candidate. The draw happens before sampling so the Rng stream stays
  // aligned across β values with the same seed.
  const std::uint32_t saved_choices = options_.num_choices;
  if (options_.beta < 1.0 && !rng.bernoulli(options_.beta)) {
    options_.num_choices = 1;
  }
  std::uint32_t found = sample_candidates(request.origin, request.file,
                                          radius, rng, candidates);
  options_.num_choices = saved_choices;

  while (found == 0) {
    // Fallback paths; the paper's good regime makes these measure-zero, but
    // the simulator must be total. All of them are load-independent, so the
    // whole ladder lives in the propose phase.
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
        radius = next_fallback_radius(radius, diameter);
        found = sample_candidates(request.origin, request.file, radius, rng,
                                  candidates);
        if (found == 0 && radius >= diameter) {
          PROXCACHE_CHECK(false,
                          "uncached file reached the strategy; "
                          "SanitizingTraceSource must run first");
        }
        break;
      }
    }
  }

  if (observer_ && found >= 2) {
    observer_(std::span<const NodeId>(candidates, found));
  }

  for (std::uint32_t i = 0; i < found; ++i) {
    arena.push_back({candidates[i],
                     topology.distance(request.origin, candidates[i]), 0.0});
  }
  out.count = found;
}

Assignment TwoChoiceStrategy::choose(const Request& request,
                                     const Proposal& proposal,
                                     CandidateArena& arena,
                                     const LoadView& loads, Rng& rng) const {
  (void)request;
  if (proposal.decided) return decided_assignment(proposal);
  Assignment assignment;
  assignment.fallback = proposal.fallback;

  // Least-loaded candidate, uniform among ties (single-pass reservoir).
  const ProposedCandidate* candidates = arena.data() + proposal.first;
  NodeId chosen = candidates[0].node;
  Hop hops = candidates[0].hops;
  Load best = loads.load(chosen);
  std::uint32_t ties = 1;
  for (std::uint32_t i = 1; i < proposal.count; ++i) {
    const Load load = loads.load(candidates[i].node);
    if (load < best) {
      best = load;
      chosen = candidates[i].node;
      hops = candidates[i].hops;
      ties = 1;
    } else if (load == best) {
      ++ties;
      if (rng.below(ties) == 0) {
        chosen = candidates[i].node;
        hops = candidates[i].hops;
      }
    }
  }
  assignment.server = chosen;
  assignment.hops = hops;
  return assignment;
}

}  // namespace proxcache
