#include "strategy/prox_weighted.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>

#include "util/contracts.hpp"

namespace proxcache {

namespace {

/// The nearest candidate not yet `picked`, uniform among equal distances.
std::uint32_t nearest_unpicked(const ProposedCandidate* candidates,
                               std::uint32_t count,
                               std::span<const std::uint32_t> picked,
                               Rng& rng) {
  std::uint32_t winner = count;
  Hop best = 0;
  std::uint32_t ties = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (std::find(picked.begin(), picked.end(), i) != picked.end()) continue;
    const Hop d = candidates[i].hops;
    if (ties == 0 || d < best) {
      winner = i;
      best = d;
      ties = 1;
    } else if (d == best && rng.below(++ties) == 0) {
      winner = i;
    }
  }
  return winner;
}

}  // namespace

ProxWeightedStrategy::ProxWeightedStrategy(const ReplicaIndex& index,
                                           ProxWeightedOptions options)
    : index_(&index), options_(options) {
  PROXCACHE_REQUIRE(options.num_choices >= 1 && options.num_choices <= 8,
                    "num_choices must be in [1, 8]");
  PROXCACHE_REQUIRE(options.alpha >= 0.0, "alpha must be >= 0");
  const Hop top = std::min(index.topology().diameter(), kWeightTableHops);
  weights_.resize(static_cast<std::size_t>(top) + 1);
  for (Hop d = 0; d <= top; ++d) weights_[d] = pow_weight(d);
}

double ProxWeightedStrategy::pow_weight(Hop d) const {
  return std::pow(1.0 + static_cast<double>(d), -options_.alpha);
}

std::string ProxWeightedStrategy::name() const {
  std::ostringstream os;
  os << "prox-weighted(d=" << options_.num_choices << ", alpha="
     << options_.alpha << ")";
  return os.str();
}

void ProxWeightedStrategy::propose(const Request& request, Rng& rng,
                                   CandidateArena& arena, Proposal& out) {
  (void)rng;  // weight computation is deterministic; draws happen in choose

  // Weight every replica by (1 + dist)^-alpha; the +1 keeps a co-located
  // replica (dist 0) at finite weight. The chunks run down the replica
  // list in order, so the left-to-right sum is the historical pass's
  // bit-identical `total_weight`. The window grows by push_back: a resize
  // first, then writes through a pointer, raised the sharded engine's peak
  // RSS by ~14%.
  out.first = static_cast<std::uint32_t>(arena.size());
  double total = 0.0;
  index_->for_each_distance_chunk(
      request.origin, request.file,
      [&](std::span<const NodeId> ids, std::span<const Hop> hops) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const double w = weight(hops[i]);
          arena.push_back({ids[i], hops[i], w});
          total += w;
        }
      });
  out.count = static_cast<std::uint32_t>(arena.size()) - out.first;
  PROXCACHE_CHECK(out.count > 0,
                  "uncached file reached the strategy; "
                  "SanitizingTraceSource must run first");
  out.total_weight = total;
}

Assignment ProxWeightedStrategy::choose(const Request& request,
                                        const Proposal& proposal,
                                        CandidateArena& arena,
                                        const LoadView& loads,
                                        Rng& rng) const {
  (void)request;
  Assignment assignment;
  assignment.fallback = proposal.fallback;

  // Draw up to d distinct candidates by repeated weighted selection,
  // zeroing each winner's weight in the arena window (the window is this
  // request's scratch). O(d·|S_j|), matching the cost of the
  // radius-constrained reservoir pass in Strategy II.
  ProposedCandidate* candidates = arena.data() + proposal.first;
  const std::uint32_t count = proposal.count;
  double total = proposal.total_weight;
  const std::uint32_t want = std::min(options_.num_choices, count);
  std::uint32_t picked[8];
  NodeId chosen = kInvalidNode;
  Hop chosen_hops = 0;
  Load best = 0;
  std::uint32_t ties = 0;
  for (std::uint32_t pick = 0; pick < want; ++pick) {
    double u = rng.uniform() * total;
    std::uint32_t winner = count;  // last positive weight wins on rounding
    for (std::uint32_t i = 0; i < count; ++i) {
      if (candidates[i].weight <= 0.0) continue;
      winner = i;
      u -= candidates[i].weight;
      if (u < 0.0) break;
    }
    if (winner == count) {
      // Every remaining weight underflowed to 0.0.
      winner = nearest_unpicked(candidates, count, {picked, pick}, rng);
    }
    picked[pick] = winner;
    total -= candidates[winner].weight;
    candidates[winner].weight = 0.0;

    // Least-loaded among the sampled set, uniform among ties — streamed so
    // no candidate array is needed.
    const NodeId v = candidates[winner].node;
    const Load load = loads.load(v);
    if (pick == 0 || load < best) {
      chosen = v;
      chosen_hops = candidates[winner].hops;
      best = load;
      ties = 1;
    } else if (load == best) {
      ++ties;
      if (rng.below(ties) == 0) {
        chosen = v;
        chosen_hops = candidates[winner].hops;
      }
    }
  }
  assignment.server = chosen;
  assignment.hops = chosen_hops;
  return assignment;
}

}  // namespace proxcache
