// Scalable distance layer (graph/distance_oracle.hpp): the sparse regime
// (on-demand truncated BFS + landmark upper bounds) must agree with the
// dense all-pairs matrix wherever it claims exactness, answer
// history-independently (no query order, row replacement or thread
// interleaving may change a result), keep shells exact and id-sorted in
// both regimes, walk them filtered by candidates exactly as per-shell
// queries would, answer four threads at once as it answers one, and
// reject over-deep graphs with a user-facing error instead of an internal
// assertion. The landmark approximation is checked against exact BFS on
// every registered topology at small n.
#include "graph/distance_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "topology/graph_topology.hpp"
#include "topology/hyperbolic.hpp"
#include "topology/registry.hpp"
#include "topology/spec.hpp"

namespace proxcache {
namespace {

/// CSR graph from any topology's distance-1 shells — lets the oracle be
/// exercised on lattices, rings and trees too, not just native graphs.
CompactGraph graph_from(const Topology& topology) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (NodeId u = 0; u < topology.size(); ++u) {
    for (const NodeId v : topology.neighbors(u)) {
      if (v > u) {
        edges.emplace_back(static_cast<std::uint32_t>(u),
                           static_cast<std::uint32_t>(v));
      }
    }
  }
  return CompactGraph::from_edges(
      static_cast<std::uint32_t>(topology.size()), std::move(edges));
}

DistanceOracle::Options sparse_exact_options(std::size_t n) {
  DistanceOracle::Options options;
  options.dense_threshold = 0;        // force the sparse machinery
  options.distance_ball_budget = n;   // ...with full exactness
  return options;
}

TEST(DistanceOracle, SparseAgreesWithDenseEverywhereWithinBudget) {
  const auto rgg = make_rgg_topology(180, 0.14, 21);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  const DistanceOracle dense(graph, DistanceOracle::Options{});
  ASSERT_TRUE(dense.exact());
  const DistanceOracle sparse(graph, sparse_exact_options(n));
  ASSERT_FALSE(sparse.exact());

  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(sparse.distance(u, v), dense.distance(u, v))
          << "pair (" << u << ", " << v << ")";
      const auto certified = sparse.certified_distance(u, v);
      ASSERT_TRUE(certified.has_value()) << "budget covers the whole graph";
      EXPECT_EQ(*certified, dense.distance(u, v));
    }
  }
  EXPECT_EQ(sparse.diameter(), dense.diameter());
  EXPECT_TRUE(sparse.diameter_is_exact());
  EXPECT_EQ(sparse.stats().landmark_answers, 0u)
      << "budget >= n must never fall back to landmarks";
}

TEST(DistanceOracle, ShellsAreExactAndIdSortedInBothRegimes) {
  const auto rgg = make_rgg_topology(150, 0.16, 4);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  const DistanceOracle dense(graph, DistanceOracle::Options{});
  const std::vector<NodeId> origins = {0, static_cast<NodeId>(n / 2),
                                       static_cast<NodeId>(n - 1)};

  // Shells of `u` from depth 0 up (or from the deepest down) against the
  // dense row scan, element by element, with their sizes and ball sizes.
  const auto expect_dense_shells = [&](const DistanceOracle& sparse,
                                       NodeId u, bool deepest_first,
                                       const std::string& label) {
    const Hop top = dense.diameter() + 1;
    for (Hop step = 0; step <= top; ++step) {
      const Hop d = deepest_first ? top - step : step;
      std::vector<NodeId> from_dense;
      std::vector<NodeId> from_sparse;
      dense.visit_shell(u, d, [&](NodeId v) { from_dense.push_back(v); });
      sparse.visit_shell(u, d, [&](NodeId v) { from_sparse.push_back(v); });
      EXPECT_EQ(from_sparse, from_dense)
          << label << ": shell d=" << d << " of " << u
          << " must match the dense row scan element-wise";
      EXPECT_TRUE(std::is_sorted(from_sparse.begin(), from_sparse.end()))
          << label << ": shells enumerate in increasing node-id order";
      EXPECT_EQ(sparse.shell_size(u, d), from_dense.size()) << label;
      EXPECT_EQ(sparse.ball_size(u, d), dense.ball_size(u, d)) << label;
    }
  };

  // Ball budgets: 8 stores the origin alone and streams every other
  // shell past the horizon; 120 stores three levels from each origin (the
  // third one in BFS discovery order, unlike a lone neighbour list) and
  // streams the rest; n stores every level. Shells must stay exact beyond
  // the distance horizon either way.
  for (const std::size_t budget : {std::size_t{8}, std::size_t{120}, n}) {
    DistanceOracle::Options options = sparse_exact_options(n);
    options.distance_ball_budget = budget;
    const std::string label = "budget " + std::to_string(budget);
    {
      // Shells first: each stored level is enumerated as it is built.
      const DistanceOracle sparse(graph, options);
      for (const NodeId u : origins) {
        expect_dense_shells(sparse, u, false, label + ", shells first");
      }
    }
    {
      // Rows grown first through `budget_ball_depth` and `distance`: every
      // stored level is in BFS discovery order, and each shell query sorts
      // a copy of it.
      const DistanceOracle sparse(graph, options);
      for (const NodeId u : origins) {
        const Hop horizon = sparse.budget_ball_depth(u);
        if (budget == 120) {
          EXPECT_EQ(horizon, 2u) << "u=" << u;
        }
        for (NodeId v = 0; v < n; ++v) (void)sparse.distance(u, v);
      }
      for (const NodeId u : origins) {
        expect_dense_shells(sparse, u, false, label + ", rows grown first");
      }
    }
    {
      // Rows grown first, then the deepest shell first: the first stored
      // shell asked for lies below levels nobody enumerated yet.
      const DistanceOracle sparse(graph, options);
      for (const NodeId u : origins) {
        for (NodeId v = 0; v < n; ++v) (void)sparse.distance(u, v);
        expect_dense_shells(sparse, u, true, label + ", deepest first");
      }
    }
  }
}

/// One `fn(d, hits)` call of a shell walk.
using WalkStep = std::pair<Hop, std::vector<NodeId>>;

TEST(DistanceOracle, WalkShellsMatchesFilteredShellsInBothRegimes) {
  const auto rgg = make_rgg_topology(150, 0.16, 4);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  const DistanceOracle dense(graph, DistanceOracle::Options{});
  ASSERT_TRUE(dense.exact());
  const Hop top = dense.diameter() + 1;
  std::vector<NodeId> origins;
  for (NodeId u = 0; u < n; u += 37) origins.push_back(u);
  origins.push_back(static_cast<NodeId>(n - 1));
  // Deepest non-empty shell of each origin: a walk may end past it.
  const auto eccentricity = [&](NodeId u) {
    Hop ecc = 0;
    for (Hop d = 0; d <= dense.diameter(); ++d) {
      if (dense.shell_size(u, d) > 0) ecc = d;
    }
    return ecc;
  };

  // Candidate sets from none to all: the few are shorter than most
  // levels (the sorted list is scanned against the marks), the many are
  // longer than every level (each level is filtered and its hits sorted).
  std::vector<std::vector<NodeId>> candidate_sets(5);
  for (NodeId v = 0; v < n; ++v) {
    if (v % 41 == 3) candidate_sets[1].push_back(v);
    if (v % 7 == 2) candidate_sets[2].push_back(v);
    if (v % 3 != 0) candidate_sets[3].push_back(v);
    candidate_sets[4].push_back(v);
  }

  // The walk from `walker` against `visit_shell` per depth from `twin`,
  // filtered by the same candidates and stopped at the same `fn` answer:
  // the same steps, and the same counters and resident entries after.
  const auto expect_walk = [&](const DistanceOracle& walker,
                               const DistanceOracle& twin, NodeId u,
                               Hop max_d, Hop stop,
                               const std::vector<NodeId>& sorted,
                               const std::string& label) {
    std::vector<bool> member(n, false);
    for (const NodeId v : sorted) member[v] = true;
    const auto contains = [&member](NodeId v) { return bool(member[v]); };

    std::vector<WalkStep> walked;
    walker.walk_shells(u, max_d, {sorted, contains},
                       [&](Hop d, std::span<const NodeId> hits) {
                         walked.emplace_back(
                             d, std::vector<NodeId>(hits.begin(), hits.end()));
                         return d < stop;
                       });
    std::vector<WalkStep> expected;
    for (Hop d = 0; d <= std::min(max_d, twin.diameter()); ++d) {
      std::vector<NodeId> hits;
      twin.visit_shell(u, d, [&](NodeId v) {
        if (member[v]) hits.push_back(v);
      });
      expected.emplace_back(d, std::move(hits));
      if (d >= stop) break;
    }

    // The walk may end once no node lies past d; every step it skipped
    // is an empty shell past the eccentricity.
    ASSERT_LE(walked.size(), expected.size()) << label;
    for (std::size_t i = 0; i < walked.size(); ++i) {
      EXPECT_EQ(walked[i], expected[i]) << label << ", step " << i;
    }
    for (std::size_t i = walked.size(); i < expected.size(); ++i) {
      EXPECT_GT(expected[i].first, eccentricity(u)) << label;
      EXPECT_TRUE(expected[i].second.empty()) << label;
    }
    const DistanceOracle::Stats a = walker.stats();
    const DistanceOracle::Stats b = twin.stats();
    EXPECT_EQ(a.rows_built, b.rows_built) << label;
    EXPECT_EQ(a.rows_evicted, b.rows_evicted) << label;
    EXPECT_EQ(a.exact_answers, b.exact_answers) << label;
    EXPECT_EQ(a.landmark_answers, b.landmark_answers) << label;
    EXPECT_EQ(walker.cached_entries(), twin.cached_entries()) << label;
  };

  // The dense regime, then ball budgets as in the shell test: 8 streams
  // nearly every shell, 120 stores three levels, n stores every level. A
  // new origin replaces the row of the oracle's one slot, so the origins
  // evict one another.
  std::vector<std::pair<std::string, DistanceOracle::Options>> regimes = {
      {"dense", DistanceOracle::Options{}}};
  for (const std::size_t budget : {std::size_t{8}, std::size_t{120}, n}) {
    DistanceOracle::Options options = sparse_exact_options(n);
    options.distance_ball_budget = budget;
    regimes.emplace_back("budget " + std::to_string(budget), options);
  }
  std::size_t filtered_levels = 0;  // level shorter than the candidates
  std::size_t scanned_levels = 0;   // candidates scanned against the marks
  std::vector<std::size_t> past_horizon;  // how far each stop lies past it
  for (const auto& [regime, options] : regimes) {
    const DistanceOracle walker(graph, options);
    const DistanceOracle twin(graph, options);
    const bool sparse = !walker.exact();
    ASSERT_EQ(sparse, regime != "dense");
    for (const NodeId u : origins) {
      const Hop horizon = walker.budget_ball_depth(u);
      (void)twin.budget_ball_depth(u);
      for (std::size_t c = 0; c < candidate_sets.size(); ++c) {
        const std::vector<NodeId>& sorted = candidate_sets[c];
        const std::string label = regime + ", u=" + std::to_string(u) +
                                  ", set " + std::to_string(c);
        for (Hop d = 0; d <= eccentricity(u) && sparse; ++d) {
          (dense.shell_size(u, d) < sorted.size() ? filtered_levels
                                                  : scanned_levels)++;
        }
        for (Hop s = 0; s <= top; ++s) {
          // Stopped by `fn` at every depth, then cut by `max_d` there.
          expect_walk(walker, twin, u, top, s,
                      sorted, label + ", stop " + std::to_string(s));
          expect_walk(walker, twin, u, s, kUnboundedRadius, sorted,
                      label + ", max_d " + std::to_string(s));
          if (sparse && s >= horizon && s <= eccentricity(u)) {
            past_horizon.push_back(s - horizon);
          }
        }
      }
    }
  }
  EXPECT_GT(filtered_levels, 0u);
  EXPECT_GT(scanned_levels, 0u);
  for (const std::size_t beyond : {0u, 1u, 2u, 3u}) {
    EXPECT_NE(std::find(past_horizon.begin(), past_horizon.end(), beyond),
              past_horizon.end())
        << "no walk ended " << beyond << " levels past the horizon";
  }
}

TEST(DistanceOracle, BatchedDistancesMatchPerPairQueries) {
  const auto rgg = make_rgg_topology(200, 0.12, 8);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  // Sparse, with constant eviction churn: every origin below replaces
  // the row its predecessor left in the slot.
  DistanceOracle::Options churned;
  churned.dense_threshold = 0;
  churned.distance_ball_budget = 24;  // most far pairs go to landmarks
  const DistanceOracle truth(graph, sparse_exact_options(n));

  for (const DistanceOracle::Options& options :
       {DistanceOracle::Options{}, churned}) {
    // One oracle answers pair by pair, the other in batches; both see the
    // same queries in the same order, shell and ball walks included.
    const DistanceOracle by_pair(graph, options);
    const DistanceOracle by_batch(graph, options);
    const DistanceOracle probe(graph, options);  // classifies pairs only
    const std::string regime = by_pair.exact() ? "dense" : "sparse";
    std::size_t straddling = 0;

    // Both oracles are in the same state: counters and resident entries.
    const auto expect_same_state = [&](const std::string& where) {
      const DistanceOracle::Stats a = by_pair.stats();
      const DistanceOracle::Stats b = by_batch.stats();
      EXPECT_EQ(a.rows_built, b.rows_built) << regime << where;
      EXPECT_EQ(a.rows_evicted, b.rows_evicted) << regime << where;
      EXPECT_EQ(a.exact_answers, b.exact_answers) << regime << where;
      EXPECT_EQ(a.landmark_answers, b.landmark_answers) << regime << where;
      EXPECT_EQ(by_pair.cached_entries(), by_batch.cached_entries())
          << regime << where;
    };
    const auto check = [&](NodeId u, const std::vector<NodeId>& ids) {
      std::vector<Hop> out(ids.size(), 12345);
      by_batch.distances(u, ids, out);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(out[i], by_pair.distance(u, ids[i]))
            << regime << " (" << u << ", " << ids[i] << ") at " << i;
      }
      expect_same_state(" after a batch of " + std::to_string(ids.size()) +
                        " from " + std::to_string(u));
    };

    for (NodeId u = 0; u < n; u += 3) {
      // Ids inside and outside u's budget ball, with u among them.
      std::vector<NodeId> inside;
      std::vector<NodeId> outside;
      for (NodeId v = 0; v < n; v += 5) {
        (probe.certified_distance(u, v) ? inside : outside).push_back(v);
      }
      std::vector<NodeId> mixed = {u};
      for (std::size_t i = 0; i < std::max(inside.size(), outside.size());
           ++i) {
        if (i < outside.size()) mixed.push_back(outside[i]);
        if (i < inside.size()) mixed.push_back(inside[i]);
        if (i == 2) mixed.push_back(u);
      }
      if (!by_pair.exact() && !inside.empty() && !outside.empty()) {
        ++straddling;
      }

      check(u, {});       // empty
      check(u, {u});      // the origin alone: no row is built
      check(u, {u, u});
      check(u, mixed);    // straddles the horizon, the origin twice
      // A 64-id chunk of the list order a replica scan would use.
      std::vector<NodeId> chunk;
      for (std::size_t i = 0; i < 64; ++i) {
        chunk.push_back(static_cast<NodeId>((u * 37 + i * 11) % n));
      }
      check(u, chunk);
      if (u % 9 == 0) {
        // Deep walks bind streamed marks and grow other rows.
        (void)by_pair.ball_size(u, by_pair.diameter());
        (void)by_batch.ball_size(u, by_batch.diameter());
        const NodeId w = static_cast<NodeId>((u + n / 2) % n);
        (void)by_pair.budget_ball_depth(w);
        (void)by_batch.budget_ball_depth(w);
      }
    }

    expect_same_state(" at the end");
    const DistanceOracle::Stats stats = by_pair.stats();

    // The batch answers what the oracle promises, not just what the pair
    // path answers: exact inside the ball, never below the truth outside.
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), NodeId{0});
    for (NodeId u = 1; u < n; u += 17) {
      std::vector<Hop> out(n);
      by_batch.distances(u, all, out);
      for (NodeId v = 0; v < n; ++v) {
        if (by_batch.exact() || probe.certified_distance(u, v)) {
          EXPECT_EQ(out[v], truth.distance(u, v)) << regime;
        } else {
          EXPECT_GE(out[v], truth.distance(u, v)) << regime;
        }
      }
    }
    if (by_pair.exact()) {
      EXPECT_EQ(stats.exact_answers + stats.landmark_answers +
                    stats.rows_built,
                0u)
          << "the dense regime keeps no counters";
    } else {
      EXPECT_GT(stats.rows_evicted, 0u) << "new origins must replace rows";
      EXPECT_EQ(stats.rows_built, stats.rows_evicted + 1)
          << "a serial caller keeps one slot, so one row stays resident";
      EXPECT_GT(stats.landmark_answers, 0u);
      EXPECT_GT(straddling, 0u) << "some batches must straddle the horizon";
    }
    {
      // The origin is at distance 0 without a row: a batch of nothing
      // else builds none.
      const DistanceOracle fresh(graph, options);
      std::vector<Hop> out(2, 7);
      fresh.distances(5, std::vector<NodeId>{5, 5}, out);
      EXPECT_EQ(out, (std::vector<Hop>{0, 0})) << regime;
      EXPECT_EQ(fresh.stats().rows_built, 0u) << regime;
      EXPECT_EQ(fresh.cached_entries(), 0u) << regime;
    }
    std::vector<Hop> short_out(1);
    EXPECT_THROW(by_batch.distances(0, std::vector<NodeId>{1, 2}, short_out),
                 std::invalid_argument);
  }
}

TEST(DistanceOracle, AnswersAreHistoryIndependent) {
  const auto rgg = make_rgg_topology(200, 0.12, 8);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  DistanceOracle::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = 24;  // most far pairs go to landmarks
  const DistanceOracle churned(graph, options);

  // Warm the churned oracle through an adversarial access pattern: deep
  // shell walks (streamed far beyond the budget ball), then scattered
  // distance queries, each from a new origin that replaces the row the
  // last one left.
  for (NodeId u = 0; u < n; u += 7) {
    (void)churned.ball_size(u, churned.diameter());
  }
  for (NodeId u = 0; u < n; ++u) {
    (void)churned.distance(u, (u * 31 + 5) % n);
  }
  EXPECT_GT(churned.stats().rows_evicted, 0u)
      << "every new origin must replace the slot's row";

  // Every answer must equal the one a *fresh* oracle gives first thing:
  // exactness is a function of the graph and the budget, never of what
  // was asked before or which row the slot kept.
  const DistanceOracle fresh(graph, options);
  for (NodeId u = 0; u < n; u += 3) {
    for (NodeId v = 0; v < n; v += 5) {
      EXPECT_EQ(churned.distance(u, v), fresh.distance(u, v))
          << "pair (" << u << ", " << v << ")";
      EXPECT_EQ(churned.certified_distance(u, v).has_value(),
                fresh.certified_distance(u, v).has_value())
          << "exactness horizon drifted for (" << u << ", " << v << ")";
    }
  }
}

/// Every value a script of oracle queries saw, in order, with markers
/// that no node id or hop count can equal.
using Transcript = std::vector<std::uint64_t>;
constexpr std::uint64_t kThrew = ~std::uint64_t{0};
constexpr std::uint64_t kUncertified = kThrew - 1;
constexpr std::uint64_t kEndOfShell = kThrew - 2;

TEST(DistanceOracle, ConcurrentQueriesMatchASerialReference) {
  const auto rgg = make_rgg_topology(200, 0.12, 8);
  const CompactGraph& graph = rgg->graph();
  const auto n = static_cast<NodeId>(graph.num_vertices());
  constexpr std::size_t kThreads = 4;

  // Thread t's script: every call from a new origin, cycling through the
  // sparse queries, with walks, shells and balls reaching past the
  // horizon. Thread 0 passes an out-of-range id partway through a batch
  // that already holds its slot; thread 1's walk visitor throws on its
  // first streamed level. Both calls throw, and the scripts go on.
  const auto script = [n](const DistanceOracle& oracle, std::size_t t) {
    std::vector<bool> member(n, false);
    std::vector<NodeId> sorted;
    for (NodeId v = 0; v < n; ++v) {
      if (v % (t + 3) == 1) {
        member[v] = true;
        sorted.push_back(v);
      }
    }
    const auto contains = [&member](NodeId v) { return bool(member[v]); };
    const Hop top = oracle.diameter() + 1;
    Transcript seen;
    for (std::size_t i = 0; i < 490; ++i) {
      const auto u = static_cast<NodeId>((i * 53 + t * 101) % n);
      const auto v = static_cast<NodeId>((i * 29 + t * 7 + 1) % n);
      const auto d = static_cast<Hop>((i + t) % top);
      switch (i % 7) {
        case 0: {
          std::vector<NodeId> ids;
          for (NodeId k = 0; k < 64; ++k) ids.push_back((v + k * 13) % n);
          if (t == 0 && i == 70) ids[5] = n;
          std::vector<Hop> out(ids.size());
          try {
            oracle.distances(u, ids, out);
            seen.insert(seen.end(), out.begin(), out.end());
          } catch (const std::invalid_argument&) {
            seen.push_back(kThrew);
          }
          break;
        }
        case 1:
          seen.push_back(oracle.distance(u, v));
          break;
        case 2: {
          const std::optional<Hop> certified = oracle.certified_distance(u, v);
          seen.push_back(certified ? *certified : kUncertified);
          break;
        }
        case 3: {
          const bool throws = t == 1 && i == 73;
          const Hop horizon = oracle.budget_ball_depth(u);
          try {
            oracle.walk_shells(u, top, {sorted, contains},
                               [&](Hop depth, std::span<const NodeId> hits) {
                                 if (throws && depth > horizon) {
                                   throw std::runtime_error("visitor");
                                 }
                                 seen.push_back(depth);
                                 seen.insert(seen.end(), hits.begin(),
                                             hits.end());
                                 seen.push_back(kEndOfShell);
                                 return throws || depth < d;
                               });
          } catch (const std::runtime_error&) {
            seen.push_back(kThrew);
          }
          break;
        }
        case 4:
          oracle.visit_shell(u, d, [&](NodeId w) { seen.push_back(w); });
          seen.push_back(kEndOfShell);
          break;
        case 5:
          seen.push_back(oracle.ball_size(u, d));
          break;
        default:
          seen.push_back(oracle.budget_ball_depth(u));
          break;
      }
    }
    return seen;
  };

  // Ball budgets 8 and 120, as in the shell test: walks and shells stream
  // past a horizon at depth 0 to 2.
  for (const std::size_t budget : {std::size_t{8}, std::size_t{120}}) {
    DistanceOracle::Options options;
    options.dense_threshold = 0;
    options.distance_ball_budget = budget;
    const std::string label = "budget " + std::to_string(budget);
    const DistanceOracle reference(graph, options);
    std::vector<Transcript> expected;
    for (std::size_t t = 0; t < kThreads; ++t) {
      expected.push_back(script(reference, t));
    }

    const DistanceOracle shared(graph, options);
    std::vector<Transcript> seen(kThreads);
    {
      std::latch start(kThreads);
      std::vector<std::jthread> threads;
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          start.arrive_and_wait();
          seen[t] = script(shared, t);
        });
      }
    }
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t], expected[t])
          << label << ": thread " << t << " saw other answers, shells or hit "
          << "orders than the serial reference";
    }
    EXPECT_EQ(std::count(seen[0].begin(), seen[0].end(), kThrew), 1) << label;
    EXPECT_EQ(std::count(seen[1].begin(), seen[1].end(), kThrew), 1) << label;

    // Each lease folded its counters in as it ended, the two that threw
    // too: the answers split between the ball and the landmarks as the
    // reference's did. Resident entries <= slots × distance_ball_budget,
    // with at most one slot per thread.
    const DistanceOracle::Stats a = shared.stats();
    const DistanceOracle::Stats b = reference.stats();
    EXPECT_EQ(a.exact_answers, b.exact_answers) << label;
    EXPECT_EQ(a.landmark_answers, b.landmark_answers) << label;
    EXPECT_GT(a.landmark_answers, 0u) << label;
    EXPECT_LE(shared.cached_entries(), kThreads * budget) << label;
  }
}

TEST(DistanceOracle, CertifiedDistancesAreExactAndBoundsNeverUnderestimate) {
  const auto rgg = make_rgg_topology(220, 0.11, 13);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  const DistanceOracle reference(graph, sparse_exact_options(n));
  DistanceOracle::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = 16;
  options.num_landmarks = 8;
  const DistanceOracle oracle(graph, options);

  std::uint64_t approximated = 0;
  for (NodeId u = 0; u < n; u += 2) {
    for (NodeId v = 0; v < n; v += 3) {
      const Hop exact = reference.distance(u, v);
      const Hop answer = oracle.distance(u, v);
      const auto certified = oracle.certified_distance(u, v);
      if (certified.has_value()) {
        EXPECT_EQ(*certified, exact) << "(" << u << ", " << v << ")";
        EXPECT_EQ(answer, exact);
      } else {
        EXPECT_GE(answer, exact)
            << "landmark estimates are upper bounds, never below the truth";
        EXPECT_LE(answer, 2 * oracle.diameter());
        ++approximated;
      }
    }
  }
  EXPECT_GT(approximated, 0u)
      << "a 16-node ball budget must push far pairs to the landmark path";
  EXPECT_GE(oracle.diameter(), reference.diameter())
      << "diameter may be an upper bound but never an underestimate";
}

TEST(DistanceOracle, LandmarkBoundHoldsOnEveryRegisteredTopology) {
  // One small spec per registered topology; the completeness assertion
  // below forces this table to grow with the registry.
  const std::map<std::string, std::string> small_specs = {
      {"torus", "torus(side=6)"},
      {"grid", "grid(side=6)"},
      {"ring", "ring(n=48)"},
      {"tree", "tree(branching=3, depth=3)"},
      {"rgg", "rgg(n=64, radius=0.22, seed=3)"},
      {"hyperbolic", "hyperbolic(n=64, degree=6, alpha=0.8, seed=2)"},
      {"clique", "clique(n=24)"},
  };
  const TopologyRegistry& registry = TopologyRegistry::built_ins();
  for (const TopologyEntry& entry : registry.all()) {
    ASSERT_TRUE(small_specs.count(entry.name))
        << "new topology '" << entry.name
        << "' needs a row in the landmark-bound suite";
  }

  for (const auto& [name, spec] : small_specs) {
    const auto topology = registry.make(parse_topology_spec(spec));
    const CompactGraph graph = graph_from(*topology);
    const std::size_t n = graph.num_vertices();
    const DistanceOracle exact(graph, sparse_exact_options(n));
    DistanceOracle::Options options;
    options.dense_threshold = 0;
    options.distance_ball_budget = 4;  // landmark path for most pairs
    options.num_landmarks = 6;
    const DistanceOracle oracle(graph, options);

    double total_error = 0.0;
    std::size_t pairs = 0;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        const Hop truth = exact.distance(u, v);
        const Hop bound = oracle.landmark_upper_bound(u, v);
        ASSERT_GE(bound, truth) << spec << " (" << u << ", " << v << ")";
        ASSERT_LE(bound, 2 * exact.diameter()) << spec;
        total_error += static_cast<double>(bound - truth) /
                       static_cast<double>(truth);
        ++pairs;
      }
    }
    // Loose locked ceiling: farthest-point landmarks keep the *mean*
    // relative overestimate below one diameter-hop of slack on every
    // catalog topology. Small-diameter expanders (hyperbolic) sit highest
    // — truth 1 vs bound 2 already costs 100% — so the ceiling only
    // catches gross regressions, not model-level looseness.
    EXPECT_LE(total_error / static_cast<double>(pairs), 1.0) << spec;
  }
}

TEST(DistanceOracle, OverDeepGraphsThrowNamingTheSourceVertex) {
  // A path longer than the uint16 distance range: the old dense code
  // tripped an internal assertion; the contract is now a user-facing
  // std::invalid_argument naming the BFS source.
  const std::uint32_t n = 70'000;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(n - 1);
  for (std::uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  CompactGraph path = CompactGraph::from_edges(n, std::move(edges));
  try {
    const DistanceOracle oracle(path, DistanceOracle::Options{});
    FAIL() << "a 70k-vertex path exceeds uint16 distances and must throw";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("vertex 0"), std::string::npos)
        << "message must name the offending source: " << message;
    EXPECT_NE(message.find("65534"), std::string::npos)
        << "message must state the storage limit: " << message;
  }
}

TEST(DistanceOracle, DisconnectedGraphsAreRejectedInBothRegimes) {
  CompactGraph split_small = CompactGraph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(DistanceOracle(split_small, DistanceOracle::Options{}),
               std::invalid_argument);
  CompactGraph split_again = CompactGraph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(DistanceOracle(split_again, sparse_exact_options(4)),
               std::invalid_argument);
}

TEST(DistanceOracle, NewOriginsReplaceTheRowWithoutChangingAnswers) {
  const auto rgg = make_rgg_topology(160, 0.15, 30);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  const DistanceOracle oracle(graph, sparse_exact_options(n));
  const DistanceOracle reference(graph, sparse_exact_options(n));

  // Every query comes from a new origin, whose row replaces the one the
  // last query left in the serial caller's slot.
  const auto far = [n](NodeId u) { return static_cast<NodeId>((u + n / 2) % n); };
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(oracle.distance(u, far(u)), reference.distance(u, far(u)));
  }
  const DistanceOracle::Stats stats = oracle.stats();
  EXPECT_EQ(stats.rows_built, static_cast<std::uint64_t>(n));
  EXPECT_EQ(stats.rows_evicted, static_cast<std::uint64_t>(n - 1));
  EXPECT_EQ(stats.landmark_answers, 0u);
  // Resident entries <= slots × distance_ball_budget: one slot here,
  // holding the last origin's ball, grown until the queried node turned up.
  const NodeId last = static_cast<NodeId>(n - 1);
  EXPECT_EQ(oracle.cached_entries(),
            reference.ball_size(last, reference.distance(last, far(last))));
  EXPECT_LE(oracle.cached_entries(), oracle.options().distance_ball_budget);
}

TEST(DistanceOracle, DeepBallWalksStreamWithoutGrowingResidentRows) {
  const auto rgg = make_rgg_topology(200, 0.12, 13);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  const DistanceOracle dense(graph, DistanceOracle::Options{});
  DistanceOracle::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = 16;
  const DistanceOracle sparse(graph, options);

  // A diameter-deep ball walk from every source stays exact (every node
  // visited exactly once per source across the shells), while resident
  // memory stays at the budget horizon: streamed levels never enter the
  // row, so the serial caller's one slot holds at most
  // slots × distance_ball_budget = 16 entries after every walk.
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(sparse.ball_size(u, dense.diameter()), n) << "source " << u;
    ASSERT_LE(sparse.cached_entries(), options.distance_ball_budget)
        << "source " << u;
  }
  for (const NodeId u : {static_cast<NodeId>(0), static_cast<NodeId>(n / 3)}) {
    std::size_t visited = 0;
    for (Hop d = 0; d <= dense.diameter(); ++d) {
      std::vector<NodeId> from_dense;
      std::vector<NodeId> from_sparse;
      dense.visit_shell(u, d, [&](NodeId v) { from_dense.push_back(v); });
      sparse.visit_shell(u, d, [&](NodeId v) { from_sparse.push_back(v); });
      EXPECT_EQ(from_sparse, from_dense) << "shell d=" << d << " of " << u;
      visited += from_sparse.size();
    }
    EXPECT_EQ(visited, n) << "shells of " << u << " must partition the graph";
  }

  // One row per origin change: n sources, then 0 and n / 3 again, each
  // replacing the row before it.
  EXPECT_LE(sparse.cached_entries(), options.distance_ball_budget);
  EXPECT_EQ(sparse.stats().rows_built, static_cast<std::uint64_t>(n + 2));
  EXPECT_EQ(sparse.stats().rows_evicted, static_cast<std::uint64_t>(n + 1));
}

}  // namespace
}  // namespace proxcache
