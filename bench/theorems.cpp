// Theorems 1-4 and 6, Lemmas 1 and 3, Remark 2 and the examples of §IV.
// Each claim sweeps the theorem's parameters and checks the predicted
// growth or bound; paper.cpp's table quotes the setup and shape.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <unordered_map>
#include <vector>

#include "ballsbins/processes.hpp"
#include "ballsbins/theory.hpp"
#include "catalog/placement.hpp"
#include "catalog/popularity.hpp"
#include "claims.hpp"
#include "core/cost_model.hpp"
#include "core/two_choice.hpp"
#include "graph/config_graph.hpp"
#include "random/alias_sampler.hpp"
#include "random/seeding.hpp"
#include "spatial/replica_index.hpp"
#include "spatial/voronoi.hpp"
#include "stats/regression.hpp"
#include "stats/scaling.hpp"
#include "stats/summary.hpp"

namespace proxcache::bench {

// Fits the measured max-load series against candidate growth laws and
// reports the R² ranking; log n (or the near-collinear log n / log log n)
// must win.
void thm1_nearest_log_growth(ClaimContext& ctx) {
  const std::vector<std::size_t> node_counts = {100,  400,  1024, 2500,
                                                4900, 8100, 16384};
  const std::vector<double> epsilons = {0.3, 0.5};

  Table table({"n", "K(eps=0.3)", "L(eps=0.3)", "K(eps=0.5)", "L(eps=0.5)",
               "ln n"});
  std::vector<std::vector<double>> series(epsilons.size());

  for (const std::size_t n : node_counts) {
    std::vector<Cell> row = {Cell(static_cast<std::int64_t>(n))};
    for (std::size_t ei = 0; ei < epsilons.size(); ++ei) {
      const auto k = static_cast<std::size_t>(
          std::round(std::pow(static_cast<double>(n), 1.0 - epsilons[ei])));
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
      config.num_files = std::max<std::size_t>(k, 2);
      config.cache_size = 1;  // M = Θ(1)
      config.strategy_spec = parse_strategy_spec("nearest");
      const ExperimentResult result = ctx.run(config);
      series[ei].push_back(result.max_load.mean());
      row.emplace_back(static_cast<std::int64_t>(config.num_files));
      row.emplace_back(result.max_load.mean(), 2);
    }
    row.emplace_back(ballsbins::log_reference(n), 2);
    table.add_row(std::move(row));
  }
  ctx.print(table);

  std::vector<double> ns(node_counts.begin(), node_counts.end());
  bool ok = true;
  for (std::size_t ei = 0; ei < epsilons.size(); ++ei) {
    const ScalingReport report = classify_growth(ns, series[ei]);
    const bool law_ok = report.best == GrowthLaw::Log ||
                        report.best == GrowthLaw::LogOverLogLog ||
                        report.best == GrowthLaw::LogLog;
    ok &= law_ok;
    std::cout << "eps=" << epsilons[ei] << ": best fit '"
              << to_string(report.best)
              << "', R2(log n) = " << report.r2_of(GrowthLaw::Log)
              << ", R2(sqrt n) = " << report.r2_of(GrowthLaw::Sqrt) << "\n";
  }
  ctx.verdict(ok, "Strategy I max load tracks a logarithmic-family growth law");
}

// Prints the two theoretical envelopes next to the measured series.
void thm2_nearest_sublinear_mem(ClaimContext& ctx) {
  const std::vector<std::size_t> node_counts = {256, 625, 1296, 2500, 4900,
                                                8100};
  const std::vector<double> alphas = {0.25, 0.4};

  Table table({"n", "M(a=.25)", "L(a=.25)", "M(a=.4)", "L(a=.4)",
               "ln n/lnln n", "ln n"});
  std::vector<std::vector<double>> series(alphas.size());

  for (const std::size_t n : node_counts) {
    std::vector<Cell> row = {Cell(static_cast<std::int64_t>(n))};
    for (std::size_t ai = 0; ai < alphas.size(); ++ai) {
      const auto m = std::max<std::size_t>(
          2, static_cast<std::size_t>(
                 std::round(std::pow(static_cast<double>(n), alphas[ai]))));
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
      config.num_files = n;  // K = n
      config.cache_size = m;
      config.strategy_spec = parse_strategy_spec("nearest");
      const ExperimentResult result = ctx.run(config);
      series[ai].push_back(result.max_load.mean());
      row.emplace_back(static_cast<std::int64_t>(m));
      row.emplace_back(result.max_load.mean(), 2);
    }
    row.emplace_back(ballsbins::one_choice_reference(n), 2);
    row.emplace_back(ballsbins::log_reference(n), 2);
    table.add_row(std::move(row));
  }
  ctx.print(table);

  // Growth-law check: the measured series must be in the logarithmic family
  // (log/loglog and log are nearly collinear at these n; either passes) and
  // emphatically not sqrt-or-faster.
  std::vector<double> ns(node_counts.begin(), node_counts.end());
  bool ok = true;
  for (std::size_t ai = 0; ai < alphas.size(); ++ai) {
    const ScalingReport report = classify_growth(ns, series[ai]);
    const bool law_ok = report.best == GrowthLaw::Log ||
                        report.best == GrowthLaw::LogOverLogLog ||
                        report.best == GrowthLaw::LogLog ||
                        report.best == GrowthLaw::Constant;
    ok &= law_ok;
    std::cout << "alpha=" << alphas[ai] << ": best fit '"
              << to_string(report.best)
              << "', R2(log n) = " << report.r2_of(GrowthLaw::Log) << "\n";
  }
  ctx.verdict(ok, "max load stays in the [log/loglog, log] envelope");
}

// Measures C across K for each γ and compares it with the exact
// finite-torus model and with the closed-form reference
// Σ p_j/sqrt(1-(1-p_j)^M) (Eq. 13-14), which encodes all regimes at finite K.
void thm3_cost_scaling(ClaimContext& ctx) {
  const std::vector<std::size_t> library_sizes = {250, 500, 1000, 2000};
  const std::vector<double> gammas = {0.5, 1.0, 1.5, 2.0, 2.5};
  const std::size_t cache_size = 2;  // M = Θ(1) per the Zipf branch

  bool all_ok = true;
  // Uniform first, then each gamma.
  for (int which = -1; which < static_cast<int>(gammas.size()); ++which) {
    const bool uniform = which < 0;
    const double gamma = uniform ? 0.0 : gammas[static_cast<std::size_t>(which)];
    Table table({"K", "measured C", "exact model", "asymptotic (scaled)"});
    std::vector<double> measured;
    std::vector<double> reference;
    std::vector<double> asymptotic;
    const Lattice lattice = Lattice::from_node_count(2025, Wrap::Torus);
    for (const std::size_t k : library_sizes) {
      ExperimentConfig config;
      config.topology_spec = parse_topology_spec("torus(side=45)");
      config.num_files = k;
      config.cache_size = cache_size;
      config.strategy_spec = parse_strategy_spec("nearest");
      config.popularity.kind =
          uniform ? PopularityKind::Uniform : PopularityKind::Zipf;
      config.popularity.gamma = gamma;
      const ExperimentResult result = ctx.run(config);
      measured.push_back(result.comm_cost.mean());
      const Popularity popularity =
          uniform ? Popularity::uniform(k) : Popularity::zipf(k, gamma);
      // Exact finite-torus model (no free constant): accounts for absent
      // files (Resample redistribution) and diameter saturation — both
      // bite where the asymptotic Eq. 14 reference keeps growing.
      reference.push_back(
          nearest_cost_model(lattice, popularity, cache_size));
      asymptotic.push_back(nearest_cost_reference(popularity, cache_size));
    }
    const double scale_asym = measured[0] / asymptotic[0];
    for (std::size_t i = 0; i < library_sizes.size(); ++i) {
      table.add_row({Cell(static_cast<std::int64_t>(library_sizes[i])),
                     Cell(measured[i], 2), Cell(reference[i], 2),
                     Cell(asymptotic[i] * scale_asym, 2)});
    }
    std::cout << (uniform ? std::string("popularity: uniform — expect ") +
                                "Theta(sqrt(K/M))"
                          : "popularity: zipf(gamma=" + std::to_string(gamma) +
                                ") — expect " + theorem3_regime(gamma))
              << "\n";
    ctx.print(table);
    // Flat regimes (high gamma) have near-zero variance, where correlation
    // is meaningless; accept either strong correlation or a small relative
    // deviation from the exact finite model.
    const double rho = pearson(measured, reference);
    double max_rel = 0.0;
    for (std::size_t i = 0; i < measured.size(); ++i) {
      max_rel = std::max(max_rel,
                         std::abs(measured[i] - reference[i]) / measured[i]);
    }
    const bool ok = rho > 0.97 || max_rel < 0.10;
    all_ok &= ok;
    ctx.verdict(ok, "Pearson = " + std::to_string(rho) +
                        ", max relative gap = " + std::to_string(max_rel));
    std::cout << "\n";
  }
  ctx.verdict(all_ok, "all popularity regimes match Theorem 3");
}

namespace {

struct SweepResult {
  std::vector<double> max_load;
  std::vector<double> cost;
  std::vector<double> radius;
  std::vector<double> fallback_rate;
};

SweepResult sweep(const std::vector<std::size_t>& node_counts, double alpha,
                  double beta, const ClaimContext& ctx) {
  SweepResult out;
  for (const std::size_t n : node_counts) {
    const auto m = std::max<std::size_t>(
        2, static_cast<std::size_t>(
               std::round(std::pow(static_cast<double>(n), alpha))));
    const auto r = std::max<Hop>(
        1, static_cast<Hop>(
               std::round(std::pow(static_cast<double>(n), beta))));
    ExperimentConfig config;
    config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
    config.num_files = n;  // K = n
    config.cache_size = m;
    config.strategy_spec =
        StrategySpec{"two-choice", {{"r", static_cast<double>(r)}}};
    const ExperimentResult result = ctx.run(config);
    out.max_load.push_back(result.max_load.mean());
    out.cost.push_back(result.comm_cost.mean());
    out.radius.push_back(static_cast<double>(r));
    out.fallback_rate.push_back(result.fallback_rate);
  }
  return out;
}

}  // namespace

// The paper's headline result. Runs an in-regime sweep (α = 0.5, β = 0.45,
// α+2β = 1.4) and an out-of-regime sweep (α = 0.5, β = 0.15, α+2β = 0.8),
// contrasts their max-load growth and checks C = Θ(r) in the good regime.
void thm4_loglog_regime(ClaimContext& ctx) {
  const std::vector<std::size_t> node_counts = {625, 1600, 4096, 10000,
                                                23104};

  const SweepResult good = sweep(node_counts, 0.5, 0.45, ctx);
  const SweepResult bad = sweep(node_counts, 0.5, 0.15, ctx);

  Table table({"n", "r good", "L good", "C good", "C/r", "fb%", "r bad",
               "L bad", "lnln n"});
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    table.add_row(
        {Cell(static_cast<std::int64_t>(node_counts[i])),
         Cell(good.radius[i], 0), Cell(good.max_load[i], 2),
         Cell(good.cost[i], 2), Cell(good.cost[i] / good.radius[i], 3),
         Cell(good.fallback_rate[i] * 100.0, 2), Cell(bad.radius[i], 0),
         Cell(bad.max_load[i], 2),
         Cell(std::log(std::log(static_cast<double>(node_counts[i]))), 2)});
  }
  ctx.print(table);

  std::vector<double> ns(node_counts.begin(), node_counts.end());
  // (1) In-regime max load is flat-ish / log log-like: total growth over a
  // 37x range of n stays below 1.5 requests.
  const double good_growth = good.max_load.back() - good.max_load.front();
  // (2) In-regime cost tracks Θ(r): C/r ratio stable within 2x.
  double ratio_lo = 1e18;
  double ratio_hi = 0.0;
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const double ratio = good.cost[i] / good.radius[i];
    ratio_lo = std::min(ratio_lo, ratio);
    ratio_hi = std::max(ratio_hi, ratio);
  }
  // (3) Out-of-regime max load exceeds in-regime at the largest n.
  const bool separation =
      bad.max_load.back() > good.max_load.back() + 0.5;
  // (4) In-regime fallbacks are rare.
  const bool fallback_ok = good.fallback_rate.back() < 0.01;

  std::cout << "regime check: alpha+2beta = 1.4 vs threshold "
            << 1.0 + 2.0 * std::log(std::log(23104.0)) / std::log(23104.0)
            << " (holds: "
            << (ballsbins::theorem4_regime_holds(23104, 0.5, 0.45) ? "yes"
                                                                   : "no")
            << ")\n";
  ctx.verdict(good_growth < 1.5,
              "in-regime max load is ~flat (Theta(log log n))");
  ctx.verdict(ratio_hi / ratio_lo < 2.0,
              "in-regime communication cost is Theta(r)");
  ctx.verdict(separation, "out-of-regime (alpha+2beta<1) balances worse");
  ctx.verdict(fallback_ok, "in-regime fallbacks are negligible");
}

// With M = K every node caches the whole library, so an almost-free radius
// (β = Ω(log log n / log n)) already buys full balance. Fixes a small
// library cached everywhere (distinct placement) and sweeps tiny radii
// across n.
void thm6_full_memory_radius(ClaimContext& ctx) {
  const std::vector<std::size_t> node_counts = {400, 1600, 6400, 25600};
  const std::vector<Hop> radii = {2, 4, 8};
  const std::size_t library = 16;  // M = K = 16

  Table table({"n", "r", "max load", "lnln n", "cost", "cost/r", "2r/3"});
  bool flat_ok = true;
  bool cost_ok = true;
  for (const Hop r : radii) {
    std::vector<double> loads;
    for (const std::size_t n : node_counts) {
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
      config.num_files = library;
      config.cache_size = library;  // M = K
      config.placement_mode = PlacementMode::DistinctProportional;
      config.strategy_spec =
          StrategySpec{"two-choice", {{"r", static_cast<double>(r)}}};
      const ExperimentResult result = ctx.run(config);
      loads.push_back(result.max_load.mean());
      const double cost = result.comm_cost.mean();
      table.add_row(
          {Cell(static_cast<std::int64_t>(n)),
           Cell(static_cast<std::int64_t>(r)), Cell(loads.back(), 2),
           Cell(std::log(std::log(static_cast<double>(n))), 2),
           Cell(cost, 2), Cell(cost / static_cast<double>(r), 3),
           Cell(2.0 * static_cast<double>(r) / 3.0, 2)});
      // Cost must scale with r, not n: the mean distance of a uniform
      // point in the L1 ball of radius r is ~2r/3.
      cost_ok &= cost > 0.3 * static_cast<double>(r) &&
                 cost < 1.1 * static_cast<double>(r);
    }
    // Flatness in n at fixed r: a 64x larger torus should cost < 1.5 more.
    flat_ok &= (loads.back() - loads.front()) < 1.5;
  }
  ctx.print(table);

  ctx.verdict(flat_ok,
              "max load ~flat in n at every tiny radius (Theta(log log n))");
  ctx.verdict(cost_ok, "communication cost is Theta(r), not Theta(sqrt(n))");
}

// Builds placements across n, tessellates every file's replica set, and
// tracks the ratio max_cell / (K ln n / M), which must stay bounded and
// roughly constant (Θ for K = n^{1-ε}, M = Θ(1)).
void lemma1_voronoi_cells(ClaimContext& ctx) {
  const std::vector<std::size_t> node_counts = {400, 900, 2025, 4096, 8100};
  const double epsilon = 0.5;  // K = n^{1-eps} = sqrt(n), M = 1

  Table table({"n", "K", "mean max cell", "K ln n / M", "ratio",
               "mean cell dist"});
  bool bounded = true;
  std::vector<double> ratios;
  for (const std::size_t n : node_counts) {
    const auto k = static_cast<std::size_t>(
        std::round(std::pow(static_cast<double>(n), 1.0 - epsilon)));
    const Lattice lattice = Lattice::from_node_count(n, Wrap::Torus);
    Summary max_cells;
    Summary mean_dist;
    for (std::size_t run_index = 0; run_index < ctx.runs; ++run_index) {
      Rng rng(derive_seed(ctx.seed, {run_index, seed_phase::kPlacement}));
      const Placement placement = Placement::generate(
          n, Popularity::uniform(k), 1,
          PlacementMode::ProportionalWithReplacement, rng);
      std::size_t worst = 0;
      double dist_acc = 0.0;
      std::size_t files_seen = 0;
      for (FileId j = 0; j < k; ++j) {
        const auto replicas = placement.replicas(j);
        if (replicas.empty()) continue;
        const VoronoiTessellation voronoi(
            lattice, std::vector<NodeId>(replicas.begin(), replicas.end()));
        worst = std::max(worst, voronoi.max_cell_size());
        dist_acc += voronoi.mean_distance();
        ++files_seen;
      }
      max_cells.add(static_cast<double>(worst));
      if (files_seen > 0) {
        mean_dist.add(dist_acc / static_cast<double>(files_seen));
      }
    }
    const double envelope = static_cast<double>(k) *
                            std::log(static_cast<double>(n));
    const double ratio = max_cells.mean() / envelope;
    ratios.push_back(ratio);
    bounded &= ratio < 3.0;
    table.add_row({Cell(static_cast<std::int64_t>(n)),
                   Cell(static_cast<std::int64_t>(k)),
                   Cell(max_cells.mean(), 1), Cell(envelope, 1),
                   Cell(ratio, 3), Cell(mean_dist.mean(), 2)});
  }
  ctx.print(table);

  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  ctx.verdict(bounded, "max Voronoi cell stays within O(K log n / M)");
  ctx.verdict(*hi / *lo < 3.0,
              "ratio to K log n / M is roughly constant (Theta, not just O)");
}

// Builds H for the Theorem 4 parameterization and reports its degree
// statistics against the predicted Δ, then counts the candidate pairs that
// Strategy II's observer sees to estimate per-edge sampling frequencies.
void lemma3_config_graph(ClaimContext& ctx) {
  const std::size_t n = 2025;
  const std::size_t k = n;
  const auto m = static_cast<std::size_t>(std::round(std::pow(n, 0.45)));
  const auto r = static_cast<Hop>(std::round(std::pow(n, 0.40)));

  const Lattice lattice = Lattice::from_node_count(n, Wrap::Torus);
  Rng placement_rng(derive_seed(ctx.seed, {0, seed_phase::kPlacement}));
  const Placement placement = Placement::generate(
      n, Popularity::uniform(k), m,
      PlacementMode::ProportionalWithReplacement, placement_rng);
  const CompactGraph h = build_config_graph(lattice, placement, r);
  const DegreeStats stats = h.degree_stats();
  const double predicted = predicted_config_degree(lattice, m, k, r);

  Table part_a({"quantity", "value"});
  part_a.add_row({Cell("n"), Cell(static_cast<std::int64_t>(n))});
  part_a.add_row({Cell("M = n^0.45"), Cell(static_cast<std::int64_t>(m))});
  part_a.add_row({Cell("r = n^0.40"), Cell(static_cast<std::int64_t>(r))});
  part_a.add_row({Cell("e(H)"), Cell(static_cast<std::int64_t>(
                                   h.num_edges()))});
  part_a.add_row({Cell("min degree"),
                  Cell(static_cast<std::int64_t>(stats.min_degree))});
  part_a.add_row({Cell("mean degree"), Cell(stats.mean_degree, 1)});
  part_a.add_row({Cell("max degree"),
                  Cell(static_cast<std::int64_t>(stats.max_degree))});
  part_a.add_row({Cell("max/min ratio"), Cell(stats.ratio, 2)});
  part_a.add_row({Cell("predicted Delta = M^2(2r)^2/K"),
                  Cell(predicted, 1)});
  part_a.add_row({Cell("mean/predicted"),
                  Cell(stats.mean_degree / predicted, 3)});
  ctx.print(part_a);

  const bool regular = stats.ratio < 3.0 && stats.min_degree > 0;
  const bool delta_ok = stats.mean_degree > predicted / 8.0 &&
                        stats.mean_degree < predicted * 8.0;
  ctx.verdict(regular, "H is almost regular (max/min degree < 3)");
  ctx.verdict(delta_ok, "mean degree within a constant of M^2 r^2 / K");

  // Part (b): sampled edge frequencies. Run many requests through Strategy
  // II and count candidate pairs; the max empirical probability must be
  // O(1/e(H)) — i.e. max_count / samples <= c / e(H) with small c.
  const ReplicaIndex index(lattice, placement);
  TwoChoiceOptions two_options;
  two_options.radius = r;
  TwoChoiceStrategy strategy(index, two_options);
  const LoadTracker tracker(n);
  std::unordered_map<std::uint64_t, std::uint64_t> pair_counts;
  std::uint64_t samples = 0;
  strategy.set_observer([&](std::span<const NodeId> candidates) {
    NodeId a = candidates[0];
    NodeId b = candidates[1];
    if (a > b) std::swap(a, b);
    ++pair_counts[(static_cast<std::uint64_t>(a) << 32) | b];
    ++samples;
  });
  Rng rng(derive_seed(ctx.seed, {0, seed_phase::kStrategy}));
  const std::size_t requests = ctx.runs * n;  // scale with --runs
  const AliasSampler file_sampler(Popularity::uniform(k).pmf());
  for (std::size_t i = 0; i < requests; ++i) {
    Request request;
    request.origin = static_cast<NodeId>(rng.below(n));
    request.file = file_sampler.sample(rng);
    if (placement.replica_count(request.file) == 0) continue;
    (void)strategy.assign(request, tracker, rng);
  }
  std::uint64_t max_count = 0;
  for (const auto& [key, count] : pair_counts) {
    (void)key;
    max_count = std::max(max_count, count);
  }
  // Small-sample statistics: even perfectly uniform sampling of e(H) cells
  // produces a max count well above samples/e(H). Compute the largest
  // count a uniform multinomial would plausibly produce — the smallest k
  // with E[#cells at count >= k] < 0.01 under counts ~ Po(λ) — allowing
  // the O(·) constant 4 the lemma permits (λ_eff = 4 · samples/e(H)).
  const double lambda_eff = 4.0 * static_cast<double>(samples) /
                            static_cast<double>(h.num_edges());
  std::uint64_t threshold = 1;
  {
    // tail(k) = P(Po(λ) >= k), accumulated from the pmf.
    double pmf = std::exp(-lambda_eff);  // P(X = 0)
    double cdf = pmf;
    std::uint64_t k = 0;
    while (static_cast<double>(h.num_edges()) * (1.0 - cdf) >= 0.01 &&
           k < 10000) {
      ++k;
      pmf *= lambda_eff / static_cast<double>(k);
      cdf += pmf;
    }
    threshold = k + 1;
  }

  Table part_b({"quantity", "value"});
  part_b.add_row({Cell("requests sampled"),
                  Cell(static_cast<std::int64_t>(samples))});
  part_b.add_row({Cell("distinct pairs seen"),
                  Cell(static_cast<std::int64_t>(pair_counts.size()))});
  part_b.add_row({Cell("max pair count"),
                  Cell(static_cast<std::int64_t>(max_count))});
  part_b.add_row({Cell("uniform-max threshold (c=4)"),
                  Cell(static_cast<std::int64_t>(threshold))});
  part_b.add_row({Cell("mean count per seen pair"),
                  Cell(static_cast<double>(samples) /
                           static_cast<double>(pair_counts.size()),
                       3)});
  ctx.print(part_b);

  ctx.verdict(max_count <= threshold,
              "no edge is sampled above the O(1/e(H)) envelope");
}

// Placement is proportional to the same law that drives requests, so
// popular files get proportionally more replicas and per-replica demand
// stays balanced. Compares the max-load series across popularity laws at
// matched (n, K, M).
void remark2_zipf_maxload(ClaimContext& ctx) {
  const std::vector<std::size_t> node_counts = {225, 625, 1600, 3025};
  const std::vector<double> gammas = {0.0, 0.8, 1.2, 2.0};  // 0 = uniform

  Table table({"n", "uniform", "zipf(0.8)", "zipf(1.2)", "zipf(2.0)"});
  std::vector<std::vector<double>> series(gammas.size());
  for (const std::size_t n : node_counts) {
    std::vector<Cell> row = {Cell(static_cast<std::int64_t>(n))};
    for (std::size_t gi = 0; gi < gammas.size(); ++gi) {
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
      config.num_files = 100;
      config.cache_size = 4;
      config.strategy_spec = parse_strategy_spec("nearest");
      if (gammas[gi] > 0.0) {
        config.popularity.kind = PopularityKind::Zipf;
        config.popularity.gamma = gammas[gi];
      }
      const ExperimentResult result = ctx.run(config);
      series[gi].push_back(result.max_load.mean());
      row.emplace_back(result.max_load.mean(), 2);
    }
    table.add_row(std::move(row));
  }
  ctx.print(table);

  // Insensitivity: at every n, the spread across popularity laws is small
  // relative to the level.
  double worst_spread = 0.0;
  for (std::size_t p = 0; p < node_counts.size(); ++p) {
    double lo = 1e18;
    double hi = 0.0;
    for (const auto& s : series) {
      lo = std::min(lo, s[p]);
      hi = std::max(hi, s[p]);
    }
    worst_spread = std::max(worst_spread, (hi - lo) / hi);
  }
  bool all_log = true;
  std::vector<double> ns(node_counts.begin(), node_counts.end());
  for (const auto& s : series) {
    const ScalingReport report = classify_growth(ns, s);
    all_log &= report.best == GrowthLaw::Log ||
               report.best == GrowthLaw::LogOverLogLog ||
               report.best == GrowthLaw::LogLog;
  }
  ctx.verdict(worst_spread < 0.20,
              "max load differs < 20% across popularity laws at every n");
  ctx.verdict(all_log, "every popularity law keeps the logarithmic growth");
}

// The four examples of §IV map the boundary of the power of two choices:
//   Example 1: M = K, r = ∞   → classical two choices, L ≈ log log n.
//   Example 2: K = n, M = 1, r = ∞ → memory correlation kills it,
//              L = Ω(log n / log log n / M).
//   Example 3: K = n^{1-ε}, M = 1, r = ∞ → disjoint sub-problems, two
//              choices survive, L = O(log log n).
//   Example 4: M = K, r = 1   → proximity correlation kills it,
//              L = Ω(log n / log log n)/5.
void examples_section4(ClaimContext& ctx) {
  const std::size_t n = 4096;

  struct ExampleSpec {
    std::string name;
    ExperimentConfig config;
    std::string expectation;
  };
  std::vector<ExampleSpec> examples;

  {
    ExperimentConfig config;  // Example 1: M = K, r = ∞
    config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
    config.num_files = 16;
    config.cache_size = 16;
    config.placement_mode = PlacementMode::DistinctProportional;
    config.strategy_spec = parse_strategy_spec("two-choice");
    examples.push_back({"Ex1: M=K, r=inf", config, "~log log n (classic)"});
  }
  {
    ExperimentConfig config;  // Example 2: K = n, M = 1, r = ∞
    config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
    config.num_files = n;
    config.cache_size = 1;
    config.strategy_spec = parse_strategy_spec("two-choice");
    examples.push_back(
        {"Ex2: K=n, M=1, r=inf", config, ">= log n/log log n / M (bad)"});
  }
  {
    ExperimentConfig config;  // Example 3: K = n^{1/2}, M = 1, r = ∞
    config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
    config.num_files = 64;  // sqrt(4096)
    config.cache_size = 1;
    config.strategy_spec = parse_strategy_spec("two-choice");
    examples.push_back(
        {"Ex3: K=sqrt(n), M=1, r=inf", config, "O(log log n) (good)"});
  }
  {
    ExperimentConfig config;  // Example 4: M = K, r = 1
    config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
    config.num_files = 16;
    config.cache_size = 16;
    config.placement_mode = PlacementMode::DistinctProportional;
    config.strategy_spec = parse_strategy_spec("two-choice(r=1)");
    examples.push_back(
        {"Ex4: M=K, r=1", config, ">= (log n/log log n)/5 (bad)"});
  }

  Table table({"example", "max load", "paper expectation"});
  std::vector<double> loads;
  for (const ExampleSpec& example : examples) {
    const ExperimentResult result = ctx.run(example.config);
    loads.push_back(result.max_load.mean());
    table.add_row({Cell(example.name), Cell(result.max_load.mean(), 2),
                   Cell(example.expectation)});
  }
  // Classical two-choice baseline for reference.
  Summary classic;
  for (std::uint64_t s = 0; s < ctx.runs; ++s) {
    Rng rng(ctx.seed + s);
    classic.add(ballsbins::d_choice(n, n, 2, rng).max_load);
  }
  table.add_row({Cell("baseline: balls-in-bins d=2"),
                 Cell(classic.mean(), 2), Cell("log log n (1+o(1))")});
  Summary one;
  for (std::uint64_t s = 0; s < ctx.runs; ++s) {
    Rng rng(ctx.seed + 1000 + s);
    one.add(ballsbins::one_choice(n, n, rng).max_load);
  }
  table.add_row({Cell("baseline: balls-in-bins d=1"), Cell(one.mean(), 2),
                 Cell("log n/log log n (1+o(1))")});
  ctx.print(table);

  const double ex1 = loads[0];
  const double ex2 = loads[1];
  const double ex3 = loads[2];
  ctx.verdict(std::abs(ex1 - classic.mean()) < 1.0,
              "Ex1 matches the classical two-choice level");
  ctx.verdict(ex2 > ex1 + 1.0,
              "Ex2 (thin replication) clearly worse than Ex1");
  ctx.verdict(ex3 < ex2 - 1.0,
              "Ex3 (small library) restores the two choices");

  // Example 4's lower bound (log n / log log n)/5 is asymptotic — at
  // n = 4096 it is vacuous (< the log log n level). Demonstrate it the
  // honest way: the r=1 handicap *grows* with n while r=∞ stays flat.
  Table growth({"n", "L (r=inf)", "L (r=1)", "gap"});
  std::vector<double> gaps;
  for (const std::size_t big_n : {std::size_t{4096}, std::size_t{65536}}) {
    double l_inf = 0.0;
    double l_one = 0.0;
    for (const bool proximal : {false, true}) {
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(big_n, Wrap::Torus);
      config.num_files = 16;
      config.cache_size = 16;
      config.placement_mode = PlacementMode::DistinctProportional;
      config.strategy_spec = proximal
                                 ? parse_strategy_spec("two-choice(r=1)")
                                 : parse_strategy_spec("two-choice");
      (proximal ? l_one : l_inf) = ctx.run(config).max_load.mean();
    }
    gaps.push_back(l_one - l_inf);
    growth.add_row({Cell(static_cast<std::int64_t>(big_n)),
                    Cell(l_inf, 2), Cell(l_one, 2),
                    Cell(l_one - l_inf, 2)});
  }
  std::cout << "Example 4 across network sizes:\n";
  ctx.print(growth);
  ctx.verdict(gaps.back() > gaps.front() && gaps.back() > 0.3,
              "Ex4 (r=1) handicap grows with n (proximity correlation "
              "defeats two choices asymptotically)");
}

}  // namespace proxcache::bench
