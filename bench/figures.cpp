// Figures 1-5 of the paper. Each claim sweeps what its figure plots and
// checks the figure's shape; paper.cpp's table quotes the setup and shape.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "catalog/popularity.hpp"
#include "claims.hpp"
#include "core/cost_model.hpp"
#include "stats/regression.hpp"
#include "stats/scaling.hpp"

namespace proxcache::bench {

void fig1_maxload_nearest(ClaimContext& ctx) {
  const std::vector<std::size_t> node_counts = {100,  225,  400,  625,  900,
                                                1225, 1600, 2025, 2500, 3025};
  const std::vector<std::size_t> cache_sizes = {1, 2, 10, 100};

  Table table({"n", "M=1", "M=2", "M=10", "M=100"});
  std::vector<std::vector<double>> series(cache_sizes.size());

  for (const std::size_t n : node_counts) {
    std::vector<Cell> row = {Cell(static_cast<std::int64_t>(n))};
    for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
      config.num_files = 100;
      config.cache_size = cache_sizes[mi];
      config.strategy_spec = parse_strategy_spec("nearest");
      const ExperimentResult result = ctx.run(config);
      series[mi].push_back(result.max_load.mean());
      row.emplace_back(result.max_load.mean(), 2);
    }
    table.add_row(std::move(row));
  }
  ctx.print(table);

  // Shape checks: growth law per curve and M-ordering.
  std::vector<double> ns(node_counts.begin(), node_counts.end());
  bool all_ok = true;
  for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
    const ScalingReport report = classify_growth(ns, series[mi]);
    // Theorem 1/2 put Strategy I between log n / log log n and log n; both
    // transforms are nearly collinear at this n range, so accept either (or
    // the flat verdict for the very damped M=100 curve).
    const bool ok = report.best == GrowthLaw::Log ||
                    report.best == GrowthLaw::LogOverLogLog ||
                    report.best == GrowthLaw::LogLog;
    all_ok &= ok;
    std::cout << "M=" << cache_sizes[mi] << ": best growth fit '"
              << to_string(report.best)
              << "' (R2 log n = " << report.r2_of(GrowthLaw::Log) << ")\n";
  }
  bool ordering = true;
  for (std::size_t i = 0; i + 1 < cache_sizes.size(); ++i) {
    // Larger caches balance better: compare curve means.
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t p = 0; p < ns.size(); ++p) {
      lo += series[i + 1][p];
      hi += series[i][p];
    }
    ordering &= lo <= hi + 0.3 * static_cast<double>(ns.size());
  }
  ctx.verdict(all_ok, "max load grows ~logarithmically in n");
  ctx.verdict(ordering, "larger cache size lowers the curve");
}

void fig2_cost_nearest(ClaimContext& ctx) {
  const std::vector<std::size_t> cache_sizes = {1, 2, 5, 10, 20, 40, 60, 80,
                                                100};
  const std::vector<std::size_t> library_sizes = {100, 1000, 2000};

  Table table({"M", "K=100", "K=100 thry", "K=1000", "K=1000 thry", "K=2000",
               "K=2000 thry"});

  // measured[k][m], reference[k][m]
  std::vector<std::vector<double>> measured(library_sizes.size());
  std::vector<std::vector<double>> reference(library_sizes.size());
  for (std::size_t ki = 0; ki < library_sizes.size(); ++ki) {
    for (const std::size_t m : cache_sizes) {
      ExperimentConfig config;
      config.topology_spec = parse_topology_spec("torus(side=45)");
      config.num_files = library_sizes[ki];
      config.cache_size = m;
      config.strategy_spec = parse_strategy_spec("nearest");
      const ExperimentResult result = ctx.run(config);
      measured[ki].push_back(result.comm_cost.mean());
      // Exact finite-torus model (core/cost_model.hpp): closed form, no
      // free constant — the "thry" columns are directly comparable.
      reference[ki].push_back(nearest_cost_model(
          Lattice::from_node_count(2025, Wrap::Torus),
          Popularity::uniform(library_sizes[ki]), m));
    }
  }
  for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
    table.add_row({Cell(static_cast<std::int64_t>(cache_sizes[mi])),
                   Cell(measured[0][mi], 2), Cell(reference[0][mi], 2),
                   Cell(measured[1][mi], 2), Cell(reference[1][mi], 2),
                   Cell(measured[2][mi], 2), Cell(reference[2][mi], 2)});
  }
  ctx.print(table);

  bool shape_ok = true;
  for (std::size_t ki = 0; ki < library_sizes.size(); ++ki) {
    const double rho = pearson(measured[ki], reference[ki]);
    shape_ok &= rho > 0.99;
    std::cout << "K=" << library_sizes[ki]
              << ": Pearson(measured, exact finite model) = " << rho << "\n";
  }
  bool k_ordering = true;
  for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
    k_ordering &= measured[0][mi] <= measured[1][mi] + 0.2 &&
                  measured[1][mi] <= measured[2][mi] + 0.2;
  }
  ctx.verdict(shape_ok, "cost follows Theta(sqrt(K/M)) closely");
  ctx.verdict(k_ordering, "larger library costs more at every M");
}

// Figures 3 and 4 plot two fields of one sweep. Max load: for small M the
// curve first grows (replication too thin — correlation kills the two
// choices, Example 2), then improves once n·M/K gives enough replicas per
// file; for M ∈ {10, 100} it stays low and flat. Cost: with no proximity
// constraint the chosen replica is a uniform random one, so the cost is the
// mean torus distance, Θ(sqrt(n)), whatever M.
void fig3_fig4_twochoice(ClaimContext& ctx) {
  const std::vector<std::size_t> node_counts = {2500,  10000, 22500, 40000,
                                                62500, 90000, 122500};
  const std::vector<std::size_t> cache_sizes = {1, 2, 10, 100};

  Table load_table({"n", "M=1", "M=2", "M=10", "M=100"});
  Table cost_table({"n", "sqrt(n)/2", "M=1", "M=2", "M=10", "M=100"});
  std::vector<std::vector<double>> loads(cache_sizes.size());
  std::vector<std::vector<double>> costs(cache_sizes.size());

  for (const std::size_t n : node_counts) {
    std::vector<Cell> load_row = {Cell(static_cast<std::int64_t>(n))};
    std::vector<Cell> cost_row = {
        Cell(static_cast<std::int64_t>(n)),
        Cell(std::sqrt(static_cast<double>(n)) / 2.0, 1)};
    for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
      config.num_files = 2000;
      config.cache_size = cache_sizes[mi];
      config.strategy_spec = parse_strategy_spec("two-choice");  // r = ∞
      const ExperimentResult result = ctx.run(config);
      loads[mi].push_back(result.max_load.mean());
      load_row.emplace_back(result.max_load.mean(), 2);
      costs[mi].push_back(result.comm_cost.mean());
      cost_row.emplace_back(result.comm_cost.mean(), 2);
    }
    load_table.add_row(std::move(load_row));
    cost_table.add_row(std::move(cost_row));
  }

  // Figure 3.
  ctx.print(load_table);
  // (1) High-memory curves (M=10, M=100) stay low and nearly flat.
  const auto range_of = [](const std::vector<double>& ys) {
    const auto [lo, hi] = std::minmax_element(ys.begin(), ys.end());
    return *hi - *lo;
  };
  const bool high_memory_flat =
      range_of(loads[2]) <= 2.0 && range_of(loads[3]) <= 2.0;
  // (2) Low-memory curve M=1 exceeds the high-memory curves early on
  // (the correlation penalty of Example 2).
  const bool low_memory_penalty = loads[0][0] > loads[3][0] + 1.0;
  // (3) The M=1 curve eventually improves: its value at the largest n is
  // below its peak (transition region of the paper's discussion).
  const double peak_m1 = *std::max_element(loads[0].begin(), loads[0].end());
  const bool hump = loads[0].back() <= peak_m1;
  ctx.verdict(high_memory_flat,
              "M in {10,100}: flat low curves (power of 2 choices)");
  ctx.verdict(low_memory_penalty,
              "M=1 starts far above M=100 (correlation penalty)");
  ctx.verdict(hump, "M=1 curve peaks before the largest n");

  // Figure 4.
  std::cout << "\n\n";
  ctx.print(cost_table);
  std::vector<double> ns(node_counts.begin(), node_counts.end());
  bool sqrt_ok = true;
  for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
    const ScalingReport report = classify_growth(ns, costs[mi]);
    sqrt_ok &= report.best == GrowthLaw::Sqrt;
    std::cout << "M=" << cache_sizes[mi] << ": best growth fit '"
              << to_string(report.best)
              << "' (R2 sqrt = " << report.r2_of(GrowthLaw::Sqrt) << ")\n";
  }
  // Curves should nearly coincide across M (cost is replica-placement
  // driven, not cache-size driven, once every file has replicas).
  double max_gap = 0.0;
  for (std::size_t p = 0; p < ns.size(); ++p) {
    const double lo =
        std::min({costs[0][p], costs[1][p], costs[2][p], costs[3][p]});
    const double hi =
        std::max({costs[0][p], costs[1][p], costs[2][p], costs[3][p]});
    max_gap = std::max(max_gap, (hi - lo) / hi);
  }
  ctx.verdict(sqrt_ok, "cost grows as Theta(sqrt(n)) for every M");
  ctx.verdict(max_gap < 0.15, "curves nearly coincide across cache sizes");
}

// For large M the trade-off curve is L-shaped: a small communication cost
// already buys the full power of two choices (max load ~3.5-4); for M = 1
// the max load stays high (~8-9) however much cost is spent; intermediate M
// interpolate.
void fig5_tradeoff(ClaimContext& ctx) {
  const std::vector<std::size_t> cache_sizes = {1, 2, 5, 10, 20, 50, 200};
  const std::vector<Hop> radii = {1, 2, 3, 4, 6, 8, 10, 14, 18, 22};

  // For each M: vector of (cost, max load) along the radius sweep.
  std::vector<std::vector<std::pair<double, double>>> curves(
      cache_sizes.size());

  for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
    for (const Hop r : radii) {
      ExperimentConfig config;
      config.topology_spec = parse_topology_spec("torus(side=45)");
      config.num_files = 500;
      config.cache_size = cache_sizes[mi];
      config.strategy_spec =
          StrategySpec{"two-choice", {{"r", static_cast<double>(r)}}};
      const ExperimentResult result = ctx.run(config);
      curves[mi].emplace_back(result.comm_cost.mean(),
                              result.max_load.mean());
    }
  }

  // One table per radius row: cost/load pairs per M, same layout as the
  // paper's parametric curves.
  Table table({"r", "M=1 cost", "M=1 L", "M=5 cost", "M=5 L", "M=20 cost",
               "M=20 L", "M=200 cost", "M=200 L"});
  const std::size_t idx_m1 = 0;
  const std::size_t idx_m5 = 2;
  const std::size_t idx_m20 = 4;
  const std::size_t idx_m200 = 6;
  for (std::size_t ri = 0; ri < radii.size(); ++ri) {
    table.add_row({Cell(static_cast<std::int64_t>(radii[ri])),
                   Cell(curves[idx_m1][ri].first, 2),
                   Cell(curves[idx_m1][ri].second, 2),
                   Cell(curves[idx_m5][ri].first, 2),
                   Cell(curves[idx_m5][ri].second, 2),
                   Cell(curves[idx_m20][ri].first, 2),
                   Cell(curves[idx_m20][ri].second, 2),
                   Cell(curves[idx_m200][ri].first, 2),
                   Cell(curves[idx_m200][ri].second, 2)});
  }
  ctx.print(table);

  // Full CSV of every curve for plotting.
  if (ctx.csv) {
    Table csv({"M", "r", "cost", "max_load"});
    for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
      for (std::size_t ri = 0; ri < radii.size(); ++ri) {
        csv.add_row({Cell(static_cast<std::int64_t>(cache_sizes[mi])),
                     Cell(static_cast<std::int64_t>(radii[ri])),
                     Cell(curves[mi][ri].first, 3),
                     Cell(curves[mi][ri].second, 3)});
      }
    }
    ctx.print(csv);
  }

  // Shape checks.
  // (1) M=200 at generous radius reaches the two-choice plateau (~<= 4.5).
  const double m200_final = curves[idx_m200].back().second;
  // (2) M=1 stays high everywhere: min over radii >= 6.
  double m1_min = 1e18;
  for (const auto& [cost, load] : curves[idx_m1]) {
    m1_min = std::min(m1_min, load);
  }
  // (3) Cost is monotone in r for every M.
  bool cost_monotone = true;
  for (const auto& curve : curves) {
    for (std::size_t ri = 1; ri < curve.size(); ++ri) {
      cost_monotone &= curve[ri].first >= curve[ri - 1].first - 0.2;
    }
  }
  // (4) Trade-off ordering at the final radius: max load decreasing in M.
  bool m_ordering = true;
  for (std::size_t mi = 0; mi + 1 < cache_sizes.size(); ++mi) {
    m_ordering &=
        curves[mi].back().second + 0.4 >= curves[mi + 1].back().second;
  }

  ctx.verdict(m200_final <= 4.5, "M=200 reaches the two-choice plateau");
  ctx.verdict(m1_min >= 6.0, "M=1 cannot trade cost for balance (stays high)");
  ctx.verdict(cost_monotone, "communication cost is monotone in r");
  ctx.verdict(m_ordering, "larger M dominates the trade-off at large r");
}

}  // namespace proxcache::bench
