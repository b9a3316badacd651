// Reproduces Theorem 4 — the paper's headline result: with K = n, M = n^α,
// r = n^β and α + 2β >= 1 + 2 log log n / log n, Strategy II achieves
// maximum load Θ(log log n) and communication cost Θ(r) w.h.p.
//
// The bench runs an in-regime sweep (α = 0.5, β = 0.45 → α+2β = 1.4) and an
// out-of-regime sweep (α = 0.5, β = 0.15 → 0.8) and contrasts the growth
// of the max load, plus verifies C = Θ(r) in the good regime.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ballsbins/theory.hpp"
#include "core/experiment.hpp"
#include "stats/scaling.hpp"

namespace {

using namespace proxcache;

struct SweepResult {
  std::vector<double> max_load;
  std::vector<double> cost;
  std::vector<double> radius;
  std::vector<double> fallback_rate;
};

SweepResult sweep(const std::vector<std::size_t>& node_counts, double alpha,
                  double beta, const bench::BenchOptions& options,
                  ThreadPool& pool) {
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
    config.seed = options.seed;
    const ExperimentResult result = run_experiment(config, options.runs,
                                                   &pool);
    out.max_load.push_back(result.max_load.mean());
    out.cost.push_back(result.comm_cost.mean());
    out.radius.push_back(static_cast<double>(r));
    out.fallback_rate.push_back(result.fallback_rate);
  }
  return out;
}

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("thm4_loglog_regime");
  const std::vector<std::size_t> node_counts = {625, 1600, 4096, 10000,
                                                23104};
  ThreadPool pool(options.threads);

  const SweepResult good = sweep(node_counts, 0.5, 0.45, options, pool);
  const SweepResult bad = sweep(node_counts, 0.5, 0.15, options, pool);

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
  bench::print_table(table, options);

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
  bench::print_verdict(good_growth < 1.5,
                       "in-regime max load is ~flat (Theta(log log n))");
  bench::print_verdict(ratio_hi / ratio_lo < 2.0,
                       "in-regime communication cost is Theta(r)");
  bench::print_verdict(separation,
                       "out-of-regime (alpha+2beta<1) balances worse");
  bench::print_verdict(fallback_ok, "in-regime fallbacks are negligible");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "thm4_loglog_regime",
      "Theorem 4: Strategy II achieves Theta(log log n) max load and "
      "Theta(r) cost in the good regime",
      /*quick_runs=*/20, /*paper_runs=*/1000);
  proxcache::bench::print_banner(
      "Theorem 4 — the proximity-aware two-choice regime",
      "torus, K=n, M=n^0.5, r=n^beta; beta=0.45 (in) vs 0.15 (out)",
      "in-regime: L = Theta(log log n), C = Theta(r); out-regime: worse L",
      options);
  return run(options);
}
