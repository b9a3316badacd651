// Extension: spatially concentrated demand (not in the paper, which assumes
// uniform request origins). A hotspot pins a fraction of the requests to a
// small disc; the proximity constraint then forces Strategy II to choose
// among the few servers near the disc — the candidate-correlation failure
// mode of the paper's Example 4, induced by the *workload* instead of the
// radius. The dispatch radius becomes a congestion-relief valve.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("ext_hotspot");
  const std::vector<Hop> dispatch_radii = {3, 6, 12, 22};
  const std::vector<double> fractions = {0.0, 0.4, 0.8};
  ThreadPool pool(options.threads);

  Table table({"hotspot frac", "dispatch r", "max load", "comm cost",
               "fallback %"});
  // grid[fraction][radius] of max loads for the verdicts.
  std::vector<std::vector<double>> loads(fractions.size());
  for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
    for (const Hop r : dispatch_radii) {
      ExperimentConfig config;
      config.topology_spec = parse_topology_spec("torus(side=45)");
      config.num_files = 500;
      config.cache_size = 20;
      config.seed = options.seed;
      config.strategy_spec =
          StrategySpec{"two-choice", {{"r", static_cast<double>(r)}}};
      if (fractions[fi] > 0.0) {
        config.origins.kind = OriginKind::Hotspot;
        config.origins.hotspot_fraction = fractions[fi];
        config.origins.hotspot_radius = 3;
      }
      const ExperimentResult result =
          run_experiment(config, options.runs, &pool);
      loads[fi].push_back(result.max_load.mean());
      table.add_row({Cell(fractions[fi], 1),
                     Cell(static_cast<std::int64_t>(r)),
                     Cell(result.max_load.mean(), 2),
                     Cell(result.comm_cost.mean(), 2),
                     Cell(result.fallback_rate * 100.0, 1)});
    }
  }
  bench::print_table(table, options);

  // Verdicts: hotspots hurt at small radius; radius relieves them; and the
  // radius matters far more under a hotspot than under the paper's uniform
  // traffic (where it only buys the last ~2 requests of balance).
  const bool hotspot_hurts = loads[2][0] > loads[0][0] + 1.0;
  const bool radius_relieves = loads[2][0] > loads[2].back() + 1.0;
  const double uniform_relief = loads[0][0] - loads[0].back();
  const double hotspot_relief = loads[2][0] - loads[2].back();
  bench::print_verdict(hotspot_hurts,
                       "a tight hotspot overloads small-radius dispatch");
  bench::print_verdict(radius_relieves,
                       "growing the dispatch radius absorbs the hotspot");
  bench::print_verdict(hotspot_relief > 3.0 * uniform_relief,
                       "radius buys far more relief under a hotspot than "
                       "under uniform traffic");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "ext_hotspot",
      "Extension: hotspot (spatially concentrated) request origins",
      /*quick_runs=*/25, /*paper_runs=*/2000);
  proxcache::bench::print_banner(
      "Extension — hotspot demand vs dispatch radius",
      "torus n=2025, K=500, M=20; hotspot disc radius 3 at the center",
      "hotspot + small r overloads local servers; larger r spreads it",
      options);
  return run(options);
}
