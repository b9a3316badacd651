// Extension: stale load information. The paper's §VI argues the scheme is
// practical because queue lengths can be learned "by polling or
// piggybacking" — i.e. the comparison uses *stale* data. This bench sweeps
// the refresh period B (the strategy sees loads refreshed every B
// requests) and measures how much staleness the power of two choices
// tolerates before degrading to the one-choice level.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("ext_stale_info");
  const std::vector<std::uint32_t> periods = {1,   8,    64,   512,
                                              4096, 1u << 30};
  ThreadPool pool(options.threads);

  Table table({"refresh period B", "max load", "ci95", "comm cost"});
  std::vector<double> loads;
  for (const std::uint32_t period : periods) {
    ExperimentConfig config;
    config.topology_spec = parse_topology_spec("torus(side=45)");
    config.num_files = 500;
    config.cache_size = 20;
    config.seed = options.seed;
    config.strategy_spec = StrategySpec{
        "two-choice", {{"r", 10.0}, {"stale", static_cast<double>(period)}}};
    const ExperimentResult result =
        run_experiment(config, options.runs, &pool);
    loads.push_back(result.max_load.mean());
    table.add_row({period >= (1u << 30) ? Cell("never")
                                        : Cell(static_cast<std::int64_t>(
                                              period)),
                   Cell(result.max_load.mean(), 2),
                   Cell(result.max_load.ci95_halfwidth(), 2),
                   Cell(result.comm_cost.mean(), 2)});
  }
  bench::print_table(table, options);

  // Graceful degradation: small periods stay near fresh; only the
  // never-refresh limit loses the two-choice level.
  const double fresh = loads.front();
  const double never = loads.back();
  bool small_periods_fine = true;
  for (std::size_t i = 1; i < 3; ++i) {  // B = 8, 64
    small_periods_fine &= loads[i] < fresh + 1.0;
  }
  bench::print_verdict(small_periods_fine,
                       "polling every <=64 requests preserves the balance "
                       "(the paper's practicality claim)");
  bench::print_verdict(never > fresh + 2.0,
                       "never-refreshed info collapses to one-choice");
  bool monotone = true;
  for (std::size_t i = 1; i < loads.size(); ++i) {
    monotone &= loads[i] >= loads[i - 1] - 0.5;
  }
  bench::print_verdict(monotone, "degradation is monotone in staleness");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "ext_stale_info",
      "Extension: how much load-information staleness the scheme tolerates",
      /*quick_runs=*/30, /*paper_runs=*/2000);
  proxcache::bench::print_banner(
      "Extension — stale load information (paper §VI polling)",
      "torus n=2025, K=500, M=20, r=10; snapshot refreshed every B requests",
      "balance survives realistic polling periods; collapses only when "
      "information never refreshes",
      options);
  return run(options);
}
