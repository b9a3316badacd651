// Ablation: (a) the fallback policy when fewer than two candidates sit
// inside the radius — a model gap the paper leaves open — and (b) torus vs
// bounded grid (the paper proves on the torus, Remark 1 claims the grid
// behaves alike asymptotically).
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "strategy/registry.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("ablation_fallback_topology");
  ThreadPool pool(options.threads);

  // Part (a): fallback policy at a deliberately starved radius.
  Table fallback_table(
      {"fallback", "max load", "comm cost", "fallback %", "drop %"});
  struct Policy {
    std::string name;
    FallbackPolicy policy;
  };
  const std::vector<Policy> policies = {
      {"expand-radius", FallbackPolicy::ExpandRadius},
      {"nearest-replica", FallbackPolicy::NearestReplica},
      {"drop", FallbackPolicy::Drop}};
  double expand_cost = 0.0;
  double nearest_cost = 0.0;
  double drop_rate = 0.0;
  for (const Policy& policy : policies) {
    ExperimentConfig config;
    config.topology_spec = parse_topology_spec("torus(side=32)");
    config.num_files = 200;
    config.cache_size = 2;
    // r=2 starves the candidate set (F_j(u) often < 2) to exercise the
    // fallback paths.
    config.strategy_spec = StrategySpec{
        "two-choice", {{"r", 2.0}, {"fallback", fallback_param(policy.policy)}}};
    config.seed = options.seed;
    const ExperimentResult result =
        run_experiment(config, options.runs, &pool);
    fallback_table.add_row({Cell(policy.name),
                            Cell(result.max_load.mean(), 2),
                            Cell(result.comm_cost.mean(), 2),
                            Cell(result.fallback_rate * 100.0, 1),
                            Cell(result.drop_rate * 100.0, 1)});
    if (policy.policy == FallbackPolicy::ExpandRadius) {
      expand_cost = result.comm_cost.mean();
    }
    if (policy.policy == FallbackPolicy::NearestReplica) {
      nearest_cost = result.comm_cost.mean();
    }
    if (policy.policy == FallbackPolicy::Drop) {
      drop_rate = result.drop_rate;
    }
  }
  std::cout << "part (a): fallback policy at starved radius r=2, M=2\n";
  bench::print_table(fallback_table, options);
  bench::print_verdict(nearest_cost <= expand_cost + 0.5,
                       "nearest-replica fallback is the cheapest repair");
  bench::print_verdict(drop_rate > 0.0,
                       "drop policy visibly sheds load (non-zero drop rate)");

  // Part (b): torus vs grid at a healthy operating point.
  Table wrap_table({"topology", "max load", "comm cost"});
  double loads[2] = {0.0, 0.0};
  double costs[2] = {0.0, 0.0};
  int i = 0;
  for (const Wrap wrap : {Wrap::Torus, Wrap::Grid}) {
    ExperimentConfig config;
    config.topology_spec = topology_spec_from_lattice(2025, wrap);
    config.num_files = 500;
    config.cache_size = 20;
    config.strategy_spec = parse_strategy_spec("two-choice(r=10)");
    config.seed = options.seed;
    const ExperimentResult result =
        run_experiment(config, options.runs, &pool);
    loads[i] = result.max_load.mean();
    costs[i] = result.comm_cost.mean();
    wrap_table.add_row({Cell(to_string(wrap)),
                        Cell(result.max_load.mean(), 2),
                        Cell(result.comm_cost.mean(), 2)});
    ++i;
  }
  std::cout << "part (b): torus vs bounded grid (paper Remark 1)\n";
  bench::print_table(wrap_table, options);
  bench::print_verdict(std::abs(loads[0] - loads[1]) < 1.0,
                       "grid max load within 1 of the torus");
  bench::print_verdict(std::abs(costs[0] - costs[1]) / costs[0] < 0.25,
                       "grid cost within 25% of the torus");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "ablation_fallback_topology",
      "Ablation: fallback policies and torus-vs-grid boundary effects",
      /*quick_runs=*/30, /*paper_runs=*/2000);
  proxcache::bench::print_banner(
      "Ablation — fallback policy & topology",
      "starved radius (r=2, M=2) for fallbacks; n=2025 healthy point for "
      "torus-vs-grid",
      "fallback choice shifts cost not balance; grid ~ torus (Remark 1)",
      options);
  return run(options);
}
