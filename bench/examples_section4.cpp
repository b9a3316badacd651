// Reproduces the four illustrative examples of paper §IV, which map the
// boundary of the power of two choices in cache networks:
//   Example 1: M = K, r = ∞   → classical two choices, L ≈ log log n.
//   Example 2: K = n, M = 1, r = ∞ → memory correlation kills it,
//              L = Ω(log n / log log n / M).
//   Example 3: K = n^{1-ε}, M = 1, r = ∞ → disjoint sub-problems, two
//              choices survive, L = O(log log n).
//   Example 4: M = K, r = 1   → proximity correlation kills it,
//              L = Ω(log n / log log n)/5.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ballsbins/processes.hpp"
#include "ballsbins/theory.hpp"
#include "core/experiment.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("examples_section4");
  const std::size_t n = 4096;
  ThreadPool pool(options.threads);

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
    config.seed = options.seed;
    examples.push_back({"Ex1: M=K, r=inf", config, "~log log n (classic)"});
  }
  {
    ExperimentConfig config;  // Example 2: K = n, M = 1, r = ∞
    config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
    config.num_files = n;
    config.cache_size = 1;
    config.strategy_spec = parse_strategy_spec("two-choice");
    config.seed = options.seed;
    examples.push_back(
        {"Ex2: K=n, M=1, r=inf", config, ">= log n/log log n / M (bad)"});
  }
  {
    ExperimentConfig config;  // Example 3: K = n^{1/2}, M = 1, r = ∞
    config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
    config.num_files = 64;  // sqrt(4096)
    config.cache_size = 1;
    config.strategy_spec = parse_strategy_spec("two-choice");
    config.seed = options.seed;
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
    config.seed = options.seed;
    examples.push_back(
        {"Ex4: M=K, r=1", config, ">= (log n/log log n)/5 (bad)"});
  }

  Table table({"example", "max load", "paper expectation"});
  std::vector<double> loads;
  for (const ExampleSpec& example : examples) {
    const ExperimentResult result =
        run_experiment(example.config, options.runs, &pool);
    loads.push_back(result.max_load.mean());
    table.add_row({Cell(example.name), Cell(result.max_load.mean(), 2),
                   Cell(example.expectation)});
  }
  // Classical two-choice baseline for reference.
  Summary classic;
  for (std::uint64_t s = 0; s < options.runs; ++s) {
    Rng rng(options.seed + s);
    classic.add(ballsbins::d_choice(n, n, 2, rng).max_load);
  }
  table.add_row({Cell("baseline: balls-in-bins d=2"),
                 Cell(classic.mean(), 2), Cell("log log n (1+o(1))")});
  Summary one;
  for (std::uint64_t s = 0; s < options.runs; ++s) {
    Rng rng(options.seed + 1000 + s);
    one.add(ballsbins::one_choice(n, n, rng).max_load);
  }
  table.add_row({Cell("baseline: balls-in-bins d=1"), Cell(one.mean(), 2),
                 Cell("log n/log log n (1+o(1))")});
  bench::print_table(table, options);

  const double ex1 = loads[0];
  const double ex2 = loads[1];
  const double ex3 = loads[2];
  bench::print_verdict(std::abs(ex1 - classic.mean()) < 1.0,
                       "Ex1 matches the classical two-choice level");
  bench::print_verdict(ex2 > ex1 + 1.0,
                       "Ex2 (thin replication) clearly worse than Ex1");
  bench::print_verdict(ex3 < ex2 - 1.0,
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
      config.seed = options.seed;
      const double load =
          run_experiment(config, options.runs, &pool).max_load.mean();
      (proximal ? l_one : l_inf) = load;
    }
    gaps.push_back(l_one - l_inf);
    growth.add_row({Cell(static_cast<std::int64_t>(big_n)),
                    Cell(l_inf, 2), Cell(l_one, 2),
                    Cell(l_one - l_inf, 2)});
  }
  std::cout << "Example 4 across network sizes:\n";
  bench::print_table(growth, options);
  bench::print_verdict(gaps.back() > gaps.front() && gaps.back() > 0.3,
                       "Ex4 (r=1) handicap grows with n (proximity "
                       "correlation defeats two choices asymptotically)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "examples_section4",
      "Paper §IV Examples 1-4: where the power of two choices survives",
      /*quick_runs=*/20, /*paper_runs=*/500);
  proxcache::bench::print_banner(
      "Examples 1-4 (§IV) — regimes of the power of two choices",
      "torus n=4096; four parameter points from the paper's discussion",
      "Ex1 ~ classic two-choice, Ex2 & Ex4 degraded, Ex3 good", options);
  return run(options);
}
