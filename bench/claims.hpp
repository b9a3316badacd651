#pragma once
/// \file claims.hpp
/// The paper's claims, one plain function each, and what they share: the
/// replication count, seed, output format and thread pool of the run, and
/// the table and verdict printers. `paper.cpp` holds the claim table (name,
/// paper reference, setup, expected shape, replication presets) and `main`.

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "parallel/thread_pool.hpp"
#include "topology/registry.hpp"
#include "util/table.hpp"

namespace proxcache::bench {

/// What a claim body runs with. `verdict` prints one verdict line and keeps
/// the failed ones, which make `paper` exit 1.
struct ClaimContext {
  std::size_t runs = 0;      ///< replications per sweep point
  std::uint64_t seed = 0;    ///< root seed
  bool csv = false;          ///< CSV rows instead of aligned tables
  ThreadPool& pool;          ///< shared by every claim of the run
  std::size_t verdicts = 0;  ///< verdicts printed so far
  std::vector<std::string> failed{};  ///< messages of the failed verdicts

  /// `run_experiment(config, runs, &pool)` with `config.seed` set to `seed`.
  [[nodiscard]] ExperimentResult run(ExperimentConfig config) const;
  /// Prints `table` in the configured format, then a blank line.
  void print(const Table& table) const;
  /// Prints "[shape OK]   message" or "[shape WARN] message".
  void verdict(bool ok, const std::string& message);
};

// figures.cpp
void fig1_maxload_nearest(ClaimContext& ctx);
void fig2_cost_nearest(ClaimContext& ctx);
void fig3_fig4_twochoice(ClaimContext& ctx);
void fig5_tradeoff(ClaimContext& ctx);

// theorems.cpp
void thm1_nearest_log_growth(ClaimContext& ctx);
void thm2_nearest_sublinear_mem(ClaimContext& ctx);
void thm3_cost_scaling(ClaimContext& ctx);
void thm4_loglog_regime(ClaimContext& ctx);
void thm6_full_memory_radius(ClaimContext& ctx);
void lemma1_voronoi_cells(ClaimContext& ctx);
void lemma3_config_graph(ClaimContext& ctx);
void remark2_zipf_maxload(ClaimContext& ctx);
void examples_section4(ClaimContext& ctx);

// extensions.cpp
void ablation_d_choices(ClaimContext& ctx);
void ablation_fallback_topology(ClaimContext& ctx);
void ablation_placement(ClaimContext& ctx);
void ext_heavy_load(ClaimContext& ctx);
void ext_hotspot(ClaimContext& ctx);
void ext_one_plus_beta(ClaimContext& ctx);
void ext_queueing(ClaimContext& ctx);
void ext_scenarios(ClaimContext& ctx);
void ext_stale_info(ClaimContext& ctx);

}  // namespace proxcache::bench
