#pragma once
/// \file bench_common.hpp
/// Shared scaffolding for the figure/theorem reproduction benches: a common
/// command line (--runs, --full, --csv, --seed, --threads), banner/table
/// printing, and the paper-scale vs quick-scale replication policy.
///
/// Absolute replication counts: the paper averages 800–10000 runs per
/// point; the default "quick" counts keep every binary under ~a minute on a
/// laptop while preserving the curve shapes. `--full` (or PROXCACHE_RUNS)
/// restores paper scale. EXPERIMENTS.md records which mode produced the
/// committed outputs.

#include <cstdint>
#include <optional>
#include <string>

#include "parallel/thread_pool.hpp"
#include "topology/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace proxcache::bench {

/// Resolved options common to every bench binary.
struct BenchOptions {
  std::size_t runs = 0;        ///< replications per point
  std::uint64_t seed = 0;      ///< root seed
  bool csv = false;            ///< emit CSV instead of aligned tables
  bool full = false;           ///< paper-scale replication counts
  unsigned threads = 0;        ///< worker threads (0 = hardware)
};

/// Parse the standard bench command line. `quick_runs`/`paper_runs` are the
/// two replication presets; precedence: --runs > PROXCACHE_RUNS (env) >
/// (--full ? paper : quick). On --help prints usage and exits(0).
BenchOptions parse_bench_options(int argc, const char* const* argv,
                                 const std::string& name,
                                 const std::string& description,
                                 std::size_t quick_runs,
                                 std::size_t paper_runs);

/// Print the bench banner: what is reproduced and what the paper expects.
void print_banner(const std::string& title, const std::string& paper_setup,
                  const std::string& paper_expectation,
                  const BenchOptions& options);

/// Print a table in the configured format (aligned or CSV) to stdout.
void print_table(const Table& table, const BenchOptions& options);

/// Print a one-line verdict ("[shape OK] ..." / "[shape WARN] ...").
void print_verdict(bool ok, const std::string& message);

/// RAII wall-clock reporter: prints "[time] <name>: X.XXs" on destruction,
/// so every bench's output ends with its total runtime.
class ScopedBenchTimer {
 public:
  explicit ScopedBenchTimer(std::string name) : name_(std::move(name)) {}
  ~ScopedBenchTimer();

  ScopedBenchTimer(const ScopedBenchTimer&) = delete;
  ScopedBenchTimer& operator=(const ScopedBenchTimer&) = delete;

 private:
  std::string name_;
  WallTimer timer_;
};

}  // namespace proxcache::bench
