#include "bench_common.hpp"

#include <cstdlib>
#include <iostream>

namespace proxcache::bench {

BenchOptions parse_bench_options(int argc, const char* const* argv,
                                 const std::string& name,
                                 const std::string& description,
                                 std::size_t quick_runs,
                                 std::size_t paper_runs) {
  ArgParser args(name, description);
  args.add_int("runs", 0,
               "replications per sweep point (0 = preset: quick unless "
               "--full)",
               0);
  args.add_flag("full", "use paper-scale replication counts");
  args.add_flag("csv", "emit CSV rows instead of aligned tables");
  args.add_int("seed", 0x5EED, "root seed for all randomness");
  args.add_int("threads", 0, "worker threads (0 = hardware concurrency)", 0,
               ThreadPool::kMaxThreads);
  try {
    args.parse(argc, argv);
  } catch (const CliError& error) {
    std::cerr << error.what() << "\n\n" << args.help_text();
    std::exit(2);
  }
  if (args.help_requested()) {
    std::cout << args.help_text();
    std::exit(0);
  }

  BenchOptions options;
  options.full = args.get_flag("full");
  options.csv = args.get_flag("csv");
  options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  options.threads = static_cast<unsigned>(args.get_int("threads"));

  if (args.was_set("runs") && args.get_int("runs") > 0) {
    options.runs = static_cast<std::size_t>(args.get_int("runs"));
  } else if (const char* env = std::getenv("PROXCACHE_RUNS");
             env != nullptr && *env != '\0') {
    options.runs = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  if (options.runs == 0) {
    options.runs = options.full ? paper_runs : quick_runs;
  }
  return options;
}

void print_banner(const std::string& title, const std::string& paper_setup,
                  const std::string& paper_expectation,
                  const BenchOptions& options) {
  std::cout << "== " << title << " ==\n"
            << "paper setup:  " << paper_setup << "\n"
            << "paper shape:  " << paper_expectation << "\n"
            << "replications: " << options.runs
            << (options.full ? " (paper scale)" : " (quick scale)")
            << ", seed " << options.seed << "\n\n";
}

void print_table(const Table& table, const BenchOptions& options) {
  if (options.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << '\n';
}

void print_verdict(bool ok, const std::string& message) {
  std::cout << (ok ? "[shape OK]   " : "[shape WARN] ") << message << "\n";
}

ScopedBenchTimer::~ScopedBenchTimer() {
  std::cout << "[time] " << name_ << ": " << timer_.seconds() << "s\n\n";
}

}  // namespace proxcache::bench
