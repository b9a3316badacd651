// paper: runs the claims of the table below — every claim, or the ones
// named with --claim — on one thread pool. Each claim prints a banner, its
// tables and its verdicts to stdout; timings and the verdict tally go to
// stderr, so stdout is the same at any --threads. Exits 1 when a verdict
// fails and 2 on a bad command line.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <sstream>

#include "claims.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace proxcache::bench {

ExperimentResult ClaimContext::run(ExperimentConfig config) const {
  config.seed = seed;
  return run_experiment(config, runs, &pool);
}

void ClaimContext::print(const Table& table) const {
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << '\n';
}

void ClaimContext::verdict(bool ok, const std::string& message) {
  std::cout << (ok ? "[shape OK]   " : "[shape WARN] ") << message << "\n";
  ++verdicts;
  if (!ok) failed.push_back(message);
}

}  // namespace proxcache::bench

namespace {

using namespace proxcache;
using namespace proxcache::bench;

/// One claim: its name on the command line, the banner's paper reference,
/// setup and expected shape, the replications per sweep point at quick
/// scale (small enough for CI to run every claim) and with --full (the
/// paper's own count where it states one), and the function that sweeps
/// and judges.
struct Claim {
  const char* name;
  const char* reference;
  const char* setup;
  const char* shape;
  std::size_t quick_runs;
  std::size_t paper_runs;
  void (*body)(ClaimContext&);
};

constexpr Claim kClaims[] = {
    {"fig1_maxload_nearest", "Figure 1 — Strategy I maximum load vs n",
     "torus, K=100, uniform popularity, M in {1,2,10,100}, n requests",
     "curves grow like log n; larger M gives a lower curve (paper: ~4.5-8)",
     50, 10000, fig1_maxload_nearest},
    {"fig2_cost_nearest", "Figure 2 — Strategy I communication cost vs M",
     "torus n=2025, uniform popularity, K in {100,1000,2000}, M=1..100",
     "cost ~ sqrt(K/M): falls in M, rises in K (paper: 0-25 hops)", 20,
     10000, fig2_cost_nearest},
    {"fig3_fig4_twochoice",
     "Figures 3 and 4 — Strategy II maximum load and communication cost vs n "
     "(r = inf)",
     "torus, K=2000, uniform popularity, M in {1,2,10,100}, n to 122500",
     "load: M small rises then improves (replication transition), M large "
     "flat low (paper: 3-11); cost ~ Theta(sqrt(n)), insensitive to M "
     "(paper: 10-100 hops)",
     8, 800, fig3_fig4_twochoice},
    {"fig5_tradeoff",
     "Figure 5 — Strategy II trade-off (max load vs cost), radius sweep",
     "torus n=2025, K=500, uniform popularity, M in {1,2,5,10,20,50,200}",
     "high M: L-shaped (cheap balance); M=1: flat high; cost rises with r",
     25, 5000, fig5_tradeoff},
    {"thm1_nearest_log_growth", "Theorem 1 — Strategy I max load growth",
     "torus, K = n^{1-eps} (eps in {0.3, 0.5}), M = 1, uniform popularity",
     "max load = Theta(log n) w.h.p.", 30, 2000, thm1_nearest_log_growth},
    {"thm2_nearest_sublinear_mem",
     "Theorem 2 — Strategy I max load, sublinear memory",
     "torus, K = n, M = n^alpha (alpha in {0.25, 0.4}), uniform popularity",
     "max load in [Omega(log n/log log n), O(log n)] w.h.p.", 30, 2000,
     thm2_nearest_sublinear_mem},
    {"thm3_cost_scaling", "Theorem 3 — Strategy I communication cost scaling",
     "torus n=2025, M=2, K in {250,500,1000,2000}, uniform + zipf gammas",
     "uniform: sqrt(K/M); zipf: five-regime table in gamma (Eq. 1)", 15,
     2000, thm3_cost_scaling},
    {"thm4_loglog_regime",
     "Theorem 4 — the proximity-aware two-choice regime",
     "torus, K=n, M=n^0.5, r=n^beta; beta=0.45 (in) vs 0.15 (out)",
     "in-regime: L = Theta(log log n), C = Theta(r); out-regime: worse L",
     20, 1000, thm4_loglog_regime},
    {"thm6_full_memory_radius", "Theorem 6 — full replication, tiny radius",
     "torus, M = K = 16 (library cached everywhere), r in {2,4,8}, n to "
     "25600",
     "L = Theta(log log n) flat in n; C = Theta(r) independent of n", 20,
     1000, thm6_full_memory_radius},
    {"lemma1_voronoi_cells", "Lemma 1 — Voronoi cell census",
     "torus, K = sqrt(n), M = 1, uniform popularity; tessellate every file",
     "max cell size = Theta(K log n / M) w.h.p.", 10, 200,
     lemma1_voronoi_cells},
    {"lemma3_config_graph",
     "Lemma 3 — configuration graph H census + edge sampling",
     "torus n=2025, K=n, M=n^0.45, r=n^0.40 (Theorem 4 parameterization)",
     "H almost Delta-regular, Delta = Theta(M^2 r^2/K); edges sampled "
     "O(1/e(H))",
     20, 200, lemma3_config_graph},
    {"remark2_zipf_maxload",
     "Remark 2 — popularity-insensitivity of Strategy I max load",
     "torus, K=100, M=4; Uniform vs Zipf gamma in {0.8, 1.2, 2.0}",
     "placement proportional to demand keeps Theta(log n) for every law", 40,
     2000, remark2_zipf_maxload},
    {"examples_section4",
     "Examples 1-4 (§IV) — regimes of the power of two choices",
     "torus n=4096; four parameter points from the paper's discussion",
     "Ex1 ~ classic two-choice, Ex2 & Ex4 degraded, Ex3 good", 20, 500,
     examples_section4},
    {"ablation_d_choices", "Ablation — d choices",
     "torus n=2025, K=500, M=20, r=10, d in {1,2,3,4}",
     "one->two is the exponential step; beyond two only constants improve",
     40, 2000, ablation_d_choices},
    {"ablation_fallback_topology", "Ablation — fallback policy & topology",
     "starved radius (r=2, M=2) for fallbacks; n=2025 healthy point for "
     "torus-vs-grid",
     "fallback choice shifts cost not balance; grid ~ torus (Remark 1)", 30,
     2000, ablation_fallback_topology},
    {"ablation_placement", "Ablation — placement mode",
     "torus n=1024, K=100, r=8, two choices; M sweep",
     "distinct placement is mildly better (t(u) = M instead of >= deltaM)",
     30, 2000, ablation_placement},
    {"ext_heavy_load",
     "Extension — heavily loaded case (m = beta*n requests)",
     "torus n=2025, K=500, M=20, r=10; beta in {1,4,16}",
     "two-choice: L = m/n + O(log log n); nearest: excess grows with beta",
     20, 1000, ext_heavy_load},
    {"ext_hotspot", "Extension — hotspot demand vs dispatch radius",
     "torus n=2025, K=500, M=20; hotspot disc radius 3 at the center",
     "hotspot + small r overloads local servers; larger r spreads it", 25,
     2000, ext_hotspot},
    {"ext_one_plus_beta",
     "Extension — (1+beta) choices (probe-traffic savings)",
     "torus n=2025, K=500, M=20, r=10; beta in {0,.25,.5,.75,1}",
     "smooth ~linear interpolation between one-choice and two-choice", 40,
     2000, ext_one_plus_beta},
    {"ext_queueing", "Extension — supermarket model (paper §VI conjecture)",
     "torus n=400, K=100, M=10, Poisson arrivals, exp(1) service, lambda "
     "sweep",
     "JSQ(2)-within-radius keeps queues shorter than nearest-replica at "
     "high load",
     20, 200, ext_queueing},
    {"ext_scenarios",
     "Extension — workload scenarios beyond the paper's model",
     "torus n=2025, K=500, M=20; one workload preset per trace process",
     "the two-choice load advantage persists across every workload shape",
     20, 800, ext_scenarios},
    {"ext_stale_info",
     "Extension — stale load information (paper §VI polling)",
     "torus n=2025, K=500, M=20, r=10; snapshot refreshed every B requests",
     "balance survives realistic polling periods; collapses only when "
     "information never refreshes",
     30, 2000, ext_stale_info},
};

std::string claim_list() {
  std::ostringstream os;
  for (const Claim& claim : kClaims) {
    os << "  " << std::left << std::setw(28) << claim.name << claim.reference
       << "\n";
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("paper",
                 "reproduces the paper's claims, each a sweep with verdicts; "
                 "exits 1 when a verdict fails");
  args.add_string_list("claim", {},
                       "claim to run, by name (none given = every claim)");
  args.add_int("runs", 0,
               "replications per sweep point (0 = each claim's preset: quick "
               "unless --full)",
               0);
  args.add_flag("full", "use paper-scale replication counts");
  args.add_flag("csv", "emit CSV rows instead of aligned tables");
  args.add_int("seed", 0x5EED, "root seed for all randomness");
  args.add_int("threads", 0, "worker threads (0 = hardware concurrency)", 0,
               ThreadPool::kMaxThreads);
  const std::string usage = args.help_text() + "\nclaims:\n" + claim_list();
  try {
    args.parse(argc, argv);
  } catch (const CliError& error) {
    std::cerr << error.what() << "\n\n" << usage;
    return 2;
  }
  if (args.help_requested()) {
    std::cout << usage;
    return 0;
  }

  std::vector<const Claim*> selected;
  for (const std::string& name : args.get_string_list("claim")) {
    const Claim* claim =
        std::find_if(std::begin(kClaims), std::end(kClaims),
                     [&](const Claim& c) { return name == c.name; });
    if (claim == std::end(kClaims)) {
      std::cerr << "unknown claim '" << name << "'; the claims are:\n"
                << claim_list();
      return 2;
    }
    selected.push_back(claim);
  }
  if (selected.empty()) {
    for (const Claim& claim : kClaims) selected.push_back(&claim);
  }

  const bool full = args.get_flag("full");
  const auto runs = static_cast<std::size_t>(args.get_int("runs"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  ThreadPool pool(static_cast<unsigned>(args.get_int("threads")));
  std::size_t verdicts = 0;
  std::vector<std::string> failed;
  for (const Claim* claim : selected) {
    const std::size_t preset = full ? claim->paper_runs : claim->quick_runs;
    ClaimContext ctx{.runs = runs > 0 ? runs : preset,
                     .seed = seed,
                     .csv = args.get_flag("csv"),
                     .pool = pool};
    std::cout << "== " << claim->reference << " ==\n"
              << "paper setup:  " << claim->setup << "\n"
              << "paper shape:  " << claim->shape << "\n"
              << "replications: " << ctx.runs
              << (full ? " (paper scale)" : " (quick scale)") << ", seed "
              << seed << "\n\n";
    const WallTimer timer;
    claim->body(ctx);
    std::cout << "\n";
    std::cerr << "[time] " << claim->name << ": " << timer.seconds() << "s\n";
    verdicts += ctx.verdicts;
    for (const std::string& message : ctx.failed) {
      failed.push_back(std::string(claim->name) + ": " + message);
    }
  }
  std::cerr << "paper: " << verdicts - failed.size() << " of " << verdicts
            << " verdicts pass\n";
  for (const std::string& message : failed) {
    std::cerr << "  failed: " << message << "\n";
  }
  return failed.empty() ? 0 : 1;
}
