// Ablation bench: quantifies the design choices called out in DESIGN.md.
//
//   1. Scheduling policy — isolated (paper reading) vs cumulative
//      (Eq. 3's cross-bundle accounting): how much charging time does
//      one-to-many credit actually save?
//   2. BC-OPT evaluation — conservative covering-circle bound (Theorem
//      4/5 setting) vs exact farthest-member evaluation.
//   3. Charging-cost reading — energy-conserving (cost = radiated power)
//      vs the paper's literal 0.9 J/min vs a realistic 25 %-efficient
//      power amplifier (cost = 4x radiated): where does the optimal
//      bundle radius land under each?

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "tour/anneal.h"

namespace {

double mean_energy(const bc::support::CliFlags& flags,
                   const bc::core::Profile& profile, std::size_t n,
                   bc::tour::Algorithm algorithm, double radius) {
  return bc::sim::run_experiment(
             bc::bench::spec_from_flags(flags, profile, n, algorithm, radius))
      .total_energy_j.mean();
}

}  // namespace

int main(int argc, char** argv) {
  bc::support::CliFlags flags("ablations for the DESIGN.md design choices");
  bc::bench::define_common_flags(flags);
  flags.define_int("nodes", 150, "number of sensors");
  if (!flags.parse(argc, argv, std::cerr)) return 1;
  if (flags.help_requested()) return 0;
  bc::bench::ObsControl obs(flags);

  const auto n = static_cast<std::size_t>(flags.get_int("nodes"));
  const bc::core::Profile base = bc::bench::profile_from_flags(flags);

  // --- Ablation 1: scheduling policy -------------------------------------
  std::cout << "=== Ablation 1: scheduling policy (BC, n = " << n
            << ") — isolated (paper) vs cumulative vs the exact Eq. 3 LP "
               "===\n\n";
  bc::support::Table policy_table({"radius [m]", "isolated [J]",
                                   "cumulative [J]", "optimal LP [J]",
                                   "LP saving [%]"});
  for (const double r : std::vector<double>{20, 60, 120, 200}) {
    bc::core::Profile p = base;
    p.evaluation.policy = bc::sim::SchedulePolicy::kIsolated;
    const double iso = mean_energy(flags, p, n, bc::tour::Algorithm::kBc, r);
    p.evaluation.policy = bc::sim::SchedulePolicy::kCumulative;
    const double cum = mean_energy(flags, p, n, bc::tour::Algorithm::kBc, r);
    p.evaluation.policy = bc::sim::SchedulePolicy::kOptimalLp;
    const double opt = mean_energy(flags, p, n, bc::tour::Algorithm::kBc, r);
    policy_table.add_row({bc::support::Table::num(r, 0),
                          bc::support::Table::num(iso, 0),
                          bc::support::Table::num(cum, 0),
                          bc::support::Table::num(opt, 0),
                          bc::support::Table::num(
                              100.0 * (iso - opt) / iso, 1)});
  }
  bc::bench::print_table(flags, policy_table);

  // --- Ablation 2: BC-OPT candidate evaluation ---------------------------
  std::cout << "\n=== Ablation 2: BC-OPT conservative vs exact charging "
               "evaluation ===\n\n";
  bc::support::Table eval_table({"radius [m]", "BC [J]",
                                 "BC-OPT conservative [J]",
                                 "BC-OPT exact [J]"});
  for (const double r : std::vector<double>{10, 40, 80, 140}) {
    bc::core::Profile p = base;
    const double plain = mean_energy(flags, p, n, bc::tour::Algorithm::kBc, r);
    p.planner.opt.exact_charging_eval = false;
    const double cons =
        mean_energy(flags, p, n, bc::tour::Algorithm::kBcOpt, r);
    p.planner.opt.exact_charging_eval = true;
    const double exact =
        mean_energy(flags, p, n, bc::tour::Algorithm::kBcOpt, r);
    eval_table.add_row(
        {bc::support::Table::num(r, 0), bc::support::Table::num(plain, 0),
         bc::support::Table::num(cons, 0),
         bc::support::Table::num(exact, 0)});
  }
  bc::bench::print_table(flags, eval_table);

  // --- Ablation 3: charging-cost reading ---------------------------------
  std::cout << "\n=== Ablation 3: optimal BC radius under different "
               "charging-cost readings ===\n\n";
  struct Reading {
    const char* name;
    double cost_w;
  };
  const std::vector<Reading> readings{
      {"energy-conserving (3 W)", 3.0},
      {"paper literal (0.9 J/min)", 0.015},
      {"25% efficient PA (12 W)", 12.0},
  };
  bc::support::Table cost_table(
      {"reading", "best radius [m]", "BC energy at best [J]"});
  for (const Reading& reading : readings) {
    bc::core::Profile p = base;
    p.planner.charging =
        bc::charging::ChargingModel(36.0, 30.0, 3.0, reading.cost_w);
    p.evaluation.charging = p.planner.charging;
    double best_energy = 0.0;
    double best_radius = 0.0;
    for (const double r :
         std::vector<double>{5, 10, 20, 30, 40, 60, 90, 130, 180, 240}) {
      const double e = mean_energy(flags, p, n, bc::tour::Algorithm::kBc, r);
      if (best_radius == 0.0 || e < best_energy) {
        best_energy = e;
        best_radius = r;
      }
    }
    cost_table.add_row({reading.name, bc::support::Table::num(best_radius, 0),
                        bc::support::Table::num(best_energy, 0)});
  }
  bc::bench::print_table(flags, cost_table);
  std::cout << "\nReading 3 shows why the paper's interior optimum lands in "
               "its 5-40 m axis only when the charger's electrical draw "
               "well exceeds its radiated power.\n";

  // --- Ablation 4: the §II criticism, quantified ---------------------------
  std::cout << "\n=== Ablation 4: reach-only TSPN baseline [4, 6, 28] vs "
               "charging-aware stops ===\n\n";
  bc::support::Table tspn_table({"radius [m]", "TSPN [J]", "BC [J]",
                                 "BC-OPT [J]", "TSPN vs BC-OPT [%]"});
  for (const double r : std::vector<double>{20, 40, 80, 140}) {
    const double tspn =
        mean_energy(flags, base, n, bc::tour::Algorithm::kTspn, r);
    const double plain =
        mean_energy(flags, base, n, bc::tour::Algorithm::kBc, r);
    const double opt =
        mean_energy(flags, base, n, bc::tour::Algorithm::kBcOpt, r);
    tspn_table.add_row(
        {bc::support::Table::num(r, 0), bc::support::Table::num(tspn, 0),
         bc::support::Table::num(plain, 0), bc::support::Table::num(opt, 0),
         bc::support::Table::num(100.0 * (tspn - opt) / opt, 1)});
  }
  bc::bench::print_table(flags, tspn_table);
  std::cout << "\nTSPN merely reaches each neighbourhood (\"improper "
               "location leads to large charging cost\", §II) — its tours "
               "are shortest but BC-OPT's energy-aware stop placement wins "
               "on total energy.\n";

  // --- Ablation 5: how much does Algorithm 3's decomposition leave? ------
  std::cout << "\n=== Ablation 5: simulated-annealing joint optimisation "
               "headroom over BC-OPT ===\n\n";
  bc::support::Table anneal_table({"radius [m]", "BC-OPT [J]",
                                   "annealed [J]", "headroom [%]"});
  const auto anneal_runs =
      std::min<std::size_t>(8, static_cast<std::size_t>(flags.get_int("runs")));
  for (const double r : std::vector<double>{40, 80, 140}) {
    bc::support::RunningStat opt_stat;
    bc::support::RunningStat annealed_stat;
    for (std::size_t run = 0; run < anneal_runs; ++run) {
      bc::support::Rng rng(
          static_cast<std::uint64_t>(flags.get_int("seed")) + run);
      const bc::net::Deployment d =
          bc::net::uniform_random_deployment(n, base.field, rng);
      bc::tour::PlannerConfig cfg = base.planner;
      cfg.bundle_radius = r;
      const bc::tour::ChargingPlan opt = bc::tour::plan_charging_tour(
          d, bc::tour::Algorithm::kBcOpt, cfg);
      bc::tour::AnnealOptions anneal_options;
      anneal_options.iterations = 60000;
      const bc::tour::AnnealResult res = bc::tour::anneal_plan(
          d, opt, base.planner.charging, base.planner.movement,
          anneal_options);
      opt_stat.add(res.initial_energy_j);
      annealed_stat.add(res.best_energy_j);
    }
    anneal_table.add_row(
        {bc::support::Table::num(r, 0),
         bc::support::Table::num(opt_stat.mean(), 0),
         bc::support::Table::num(annealed_stat.mean(), 0),
         bc::support::Table::num(100.0 * (opt_stat.mean() -
                                          annealed_stat.mean()) /
                                     opt_stat.mean(),
                                 1)});
  }
  bc::bench::print_table(flags, anneal_table);
  std::cout << "\nJointly optimising positions, assignment and order "
               "(NP-hard per Theorem 3) recovers a few more percent — the "
               "price of Algorithm 3's frozen bundle assignment.\n";
  return 0;
}
