// Example: sizing and operating a fleet of mobile chargers — the
// minimum-chargers question of the paper's related work [26, 27]. All
// chargers share the deployment depot and have unlimited batteries.
//
//   ./charger_fleet [--nodes=200] [--radius=60] [--deadline-min=60]

#include <iostream>

#include "core/bundlecharge.h"
#include "support/cli.h"
#include "support/table.h"

int main(int argc, char** argv) {
  bc::support::CliFlags flags(
      "charger_fleet: split a charging mission among k chargers");
  flags.define_int("nodes", 200, "number of sensors");
  flags.define_double("radius", 60.0, "bundle radius (m)");
  flags.define_double("deadline-min", 60.0,
                      "mission deadline in minutes (for fleet sizing)");
  flags.define_int("seed", 41, "RNG seed");
  if (!flags.parse(argc, argv, std::cerr)) return 1;
  if (flags.help_requested()) return 0;

  bc::core::Profile profile = bc::core::icdcs2019_simulation_profile();
  profile.planner.bundle_radius = flags.get_double("radius");
  bc::support::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const bc::net::Deployment deployment = bc::net::uniform_random_deployment(
      static_cast<std::size_t>(flags.get_int("nodes")), profile.field, rng);
  const bc::charging::ChargingModel& charging = profile.planner.charging;
  const bc::charging::MovementModel& movement = profile.planner.movement;

  const bc::core::BundleChargingPlanner planner(profile);
  const bc::core::PlanResult result =
      planner.plan(deployment, bc::tour::Algorithm::kBcOpt);

  bc::tour::DepotFleetOptions options;
  options.depots = {result.plan.depot};
  bc::support::Table table({"chargers", "makespan [min]", "speedup",
                            "total energy [J]", "energy overhead [%]"});
  double solo_s = 0.0;
  double base_energy = 0.0;
  for (const std::size_t k : {1u, 2u, 3u, 4u, 6u, 8u}) {
    options.num_chargers = k;
    // Unlimited battery: the split cannot fault.
    const auto fleet = bc::tour::split_among_depot_fleet(
        deployment, result.plan, charging, movement, options);
    const bc::tour::DepotFleetMetrics m = bc::tour::evaluate_depot_fleet(
        deployment, fleet.value(), options, charging, movement);
    if (k == 1) {
      solo_s = m.makespan_s;
      base_energy = m.total_energy_j;
      std::cout << "one charger finishes the BC-OPT mission in "
                << bc::support::Table::num(solo_s / 60.0, 1) << " min\n\n";
    }
    table.add_row(
        {bc::support::Table::num(static_cast<long long>(k)),
         bc::support::Table::num(m.makespan_s / 60.0, 1),
         bc::support::Table::num(solo_s / m.makespan_s, 2) + "x",
         bc::support::Table::num(m.total_energy_j, 0),
         bc::support::Table::num(
             100.0 * (m.total_energy_j - base_energy) / base_energy, 1)});
  }
  table.print(std::cout);

  const double deadline_s = flags.get_double("deadline-min") * 60.0;
  const std::size_t needed = bc::tour::minimum_fleet_size(
      deployment, result.plan, charging, movement, options.depots,
      deadline_s);
  std::cout << "\nto finish within "
            << bc::support::Table::num(deadline_s / 60.0, 0)
            << " min you need " << needed << " charger(s).\n";
  return 0;
}
