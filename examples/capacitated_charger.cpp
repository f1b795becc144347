// Example: a battery-limited mobile charger. Plans a BC-OPT tour, then
// splits it into depot-anchored trips that each fit the charger's battery
// — the capacity-constrained regime of the paper's baseline [4]: one
// charger, one depot. A battery too small for some stop's out-and-back
// trip is reported as a kBatteryShortfall fault (exit status 1).
//
//   ./capacitated_charger [--nodes=150] [--radius=60] [--battery=20000]

#include <iostream>

#include "core/bundlecharge.h"
#include "support/cli.h"
#include "support/table.h"

int main(int argc, char** argv) {
  bc::support::CliFlags flags(
      "capacitated_charger: split a charging tour into battery-sized trips");
  flags.define_int("nodes", 150, "number of sensors");
  flags.define_double("radius", 60.0, "bundle radius (m)");
  flags.define_double("battery", 20000.0, "charger battery capacity (J)");
  flags.define_int("seed", 31, "RNG seed");
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
  const bc::geometry::Point2 depot = result.plan.depot;
  const double single_trip = bc::tour::trip_energy_j(
      deployment, result.plan.stops, depot, depot, charging, movement);

  const double battery = flags.get_double("battery");
  std::cout << "BC-OPT tour needs "
            << bc::support::Table::num(single_trip, 0)
            << " J in one trip; battery holds "
            << bc::support::Table::num(battery, 0) << " J\n\n";

  bc::tour::DepotFleetOptions options;
  options.depots = {depot};
  options.battery_capacity_j = battery;
  const auto fleet = bc::tour::split_among_depot_fleet(
      deployment, result.plan, charging, movement, options);
  if (!fleet.has_value()) {
    std::cerr << bc::support::to_string(fleet.fault().kind) << ": "
              << fleet.fault().message << "\n";
    return 1;
  }
  const std::vector<bc::tour::DepotTrip>& trips =
      fleet.value().routes.front().trips;

  bc::support::Table table(
      {"trip", "stops", "length [m]", "energy [J]", "battery used [%]"});
  for (std::size_t t = 0; t < trips.size(); ++t) {
    const double energy = bc::tour::trip_energy_j(
        deployment, trips[t].stops, depot, depot, charging, movement);
    table.add_row(
        {bc::support::Table::num(static_cast<long long>(t + 1)),
         bc::support::Table::num(
             static_cast<long long>(trips[t].stops.size())),
         bc::support::Table::num(
             bc::tour::trip_length_m(trips[t].stops, depot, depot), 0),
         bc::support::Table::num(energy, 0),
         bc::support::Table::num(100.0 * energy / battery, 1)});
  }
  table.print(std::cout);

  const bc::tour::DepotFleetMetrics m = bc::tour::evaluate_depot_fleet(
      deployment, fleet.value(), options, charging, movement);
  std::cout << "\n" << m.num_trips << " trips, total "
            << bc::support::Table::num(m.total_energy_j, 0) << " J ("
            << bc::support::Table::num(
                   100.0 * (m.total_energy_j - single_trip) / single_trip, 1)
            << " % overhead from the extra depot legs).\n";
  return 0;
}
