// Fleet splitting: k chargers, m depots, a per-trip battery.
//
// The paper notes (like its baseline [4]) that a real mobile charger
// carries a finite battery, and its related work ([26, 27]) asks how many
// chargers a network needs and how to divide the sensors among them. Real
// deployments also often have several charging depots — maintenance sheds
// at the field's corners. This module answers all three with one
// splitter that keeps the stop order of the underlying plan (which the
// TSP already optimised):
//
//  * Phase 1 cuts the stop sequence into k consecutive per-charger routes
//    minimising the fleet makespan (the slowest charger's mission time):
//    binary search over the makespan with a greedy consecutive-split
//    feasibility check, then a boundary-shift pass. Each candidate route
//    is timed under its best depot.
//  * Phase 2 anchors each route at that best ("home") depot.
//  * Phase 3 cuts each route into battery-feasible trips. Greedy in tour
//    order; a trip closes at the feasible depot whose insertion between
//    the boundary stops detours least (tour::insertion_detour). A
//    boundary-shift pass then moves a head or tail stop across a trip
//    boundary, depots held fixed, whenever that lowers the two trips'
//    summed energy and the receiving trip stays within the battery.
//  * All tie-breaks are deterministic: depot candidates are scanned in
//    ascending index with strict `<`, so the lowest-index depot wins ties
//    and results are reproducible across runs and thread counts.
//
// One depot and k = 1 is the capacitated multi-trip split of [4]; one
// depot and no battery is the plain makespan split among k chargers.
// tests/tour/depots_golden.txt pins both reductions bit for bit.
//
// The charger's battery resets at every depot visit (swap or recharge), so
// a trip — the segment between consecutive depot visits — is the unit of
// battery feasibility. A trip may start and end at different depots;
// consecutive trips of a route chain (trip i ends where trip i+1 starts)
// and the route ends back at its home depot.
//
// Infeasibility is a structured fault, never a silent drop: when some
// stop cannot be served within the battery from any depot pair, the
// splitter returns FaultKind::kBatteryShortfall naming the stop — a
// battery-infeasible tour must split, never strand.

#ifndef BUNDLECHARGE_TOUR_DEPOTS_H_
#define BUNDLECHARGE_TOUR_DEPOTS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "charging/model.h"
#include "charging/movement.h"
#include "net/metric.h"
#include "support/expected.h"
#include "tour/plan.h"

namespace bc::tour {

struct DepotFleetOptions {
  // Candidate charging depots; must be non-empty. Index order matters
  // only for tie-breaking (lowest index wins ties).
  std::vector<geometry::Point2> depots;
  std::size_t num_chargers = 1;
  // Charger battery capacity in joules; 0 disables per-trip splitting
  // (each route is one depot-closed trip at its home depot).
  double battery_capacity_j = 0.0;
  // Movement metric for every leg (null = Euclidean).
  const net::MetricSpace* metric = nullptr;
};

// One battery-feasible leg of a route: start depot -> stops -> end depot.
// A deadhead trip (empty stops) relocates the charger between depots.
struct DepotTrip {
  std::size_t start_depot = 0;  // index into DepotFleetOptions::depots
  std::size_t end_depot = 0;
  std::vector<Stop> stops;
};

// One charger's mission: trips chain (trips[i].end_depot ==
// trips[i+1].start_depot), starting and ending at the home depot.
struct DepotRoute {
  std::size_t home_depot = 0;
  std::vector<DepotTrip> trips;
};

struct DepotFleetPlan {
  // One route per charger (possibly with zero trips when idle);
  // concatenating the routes' stops reproduces the input plan's stops.
  std::vector<DepotRoute> routes;
};

struct DepotFleetMetrics {
  std::size_t num_routes = 0;  // routes with at least one stop
  std::size_t num_trips = 0;   // trips with at least one stop
  std::size_t num_deadhead_trips = 0;
  double makespan_s = 0.0;
  double total_energy_j = 0.0;
  double total_tour_length_m = 0.0;
  double max_trip_energy_j = 0.0;  // <= battery capacity when constrained
  std::vector<double> route_times_s;  // per non-idle route
};

// Movement length of one trip under `metric` (null = Euclidean):
// start -> stops in order -> end.
double trip_length_m(std::span<const Stop> stops, geometry::Point2 start,
                     geometry::Point2 end,
                     const net::MetricSpace* metric = nullptr);

// Battery drain of one trip: movement energy over trip_length_m + the
// isolated charging cost at its stops. The quantity the splitter bounds
// by the battery capacity.
double trip_energy_j(const net::Deployment& deployment,
                     std::span<const Stop> stops, geometry::Point2 start,
                     geometry::Point2 end,
                     const charging::ChargingModel& charging,
                     const charging::MovementModel& movement,
                     const net::MetricSpace* metric = nullptr);

// Splits `plan` among options.num_chargers chargers over
// options.depots, minimising the fleet makespan, then cuts each route
// into battery-feasible trips when options.battery_capacity_j > 0.
// plan.depot is ignored — depots come from the options. Faults with
// kBatteryShortfall (naming the stop) when a stop cannot be served
// within the battery from any depot, or when a required depot-to-depot
// relocation exceeds the battery. Preconditions: depots non-empty,
// num_chargers >= 1, battery_capacity_j >= 0.
support::Expected<DepotFleetPlan> split_among_depot_fleet(
    const net::Deployment& deployment, const ChargingPlan& plan,
    const charging::ChargingModel& charging,
    const charging::MovementModel& movement, const DepotFleetOptions& options);

DepotFleetMetrics evaluate_depot_fleet(const net::Deployment& deployment,
                                       const DepotFleetPlan& fleet,
                                       const DepotFleetOptions& options,
                                       const charging::ChargingModel& charging,
                                       const charging::MovementModel& movement);

// Smallest fleet whose makespan meets `deadline_s` (the [26, 27] sizing
// question), each route timed under its best depot exactly as in the
// splitter's phase 1; battery limits do not enter. 0 for a plan without
// stops. Preconditions: depots non-empty, deadline_s > 0, and every
// single stop alone meets the deadline from some depot — otherwise no
// fleet size can help and a PreconditionError is thrown.
std::size_t minimum_fleet_size(const net::Deployment& deployment,
                               const ChargingPlan& plan,
                               const charging::ChargingModel& charging,
                               const charging::MovementModel& movement,
                               std::span<const geometry::Point2> depots,
                               double deadline_s,
                               const net::MetricSpace* metric = nullptr);

}  // namespace bc::tour

#endif  // BUNDLECHARGE_TOUR_DEPOTS_H_
