// Fleet splitter tests. A golden corpus (depots_golden.txt) pins the
// single-depot reductions bit for bit: with a battery it is the
// capacitated multi-trip split of one charger (MultiTripTest), without
// one the makespan split among k chargers and its fleet sizing
// (FleetTest). Hand-computable 3-depot instances pin home-depot and
// trip-boundary selection, and battery-infeasible tours must split —
// never strand — or fault with a structured kBatteryShortfall naming the
// stop.

#include "tour/depots.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "support/require.h"
#include "support/rng.h"
#include "tour/planner.h"

namespace bc::tour {
namespace {

using geometry::Point2;

struct Fixture {
  net::Deployment deployment;
  ChargingPlan plan;
  charging::ChargingModel charging =
      charging::ChargingModel::icdcs2019_simulation();
  charging::MovementModel movement = charging::MovementModel::icdcs2019();
};

Fixture make_fixture(std::size_t n = 80, std::uint64_t seed = 1,
                     double radius = 60.0) {
  support::Rng rng(seed);
  net::FieldSpec spec;
  net::Deployment d = net::uniform_random_deployment(n, spec, rng);
  PlannerConfig config;
  config.bundle_radius = radius;
  ChargingPlan plan = plan_bc(d, config);
  return Fixture{std::move(d), std::move(plan)};
}

// A fleet of `k` chargers at the plan's own depot (battery 0 = unlimited).
DepotFleetOptions at_plan_depot(const Fixture& f, std::size_t k = 1,
                                double battery_j = 0.0) {
  DepotFleetOptions options;
  options.depots = {f.plan.depot};
  options.num_chargers = k;
  options.battery_capacity_j = battery_j;
  return options;
}

DepotFleetPlan split(const Fixture& f, const DepotFleetOptions& options) {
  auto fleet = split_among_depot_fleet(f.deployment, f.plan, f.charging,
                                       f.movement, options);
  return std::move(fleet).value();
}

DepotFleetMetrics evaluate(const Fixture& f, const DepotFleetPlan& fleet,
                           const DepotFleetOptions& options) {
  return evaluate_depot_fleet(f.deployment, fleet, options, f.charging,
                              f.movement);
}

double energy_j(const Fixture& f, std::span<const Stop> stops, Point2 start,
                Point2 end) {
  return trip_energy_j(f.deployment, stops, start, end, f.charging,
                       f.movement);
}

// The whole plan as one trip out of and back to its depot.
double whole_tour_j(const Fixture& f) {
  return energy_j(f, f.plan.stops, f.plan.depot, f.plan.depot);
}

double whole_tour_s(const Fixture& f) {
  double total = f.movement.move_time_s(plan_tour_length(f.plan));
  for (const Stop& stop : f.plan.stops) {
    total += isolated_stop_time_s(f.deployment, stop, f.charging);
  }
  return total;
}

// Smallest battery for which every stop is reachable out-and-back from
// its best depot.
double min_feasible_capacity(const Fixture& f,
                             std::span<const Point2> depots) {
  double worst = 0.0;
  for (const Stop& stop : f.plan.stops) {
    double best = std::numeric_limits<double>::infinity();
    for (const Point2 depot : depots) {
      best = std::min(best, energy_j(f, {&stop, 1}, depot, depot));
    }
    worst = std::max(worst, best);
  }
  return worst;
}

double min_feasible_capacity(const Fixture& f) {
  return min_feasible_capacity(f, {&f.plan.depot, 1});
}

std::vector<net::SensorId> fleet_members(const DepotFleetPlan& fleet) {
  std::vector<net::SensorId> ids;
  for (const DepotRoute& route : fleet.routes) {
    for (const DepotTrip& trip : route.trips) {
      for (const Stop& stop : trip.stops) {
        ids.insert(ids.end(), stop.members.begin(), stop.members.end());
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<net::SensorId> plan_members(const ChargingPlan& plan) {
  std::vector<net::SensorId> ids;
  for (const Stop& stop : plan.stops) {
    ids.insert(ids.end(), stop.members.begin(), stop.members.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// --- Golden corpus ---

// One corpus line, split into whitespace-separated tokens after the
// kind, n and seed.
struct GoldenLine {
  std::size_t n = 0;
  std::uint64_t seed = 0;
  std::vector<std::string> fields;

  double real(std::size_t i) const {
    return std::strtod(fields.at(i).c_str(), nullptr);
  }
  std::size_t count(std::size_t i) const {
    return static_cast<std::size_t>(std::stoull(fields.at(i)));
  }
  std::string where() const {
    return "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
  }
};

std::vector<GoldenLine> golden_lines(const std::string& kind) {
  std::ifstream in(BC_DEPOTS_GOLDEN_PATH);
  support::require(in.good(), "cannot open the depots golden corpus");
  std::vector<GoldenLine> lines;
  std::string text;
  while (std::getline(in, text)) {
    std::istringstream tokens(text);
    std::string k;
    GoldenLine line;
    if (!(tokens >> k) || k != kind) continue;
    tokens >> line.n >> line.seed;
    for (std::string field; tokens >> field;) line.fields.push_back(field);
    lines.push_back(std::move(line));
  }
  return lines;
}

// The corpus plans, built once per (n, seed).
const Fixture& corpus_fixture(const GoldenLine& line) {
  static std::map<std::pair<std::size_t, std::uint64_t>, Fixture> cache;
  const auto key = std::make_pair(line.n, line.seed);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, make_fixture(line.n, line.seed)).first;
  }
  return it->second;
}

void expect_same_stops(std::span<const Stop> got, std::span<const Stop> want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].position.x, want[s].position.x) << where;
    EXPECT_EQ(got[s].position.y, want[s].position.y) << where;
    EXPECT_EQ(got[s].members, want[s].members) << where;
  }
}

// --- Single-depot reductions, bit for bit against the corpus ---

TEST(DepotFleetTest, SingleDepotReducesToSplitAmongChargersBitForBit) {
  const std::vector<GoldenLine> lines = golden_lines("fleet");
  ASSERT_EQ(lines.size(), 400u);
  for (const GoldenLine& line : lines) {
    const Fixture& f = corpus_fixture(line);
    const std::size_t k = line.count(0);
    const std::string where = line.where() + " k=" + std::to_string(k);
    const DepotFleetOptions options = at_plan_depot(f, k);
    const DepotFleetPlan fleet = split(f, options);
    ASSERT_EQ(fleet.routes.size(), k) << where;
    ASSERT_EQ(line.fields.size(), k + 2) << where;
    std::size_t first = 0;
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t last = line.count(2 + r);
      const DepotRoute& route = fleet.routes[r];
      EXPECT_EQ(route.home_depot, 0u) << where;
      if (first == last) {
        EXPECT_TRUE(route.trips.empty()) << where << " idle charger " << r;
        continue;
      }
      // Unconstrained battery: exactly one trip, home -> stops -> home.
      ASSERT_EQ(route.trips.size(), 1u) << where << " route " << r;
      EXPECT_EQ(route.trips[0].start_depot, 0u);
      EXPECT_EQ(route.trips[0].end_depot, 0u);
      expect_same_stops(route.trips[0].stops,
                        std::span(f.plan.stops).subspan(first, last - first),
                        where);
      first = last;
    }
    EXPECT_EQ(evaluate(f, fleet, options).makespan_s, line.real(1)) << where;
  }
}

TEST(DepotFleetTest, SingleDepotBatteryReducesToSplitIntoTripsBitForBit) {
  const std::vector<GoldenLine> lines = golden_lines("trips");
  ASSERT_EQ(lines.size(), 500u);
  for (const GoldenLine& line : lines) {
    const Fixture& f = corpus_fixture(line);
    const std::string where = line.where() + " battery=" + line.fields[0];
    const DepotFleetOptions options = at_plan_depot(f, 1, line.real(0));
    const DepotFleetPlan fleet = split(f, options);
    ASSERT_EQ(fleet.routes.size(), 1u) << where;
    const std::vector<DepotTrip>& trips = fleet.routes[0].trips;
    const std::size_t num_trips = line.count(1);
    ASSERT_EQ(trips.size(), num_trips) << where;
    double total = 0.0;
    std::size_t end = 0;
    for (std::size_t t = 0; t < num_trips; ++t) {
      EXPECT_EQ(trips[t].start_depot, 0u) << where;
      EXPECT_EQ(trips[t].end_depot, 0u) << where;
      end += trips[t].stops.size();
      EXPECT_EQ(end, line.count(2 + t)) << where << " trip " << t;
      const double energy =
          energy_j(f, trips[t].stops, f.plan.depot, f.plan.depot);
      EXPECT_EQ(energy, line.real(2 + num_trips + t)) << where;
      total += line.real(2 + num_trips + t);
    }
    EXPECT_EQ(evaluate(f, fleet, options).total_energy_j, total) << where;
  }
}

TEST(DepotFleetTest, MinimumFleetSizeMatchesTheRecordedAnswers) {
  const std::vector<GoldenLine> lines = golden_lines("minfleet");
  ASSERT_EQ(lines.size(), 400u);
  for (const GoldenLine& line : lines) {
    const Fixture& f = corpus_fixture(line);
    EXPECT_EQ(minimum_fleet_size(f.deployment, f.plan, f.charging,
                                 f.movement, {&f.plan.depot, 1},
                                 line.real(0)),
              line.count(1))
        << line.where() << " deadline=" << line.fields[0];
  }
}

// Three depots with a battery: the trip boundary-shift pass may only
// lower the energy and the makespan recorded before it existed.
TEST(DepotFleetTest, BoundaryShiftNeverRaisesEnergyOrMakespan) {
  const std::vector<GoldenLine> lines = golden_lines("depots");
  ASSERT_EQ(lines.size(), 360u);
  DepotFleetOptions options;
  options.depots = {Point2{0.0, 0.0}, Point2{1000.0, 0.0},
                    Point2{500.0, 1000.0}};
  for (const GoldenLine& line : lines) {
    const Fixture& f = corpus_fixture(line);
    options.num_chargers = line.count(0);
    options.battery_capacity_j = line.real(1);
    const std::string where = line.where() + " k=" + line.fields[0] +
                              " battery=" + line.fields[1];
    const auto fleet = split_among_depot_fleet(f.deployment, f.plan,
                                               f.charging, f.movement,
                                               options);
    ASSERT_TRUE(fleet.has_value()) << where << ": " << fleet.fault().message;
    const DepotFleetMetrics m = evaluate(f, fleet.value(), options);
    EXPECT_LE(m.total_energy_j, line.real(2)) << where;
    EXPECT_LE(m.makespan_s, line.real(3)) << where;
    EXPECT_EQ(fleet_members(fleet.value()), plan_members(f.plan)) << where;
    EXPECT_LE(m.max_trip_energy_j, options.battery_capacity_j) << where;
  }
}

// --- 3-depot analytic pins on a hand-computable instance ---

// Four sensors on a 1000 m line, depots at both ends and the middle.
// Demands are tiny so movement dominates every choice.
struct LineWorld {
  net::Deployment deployment = [] {
    std::vector<geometry::Point2> positions = {
        {100.0, 0.0}, {200.0, 0.0}, {800.0, 0.0}, {900.0, 0.0}};
    const geometry::Box2 field{{0.0, 0.0}, {1000.0, 10.0}};
    return net::Deployment(std::move(positions), field, Point2{0.0, 0.0},
                           100.0);
  }();
  ChargingPlan plan = [] {
    ChargingPlan p;
    p.depot = Point2{0.0, 0.0};
    p.stops = {Stop{{100.0, 0.0}, {0}},
               Stop{{200.0, 0.0}, {1}},
               Stop{{800.0, 0.0}, {2}},
               Stop{{900.0, 0.0}, {3}}};
    return p;
  }();
  charging::ChargingModel charging =
      charging::ChargingModel::icdcs2019_simulation();
  charging::MovementModel movement = charging::MovementModel::icdcs2019();
  DepotFleetOptions options = [] {
    DepotFleetOptions o;
    o.depots = {Point2{0.0, 0.0}, Point2{500.0, 0.0}, Point2{1000.0, 0.0}};
    return o;
  }();
};

TEST(DepotFleetTest, TwoChargersSplitTheLineBetweenEndDepots) {
  LineWorld w;
  w.options.num_chargers = 2;
  const auto fleet = split_among_depot_fleet(w.deployment, w.plan,
                                             w.charging, w.movement,
                                             w.options);
  ASSERT_TRUE(fleet.has_value()) << fleet.fault().message;
  // The natural split is {100, 200} | {800, 900}; the left route homes at
  // depot 0 (x=0) and the right route at depot 2 (x=1000).
  std::vector<std::size_t> homes;
  for (const DepotRoute& route : fleet.value().routes) {
    if (!route.trips.empty()) homes.push_back(route.home_depot);
  }
  ASSERT_EQ(homes.size(), 2u);
  std::sort(homes.begin(), homes.end());
  EXPECT_EQ(homes[0], 0u);
  EXPECT_EQ(homes[1], 2u);
  EXPECT_EQ(fleet_members(fleet.value()), plan_members(w.plan));
}

TEST(DepotFleetTest, OneChargerHomesAtTheCheapestDepot) {
  LineWorld w;
  w.options.num_chargers = 1;
  const auto fleet = split_among_depot_fleet(w.deployment, w.plan,
                                             w.charging, w.movement,
                                             w.options);
  ASSERT_TRUE(fleet.has_value()) << fleet.fault().message;
  ASSERT_EQ(fleet.value().routes.size(), 1u);
  const DepotRoute& route = fleet.value().routes[0];
  // Out-and-back from x=0 or x=1000 costs 1800 m; from the middle depot
  // 500 -> 100 -> 900 -> 500 costs 1600 m. The middle depot must win.
  EXPECT_EQ(route.home_depot, 1u);
  ASSERT_EQ(route.trips.size(), 1u);
  EXPECT_EQ(route.trips[0].start_depot, 1u);
  EXPECT_EQ(route.trips[0].end_depot, 1u);
}

TEST(DepotFleetTest, DepotTiesBreakTowardTheLowestIndex) {
  LineWorld w;
  w.options.num_chargers = 1;
  // Duplicate the winning middle depot; the earlier copy must be chosen.
  w.options.depots = {Point2{500.0, 0.0}, Point2{500.0, 0.0},
                      Point2{0.0, 0.0}};
  const auto fleet = split_among_depot_fleet(w.deployment, w.plan,
                                             w.charging, w.movement,
                                             w.options);
  ASSERT_TRUE(fleet.has_value()) << fleet.fault().message;
  EXPECT_EQ(fleet.value().routes[0].home_depot, 0u);
}

// --- Battery feasibility: split, never strand ---

TEST(DepotFleetTest, TightBatterySplitsIntoFeasibleTrips) {
  LineWorld w;
  w.options.num_chargers = 1;
  // Enough battery for one out-and-back to the farthest stop from the
  // middle depot, but nowhere near enough for the whole route in one go.
  const Point2 middle = w.options.depots[1];
  const double worst =
      trip_energy_j(w.deployment, {&w.plan.stops[3], 1}, middle, middle,
                    w.charging, w.movement);
  w.options.battery_capacity_j = worst * 1.3;
  const auto fleet = split_among_depot_fleet(w.deployment, w.plan,
                                             w.charging, w.movement,
                                             w.options);
  ASSERT_TRUE(fleet.has_value()) << fleet.fault().message;
  // All stops covered, every trip within the battery.
  EXPECT_EQ(fleet_members(fleet.value()), plan_members(w.plan));
  const DepotFleetMetrics m = evaluate_depot_fleet(
      w.deployment, fleet.value(), w.options, w.charging, w.movement);
  EXPECT_GT(m.num_trips, 1u) << "a tight battery must force a split";
  EXPECT_LE(m.max_trip_energy_j, w.options.battery_capacity_j * (1 + 1e-9));
  // Trips chain and the route closes at home.
  for (const DepotRoute& route : fleet.value().routes) {
    if (route.trips.empty()) continue;
    EXPECT_EQ(route.trips.front().start_depot, route.home_depot);
    EXPECT_EQ(route.trips.back().end_depot, route.home_depot);
    for (std::size_t t = 0; t + 1 < route.trips.size(); ++t) {
      EXPECT_EQ(route.trips[t].end_depot, route.trips[t + 1].start_depot);
    }
  }
}

TEST(DepotFleetTest, RandomPlansSplitFeasiblyUnderManyCapacities) {
  const Fixture f = make_fixture(70, 21);
  DepotFleetOptions options;
  options.depots = {Point2{0.0, 0.0}, Point2{1000.0, 0.0},
                    Point2{500.0, 1000.0}};
  options.num_chargers = 2;
  // Worst single-stop out-and-back from the best depot sets the floor for
  // a feasible capacity.
  const double floor = min_feasible_capacity(f, options.depots);
  for (const double factor : {1.05, 1.5, 3.0, 10.0}) {
    options.battery_capacity_j = floor * factor;
    const auto fleet = split_among_depot_fleet(f.deployment, f.plan,
                                               f.charging, f.movement,
                                               options);
    ASSERT_TRUE(fleet.has_value())
        << "factor " << factor << ": " << fleet.fault().message;
    EXPECT_EQ(fleet_members(fleet.value()), plan_members(f.plan))
        << "factor " << factor;
    const DepotFleetMetrics m = evaluate(f, fleet.value(), options);
    EXPECT_LE(m.max_trip_energy_j,
              options.battery_capacity_j * (1 + 1e-9))
        << "factor " << factor;
  }
}

TEST(DepotFleetTest, ImpossibleStopFaultsWithBatteryShortfallNamingIt) {
  LineWorld w;
  w.options.num_chargers = 1;
  // Far too small for even one out-and-back anywhere.
  w.options.battery_capacity_j = 1.0;
  const auto fleet = split_among_depot_fleet(w.deployment, w.plan,
                                             w.charging, w.movement,
                                             w.options);
  ASSERT_FALSE(fleet.has_value());
  EXPECT_EQ(fleet.fault().kind, support::FaultKind::kBatteryShortfall);
  EXPECT_NE(fleet.fault().message.find("stop"), std::string::npos);
}

TEST(DepotFleetTest, PreconditionsAreEnforced) {
  const Fixture f = make_fixture(20, 5);
  DepotFleetOptions no_depots;
  EXPECT_THROW(split_among_depot_fleet(f.deployment, f.plan, f.charging,
                                       f.movement, no_depots),
               support::PreconditionError);
  EXPECT_THROW(split(f, at_plan_depot(f, 0)), support::PreconditionError);
  EXPECT_THROW(split(f, at_plan_depot(f, 1, -1.0)),
               support::PreconditionError);
  EXPECT_THROW(minimum_fleet_size(f.deployment, f.plan, f.charging,
                                  f.movement, {}, 3600.0),
               support::PreconditionError);
}

TEST(DepotFleetTest, MoreDepotsNeverRaiseTheMakespan) {
  const Fixture f = make_fixture(80, 9);
  const DepotFleetOptions one = at_plan_depot(f, 3);
  DepotFleetOptions three = one;
  three.depots.push_back(Point2{1000.0, 1000.0});
  three.depots.push_back(Point2{500.0, 500.0});
  const DepotFleetMetrics ma = evaluate(f, split(f, one), one);
  const DepotFleetMetrics mb = evaluate(f, split(f, three), three);
  EXPECT_LE(mb.makespan_s, ma.makespan_s * (1.0 + 1e-5))
      << "extra depots can only help per-route homes";
}

// --- One charger, one depot, a battery: the multi-trip regime of [4] ---

TEST(MultiTripTest, UnlimitedBatteryKeepsOneTrip) {
  const Fixture f = make_fixture();
  for (const double battery : {0.0, 1e12}) {
    const DepotFleetPlan fleet = split(f, at_plan_depot(f, 1, battery));
    ASSERT_EQ(fleet.routes.size(), 1u);
    ASSERT_EQ(fleet.routes[0].trips.size(), 1u) << "battery " << battery;
    EXPECT_EQ(fleet.routes[0].trips[0].stops.size(), f.plan.stops.size());
  }
}

TEST(MultiTripTest, EveryTripRespectsTheBattery) {
  const Fixture f = make_fixture();
  const double capacity =
      std::max(whole_tour_j(f) / 4.0, min_feasible_capacity(f) * 1.05);
  const DepotFleetOptions options = at_plan_depot(f, 1, capacity);
  const DepotFleetPlan fleet = split(f, options);
  const std::vector<DepotTrip>& trips = fleet.routes[0].trips;
  EXPECT_GE(trips.size(), 2u);
  for (const DepotTrip& trip : trips) {
    ASSERT_LE(energy_j(f, trip.stops, f.plan.depot, f.plan.depot),
              capacity + 1e-6);
  }
  const DepotFleetMetrics m = evaluate(f, fleet, options);
  EXPECT_LE(m.max_trip_energy_j, capacity + 1e-6);
  EXPECT_EQ(m.num_trips, trips.size());
  EXPECT_EQ(m.num_deadhead_trips, 0u);
}

TEST(MultiTripTest, MembershipIsPreserved) {
  const Fixture f = make_fixture(100, 3);
  const double capacity =
      std::max(whole_tour_j(f) / 3.0, min_feasible_capacity(f) * 1.05);
  EXPECT_EQ(fleet_members(split(f, at_plan_depot(f, 1, capacity))),
            plan_members(f.plan));
}

TEST(MultiTripTest, SplittingCostsExtraDepotLegs) {
  const Fixture f = make_fixture();
  const double full = whole_tour_j(f);
  const DepotFleetOptions options = at_plan_depot(f, 1, full / 3.0);
  const DepotFleetMetrics m = evaluate(f, split(f, options), options);
  EXPECT_GT(m.total_energy_j, full);
  EXPECT_GT(m.total_tour_length_m, plan_tour_length(f.plan));
  // Charging cost is unchanged by splitting (same stops, same times):
  // everything above the movement energy is charging.
  double charge = 0.0;
  for (const Stop& stop : f.plan.stops) {
    charge += f.charging.cost_of_stop_j(
        isolated_stop_time_s(f.deployment, stop, f.charging));
  }
  EXPECT_NEAR(m.total_energy_j -
                  f.movement.move_energy_j(m.total_tour_length_m),
              charge, 1e-9 * m.total_energy_j);
}

TEST(MultiTripTest, TighterBatteryNeverMeansFewerTrips) {
  const Fixture f = make_fixture(90, 5);
  const double full = whole_tour_j(f);
  const double floor_capacity = min_feasible_capacity(f) * 1.05;
  std::size_t previous = 1;
  for (const double divider : {1.5, 2.5, 4.0, 6.0}) {
    const double capacity = std::max(full / divider, floor_capacity);
    const DepotFleetPlan fleet = split(f, at_plan_depot(f, 1, capacity));
    ASSERT_GE(fleet.routes[0].trips.size(), previous);
    previous = fleet.routes[0].trips.size();
  }
}

TEST(MultiTripTest, ImpossibleCapacityIsRejected) {
  const Fixture f = make_fixture(20, 7);
  // A capacity below any single out-and-back faults, naming the stop.
  const auto fleet = split_among_depot_fleet(
      f.deployment, f.plan, f.charging, f.movement, at_plan_depot(f, 1, 1.0));
  ASSERT_FALSE(fleet.has_value());
  EXPECT_EQ(fleet.fault().kind, support::FaultKind::kBatteryShortfall);
  EXPECT_EQ(fleet.fault().stop_index, 0u);
}

// --- k chargers, one depot, no battery limit: the [26, 27] fleet ---

TEST(FleetTest, SingleChargerEqualsTheOriginalPlan) {
  const Fixture f = make_fixture();
  const DepotFleetOptions options = at_plan_depot(f);
  const DepotFleetPlan fleet = split(f, options);
  ASSERT_EQ(fleet.routes.size(), 1u);
  ASSERT_EQ(fleet.routes[0].trips.size(), 1u);
  expect_same_stops(fleet.routes[0].trips[0].stops, f.plan.stops, "k=1");
  EXPECT_EQ(evaluate(f, fleet, options).makespan_s, whole_tour_s(f));
}

TEST(FleetTest, MembershipIsPreserved) {
  const Fixture f = make_fixture(90, 3);
  EXPECT_EQ(fleet_members(split(f, at_plan_depot(f, 4))),
            plan_members(f.plan));
}

TEST(FleetTest, MoreChargersNeverRaiseTheMakespan) {
  const Fixture f = make_fixture();
  double previous = std::numeric_limits<double>::infinity();
  for (const std::size_t k : {1u, 2u, 3u, 5u, 8u}) {
    const DepotFleetOptions options = at_plan_depot(f, k);
    const DepotFleetMetrics m = evaluate(f, split(f, options), options);
    ASSERT_LE(m.makespan_s, previous + 1e-6) << "k=" << k;
    ASSERT_LE(m.num_routes, k);
    previous = m.makespan_s;
  }
}

TEST(FleetTest, ParallelismCutsTheMakespanSubstantially) {
  const Fixture f = make_fixture(120, 5);
  const DepotFleetOptions four = at_plan_depot(f, 4);
  const DepotFleetMetrics m = evaluate(f, split(f, four), four);
  // Perfect speedup is 4x; depot overheads eat some of it. Expect at
  // least 2x.
  EXPECT_LT(m.makespan_s, whole_tour_s(f) / 2.0);
  // Parallelism costs total energy (extra depot legs) versus one charger.
  EXPECT_GT(m.total_energy_j, whole_tour_j(f));
}

TEST(FleetTest, ExcessChargersLeaveIdleRoutes) {
  const Fixture f = make_fixture(10, 7, 300.0);  // few stops
  const DepotFleetOptions options = at_plan_depot(f, 20);
  const DepotFleetPlan fleet = split(f, options);
  EXPECT_EQ(fleet.routes.size(), 20u);
  EXPECT_LE(evaluate(f, fleet, options).num_routes, f.plan.stops.size());
}

TEST(FleetTest, MinimumFleetSizeIsConsistentWithTheSplit) {
  const Fixture f = make_fixture(60, 9);
  // A deadline of half the solo time needs at least 2 chargers; the size
  // reported must achieve the deadline when splitting, and one charger
  // fewer must miss it (minimality) — at the plan depot and over three
  // depots, where each route is timed under its best depot.
  const double deadline = whole_tour_s(f) / 2.0;
  DepotFleetOptions options = at_plan_depot(f);
  for (const std::size_t num_depots : {1u, 3u}) {
    if (num_depots == 3) {
      options.depots.push_back(Point2{1000.0, 0.0});
      options.depots.push_back(Point2{500.0, 1000.0});
    }
    const std::size_t k =
        minimum_fleet_size(f.deployment, f.plan, f.charging, f.movement,
                           options.depots, deadline);
    ASSERT_GE(k, 2u) << num_depots << " depots";
    options.num_chargers = k;
    EXPECT_LE(evaluate(f, split(f, options), options).makespan_s,
              deadline + 1e-6)
        << num_depots << " depots";
    options.num_chargers = k - 1;
    EXPECT_GT(evaluate(f, split(f, options), options).makespan_s, deadline)
        << num_depots << " depots";
  }
}

TEST(FleetTest, GenerousDeadlineNeedsOneCharger) {
  const Fixture f = make_fixture(40, 11);
  EXPECT_EQ(minimum_fleet_size(f.deployment, f.plan, f.charging, f.movement,
                               {&f.plan.depot, 1}, whole_tour_s(f) * 1.01),
            1u);
}

TEST(FleetTest, ImpossibleDeadlineIsRejected) {
  const Fixture f = make_fixture(20, 13);
  EXPECT_THROW(minimum_fleet_size(f.deployment, f.plan, f.charging,
                                  f.movement, {&f.plan.depot, 1}, 1.0),
               support::PreconditionError);
}

}  // namespace
}  // namespace bc::tour
