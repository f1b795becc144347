// Differential oracle suite: a GraphMetric with zero obstacles must be
// byte-identical to the null (Euclidean) metric through every planner,
// the evaluator, the fleet splitter, splice, the annealer, and the
// replanner — at BC_THREADS=1, 2 and 8. Any divergence means a call site
// swapped the FP sequence or routed a distance around the metric.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "net/deployment.h"
#include "net/metric.h"
#include "sim/evaluate.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "tour/anneal.h"
#include "tour/depots.h"
#include "tour/planner.h"
#include "tour/replan.h"
#include "tour/splice.h"

namespace bc {
namespace {

using geometry::Point2;

// A zero-obstacle waypoint graph. Its line-of-sight shortcut fires on
// every query, so distances are exactly geometry::distance — the graph
// content is irrelevant to values, only to code paths.
std::shared_ptr<const net::GraphMetric> oracle_metric() {
  net::WaypointGraph graph;
  for (int gx = 0; gx < 4; ++gx) {
    for (int gy = 0; gy < 4; ++gy) {
      graph.nodes.push_back(Point2{gx * 300.0, gy * 300.0});
    }
  }
  for (std::uint32_t i = 0; i + 1 < graph.nodes.size(); ++i) {
    graph.edges.push_back(
        {i, i + 1,
         geometry::distance(graph.nodes[i], graph.nodes[i + 1])});
  }
  return std::make_shared<net::GraphMetric>(std::move(graph));
}

net::Deployment make_deployment(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  net::FieldSpec spec;
  return net::uniform_random_deployment(n, spec, rng);
}

void expect_identical(const tour::ChargingPlan& a,
                      const tour::ChargingPlan& b, const char* what) {
  ASSERT_EQ(a.stops.size(), b.stops.size()) << what;
  EXPECT_EQ(a.depot.x, b.depot.x) << what;
  EXPECT_EQ(a.depot.y, b.depot.y) << what;
  for (std::size_t i = 0; i < a.stops.size(); ++i) {
    EXPECT_EQ(a.stops[i].position.x, b.stops[i].position.x)
        << what << " stop " << i;
    EXPECT_EQ(a.stops[i].position.y, b.stops[i].position.y)
        << what << " stop " << i;
    EXPECT_EQ(a.stops[i].members, b.stops[i].members) << what << " stop "
                                                      << i;
  }
}

void expect_identical(const sim::PlanMetrics& a, const sim::PlanMetrics& b,
                      const char* what) {
  EXPECT_EQ(a.num_stops, b.num_stops) << what;
  EXPECT_EQ(a.tour_length_m, b.tour_length_m) << what;
  EXPECT_EQ(a.move_energy_j, b.move_energy_j) << what;
  EXPECT_EQ(a.move_time_s, b.move_time_s) << what;
  EXPECT_EQ(a.charge_time_s, b.charge_time_s) << what;
  EXPECT_EQ(a.charge_energy_j, b.charge_energy_j) << what;
  EXPECT_EQ(a.total_energy_j, b.total_energy_j) << what;
  EXPECT_EQ(a.total_time_s, b.total_time_s) << what;
  EXPECT_EQ(a.min_demand_fraction, b.min_demand_fraction) << what;
}

class MetricOracleTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { support::set_thread_count(GetParam()); }
  void TearDown() override { support::set_thread_count(0); }
};

TEST_P(MetricOracleTest, EveryPlannerIsByteIdenticalUnderAnEmptyGraph) {
  const auto metric = oracle_metric();
  const net::Deployment d = make_deployment(120, 29);
  for (const tour::Algorithm algorithm :
       {tour::Algorithm::kSc, tour::Algorithm::kCss, tour::Algorithm::kBc,
        tour::Algorithm::kBcOpt, tour::Algorithm::kTspn,
        tour::Algorithm::kBcSharded}) {
    tour::PlannerConfig euclid;
    euclid.bundle_radius = 60.0;
    tour::PlannerConfig graph = euclid;
    graph.metric = metric;
    const tour::ChargingPlan a =
        tour::plan_charging_tour(d, algorithm, euclid);
    const tour::ChargingPlan b =
        tour::plan_charging_tour(d, algorithm, graph);
    expect_identical(a, b, tour::to_string(algorithm).data());

    sim::EvaluationConfig eval_euclid;
    sim::EvaluationConfig eval_graph;
    eval_graph.metric = metric.get();
    expect_identical(sim::evaluate_plan(d, a, eval_euclid),
                     sim::evaluate_plan(d, b, eval_graph),
                     tour::to_string(algorithm).data());
  }
}

TEST_P(MetricOracleTest, FleetSplitIsByteIdentical) {
  const auto metric = oracle_metric();
  const net::Deployment d = make_deployment(100, 31);
  tour::PlannerConfig config;
  config.bundle_radius = 60.0;
  const tour::ChargingPlan plan = tour::plan_bc(d, config);
  const charging::ChargingModel charging =
      charging::ChargingModel::icdcs2019_simulation();
  const charging::MovementModel movement =
      charging::MovementModel::icdcs2019();
  // One depot with unlimited battery, then three depots with a battery
  // small enough to force trip cuts and, at k = 3, a deadhead.
  tour::DepotFleetOptions euclid;
  euclid.depots = {plan.depot};
  std::vector<tour::DepotFleetOptions> cases;
  for (const std::size_t k : {1u, 3u, 5u}) {
    euclid.num_chargers = k;
    cases.push_back(euclid);
  }
  euclid.depots = {plan.depot, Point2{1000.0, 0.0}, Point2{500.0, 1000.0}};
  euclid.battery_capacity_j = 8000.0;
  for (const std::size_t k : {1u, 3u}) {
    euclid.num_chargers = k;
    cases.push_back(euclid);
  }
  for (const tour::DepotFleetOptions& options : cases) {
    tour::DepotFleetOptions graph = options;
    graph.metric = metric.get();
    const auto a =
        tour::split_among_depot_fleet(d, plan, charging, movement, options);
    const auto b =
        tour::split_among_depot_fleet(d, plan, charging, movement, graph);
    ASSERT_TRUE(a.has_value()) << a.fault().message;
    ASSERT_TRUE(b.has_value()) << b.fault().message;
    const std::size_t k = options.num_chargers;
    ASSERT_EQ(a.value().routes.size(), b.value().routes.size()) << "k=" << k;
    for (std::size_t r = 0; r < a.value().routes.size(); ++r) {
      const tour::DepotRoute& ra = a.value().routes[r];
      const tour::DepotRoute& rb = b.value().routes[r];
      EXPECT_EQ(ra.home_depot, rb.home_depot) << "k=" << k;
      ASSERT_EQ(ra.trips.size(), rb.trips.size()) << "k=" << k;
      for (std::size_t t = 0; t < ra.trips.size(); ++t) {
        EXPECT_EQ(ra.trips[t].start_depot, rb.trips[t].start_depot);
        EXPECT_EQ(ra.trips[t].end_depot, rb.trips[t].end_depot);
        expect_identical(
            tour::ChargingPlan{"", plan.depot, ra.trips[t].stops},
            tour::ChargingPlan{"", plan.depot, rb.trips[t].stops},
            "fleet trip");
      }
    }
    const tour::DepotFleetMetrics ma = tour::evaluate_depot_fleet(
        d, a.value(), options, charging, movement);
    const tour::DepotFleetMetrics mb = tour::evaluate_depot_fleet(
        d, b.value(), graph, charging, movement);
    EXPECT_EQ(ma.makespan_s, mb.makespan_s) << "k=" << k;
    EXPECT_EQ(ma.total_energy_j, mb.total_energy_j) << "k=" << k;
  }
}

TEST_P(MetricOracleTest, SpliceIsByteIdentical) {
  const auto metric = oracle_metric();
  const net::Deployment d = make_deployment(80, 37);
  tour::PlannerConfig config;
  config.bundle_radius = 60.0;
  tour::ChargingPlan base = tour::plan_bc(d, config);
  ASSERT_GE(base.stops.size(), 4u);
  // Peel the last two stops off into patches and splice them back.
  std::vector<tour::Stop> patches(base.stops.end() - 2, base.stops.end());
  base.stops.erase(base.stops.end() - 2, base.stops.end());
  const tour::ChargingPlan a = tour::splice_stops(base, patches);
  tour::SpliceOptions with_metric;
  with_metric.improve_options.metric = metric.get();
  const tour::ChargingPlan b =
      tour::splice_stops(base, patches, with_metric);
  expect_identical(a, b, "splice");
}

TEST_P(MetricOracleTest, AnnealIsByteIdentical) {
  const auto metric = oracle_metric();
  const net::Deployment d = make_deployment(60, 41);
  tour::PlannerConfig config;
  config.bundle_radius = 60.0;
  const tour::ChargingPlan initial = tour::plan_bc(d, config);
  tour::AnnealOptions euclid;
  euclid.iterations = 4000;
  tour::AnnealOptions graph = euclid;
  graph.metric = metric.get();
  const tour::AnnealResult a =
      tour::anneal_plan(d, initial, config.charging, config.movement, euclid);
  const tour::AnnealResult b =
      tour::anneal_plan(d, initial, config.charging, config.movement, graph);
  EXPECT_EQ(a.best_energy_j, b.best_energy_j);
  EXPECT_EQ(a.accepted_moves, b.accepted_moves);
  expect_identical(a.plan, b.plan, "anneal");
}

TEST_P(MetricOracleTest, ReplanIsByteIdentical) {
  const auto metric = oracle_metric();
  const net::Deployment d = make_deployment(90, 43);
  tour::ReplanRequest request;
  request.current_position = Point2{140.0, 260.0};
  for (std::size_t i = 10; i < 70; i += 2) {
    request.remaining.push_back(static_cast<net::SensorId>(i));
    request.deficits_j.push_back(50.0 + static_cast<double>(i));
  }
  tour::PlannerConfig euclid;
  euclid.bundle_radius = 60.0;
  tour::PlannerConfig graph = euclid;
  graph.metric = metric;
  const auto a = tour::replan_tour(d, request, euclid);
  const auto b = tour::replan_tour(d, request, graph);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  expect_identical(a.value(), b.value(), "replan");
}

INSTANTIATE_TEST_SUITE_P(Threads, MetricOracleTest,
                         ::testing::Values(1u, 2u, 8u),
                         [](const auto& info) {
                           return "BC_THREADS_" +
                                  std::to_string(info.param);
                         });

}  // namespace
}  // namespace bc
