// Tests for the disruption-tolerant mission executor: one scenario per
// disruption kind x degradation policy pair, plus the clean path.

#include "sim/mission_executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "support/require.h"

namespace bc::sim {
namespace {

using support::FaultKind;

// Two sensors on a short line; singleton stops parked exactly on top of
// them, so the fault-free stop time is demand / p_r(0) and every energy
// number is hand-checkable.
net::Deployment pair_deployment() {
  return net::Deployment({{30.0, 0.0}, {60.0, 0.0}},
                         geometry::Box2{{-10.0, -10.0}, {100.0, 10.0}},
                         {0.0, 0.0}, 2.0);
}

tour::ChargingPlan singleton_plan(const net::Deployment& d) {
  tour::ChargingPlan plan;
  plan.algorithm = "TEST";
  plan.depot = d.depot();
  for (net::SensorId id = 0; id < d.size(); ++id) {
    tour::Stop stop;
    stop.position = d.sensor(id).position;
    stop.members = {id};
    plan.stops.push_back(stop);
  }
  return plan;
}

ExecutorConfig quick_config() {
  ExecutorConfig config;
  config.planner.bundle_radius = 10.0;
  return config;
}

// A model whose sensors die en masse: mean life of 0.1 day over a 30 day
// horizon leaves every sensor dead long before `t = kLateStart`.
FaultModel all_dead_model(const net::Deployment& d) {
  FaultConfig config;
  config.permanent_death_rate_per_day = 10.0;
  return FaultModel(d, config);
}

constexpr double kLateStart = 20.0 * 24.0 * 3600.0;

TEST(MissionExecutorTest, ValidatesInputs) {
  const net::Deployment d = pair_deployment();
  const FaultModel faults(d, FaultConfig{});
  const tour::ChargingPlan plan = singleton_plan(d);
  EXPECT_THROW(
      execute_mission(d, {1.0}, plan, faults, 0.0, quick_config()),
      support::PreconditionError);
  ExecutorConfig bad = quick_config();
  bad.stop_time_tolerance = 0.5;
  EXPECT_THROW(execute_mission(d, {1.0, 1.0}, plan, faults, 0.0, bad),
               support::PreconditionError);
}

TEST(MissionExecutorTest, UnknownPlanMemberIsAStructuredFault) {
  const net::Deployment d = pair_deployment();
  const FaultModel faults(d, FaultConfig{});
  tour::ChargingPlan plan = singleton_plan(d);
  plan.stops[0].members.push_back(99);
  auto result = execute_mission(d, {1.0, 1.0}, plan, faults, 0.0,
                                quick_config());
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.fault().kind, FaultKind::kInvalidInput);
}

TEST(MissionExecutorTest, CleanMissionMatchesHandComputation) {
  const net::Deployment d = pair_deployment();
  const FaultModel faults(d, FaultConfig{});
  const tour::ChargingPlan plan = singleton_plan(d);
  const ExecutorConfig config = quick_config();
  auto result =
      execute_mission(d, {1.0, 1.0}, plan, faults, 0.0, config);
  ASSERT_TRUE(result.has_value());
  const MissionReport& report = result.value();
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.stranded);
  EXPECT_TRUE(report.disruptions.empty());
  EXPECT_EQ(report.stops_visited, 2u);
  EXPECT_EQ(report.stops_skipped, 0u);
  EXPECT_EQ(report.replans, 0u);
  // depot -> (30,0) -> (60,0) -> depot = 120 m exactly.
  EXPECT_DOUBLE_EQ(report.tour_length_m, 120.0);
  EXPECT_DOUBLE_EQ(report.move_energy_j,
                   120.0 * config.movement.joules_per_meter());
  EXPECT_GE(report.delivered_j[0], 1.0);
  EXPECT_GE(report.delivered_j[1], 1.0);
  EXPECT_DOUBLE_EQ(report.battery_used_j,
                   report.move_energy_j + report.charge_energy_j);
  EXPECT_EQ(report.final_position.x, d.depot().x);
  EXPECT_EQ(report.final_position.y, d.depot().y);
}

TEST(MissionExecutorTest, DeadMembersSkipPolicyServesNobody) {
  const net::Deployment d = pair_deployment();
  const FaultModel faults = all_dead_model(d);
  ASSERT_TRUE(faults.is_failed(0, kLateStart));
  ASSERT_TRUE(faults.is_failed(1, kLateStart));
  ExecutorConfig config = quick_config();
  config.on_dead_member = DisruptionPolicy::kSkip;
  auto result = execute_mission(d, {1.0, 1.0}, singleton_plan(d), faults,
                                kLateStart, config);
  ASSERT_TRUE(result.has_value());
  const MissionReport& report = result.value();
  // Every stop emptied by deaths: skipped, never parked at, no energy out.
  EXPECT_EQ(report.stops_skipped, 2u);
  EXPECT_EQ(report.stops_visited, 0u);
  EXPECT_EQ(report.count(FaultKind::kSensorDead), 2u);
  EXPECT_DOUBLE_EQ(report.charge_energy_j, 0.0);
  // Dead sensors are excluded from the completion criterion.
  EXPECT_TRUE(report.completed);
}

TEST(MissionExecutorTest, DeadMemberTruncatePolicyAbandonsTheTour) {
  const net::Deployment d = pair_deployment();
  const FaultModel faults = all_dead_model(d);
  ExecutorConfig config = quick_config();
  config.on_dead_member = DisruptionPolicy::kTruncate;
  auto result = execute_mission(d, {1.0, 1.0}, singleton_plan(d), faults,
                                kLateStart, config);
  ASSERT_TRUE(result.has_value());
  const MissionReport& report = result.value();
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.stops_visited, 0u);
  EXPECT_EQ(report.count(FaultKind::kSensorDead), 1u);  // broke at the first
  EXPECT_DOUBLE_EQ(report.tour_length_m, 0.0);  // never left the depot
}

TEST(MissionExecutorTest, DeadMemberReplanPolicyReroutesSurvivors) {
  const net::Deployment d = pair_deployment();
  const FaultModel faults = all_dead_model(d);
  // Mission dispatched while everyone is still alive except that the
  // executor sees deaths at kLateStart; both dead -> replan yields an
  // empty route, mission ends cleanly with a replan recorded.
  ExecutorConfig config = quick_config();
  config.on_dead_member = DisruptionPolicy::kReplan;
  auto result = execute_mission(d, {1.0, 1.0}, singleton_plan(d), faults,
                                kLateStart, config);
  ASSERT_TRUE(result.has_value());
  const MissionReport& report = result.value();
  EXPECT_EQ(report.replans, 1u);
  EXPECT_GE(report.count(FaultKind::kSensorDead), 1u);
  EXPECT_EQ(report.stops_visited, 0u);
  EXPECT_TRUE(report.completed);  // nobody alive is owed anything
}

// The replan a dead member triggers runs under the executor's planner
// budget: a pre-cancelled token must surface as a kBudgetExhausted
// disruption instead of a silently unbudgeted replan.
TEST(MissionExecutorTest, DeadMemberReplanHonoursThePlannerBudget) {
  const net::Deployment d(
      {{30.0, 0.0}, {60.0, 0.0}, {90.0, 0.0}, {120.0, 0.0}},
      geometry::Box2{{-10.0, -10.0}, {200.0, 10.0}}, {0.0, 0.0}, 2.0);
  FaultConfig fault_config;
  fault_config.seed = 3;
  fault_config.permanent_death_rate_per_day = 0.05;
  const FaultModel faults(d, fault_config);
  // Start just after the first death, while the other sensors still live,
  // and visit the dead sensor's stop first so the replan has work left.
  net::SensorId first_dead = 0;
  for (net::SensorId id = 1; id < d.size(); ++id) {
    if (faults.death_time_s(id) < faults.death_time_s(first_dead)) {
      first_dead = id;
    }
  }
  const double start = faults.death_time_s(first_dead) + 1.0;
  std::size_t alive = 0;
  for (net::SensorId id = 0; id < d.size(); ++id) {
    if (!faults.is_failed(id, start)) ++alive;
  }
  ASSERT_EQ(alive, d.size() - 1) << "need exactly one dead sensor at start";
  tour::ChargingPlan plan = singleton_plan(d);
  std::swap(plan.stops[0], plan.stops[first_dead]);

  ExecutorConfig config = quick_config();
  config.on_dead_member = DisruptionPolicy::kReplan;
  const std::vector<double> demand(d.size(), 1.0);
  auto unbudgeted = execute_mission(d, demand, plan, faults, start, config);
  ASSERT_TRUE(unbudgeted.has_value());
  EXPECT_EQ(unbudgeted.value().replans, 1u);
  EXPECT_EQ(unbudgeted.value().count(FaultKind::kBudgetExhausted), 0u);

  config.planner.budget.cancel.request_cancel();
  auto cancelled = execute_mission(d, demand, plan, faults, start, config);
  ASSERT_TRUE(cancelled.has_value());
  const MissionReport& report = cancelled.value();
  EXPECT_EQ(report.replans, 0u);
  EXPECT_EQ(report.count(FaultKind::kBudgetExhausted), 1u);
  // The failed replan falls back to serving the surviving members.
  EXPECT_EQ(report.stops_visited, alive);
}

// One sensor, no cross-stop spill: with tolerance 1.0 any degraded
// harvester is an overrun (actual = demand / (eff * p) > planned =
// demand / p), and the per-policy outcomes hold for every eff < 1.
net::Deployment solo_deployment() {
  return net::Deployment({{30.0, 0.0}},
                         geometry::Box2{{-10.0, -10.0}, {100.0, 10.0}},
                         {0.0, 0.0}, 2.0);
}

FaultModel degraded_model(const net::Deployment& d) {
  FaultConfig config;
  config.seed = 5;
  config.max_efficiency_loss = 0.6;
  return FaultModel(d, config);
}

TEST(MissionExecutorTest, OverrunSkipPolicyAbsorbsTheDelay) {
  const net::Deployment d = solo_deployment();
  const FaultModel faults = degraded_model(d);
  ASSERT_LT(faults.efficiency(0), 1.0);
  ExecutorConfig config = quick_config();
  config.stop_time_tolerance = 1.0;
  config.on_overrun = DisruptionPolicy::kSkip;
  auto result =
      execute_mission(d, {1.0}, singleton_plan(d), faults, 0.0, config);
  ASSERT_TRUE(result.has_value());
  const MissionReport& report = result.value();
  EXPECT_EQ(report.count(FaultKind::kStopOverrun), 1u);
  EXPECT_TRUE(report.completed);  // parked as long as it took
  EXPECT_NEAR(report.delivered_j[0], 1.0, 1e-9);
}

TEST(MissionExecutorTest, OverrunTruncatePolicyCapsTheStop) {
  const net::Deployment d = solo_deployment();
  const FaultModel faults = degraded_model(d);
  ASSERT_LT(faults.efficiency(0), 1.0);
  ExecutorConfig config = quick_config();
  config.stop_time_tolerance = 1.0;
  config.on_overrun = DisruptionPolicy::kTruncate;
  auto result =
      execute_mission(d, {1.0}, singleton_plan(d), faults, 0.0, config);
  ASSERT_TRUE(result.has_value());
  const MissionReport& report = result.value();
  EXPECT_EQ(report.count(FaultKind::kStopOverrun), 1u);
  EXPECT_EQ(report.stops_visited, 1u);
  // Capped at the planned time: exactly eff * demand was delivered.
  EXPECT_NEAR(report.delivered_j[0], faults.efficiency(0), 1e-9);
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.replans, 0u);
}

TEST(MissionExecutorTest, OverrunReplanPolicyFinishesTheJob) {
  const net::Deployment d = solo_deployment();
  const FaultModel faults = degraded_model(d);
  ASSERT_LT(faults.efficiency(0), 1.0);
  ExecutorConfig config = quick_config();
  config.stop_time_tolerance = 1.0;
  config.on_overrun = DisruptionPolicy::kReplan;
  config.max_replans = 10;
  auto result =
      execute_mission(d, {1.0}, singleton_plan(d), faults, 0.0, config);
  ASSERT_TRUE(result.has_value());
  const MissionReport& report = result.value();
  EXPECT_GE(report.count(FaultKind::kStopOverrun), 1u);
  EXPECT_GE(report.replans, 1u);
  // Replanned visits keep charging the leftover deficit until it is met.
  EXPECT_TRUE(report.completed);
  EXPECT_NEAR(report.delivered_j[0], 1.0, 1e-9);
}

TEST(MissionExecutorTest, BatteryShortfallTruncateReturnsHome) {
  const net::Deployment d = pair_deployment();
  FaultConfig fault_config;
  // Enough to reach sensor 0 and back (60 m = 335.4 J) but nowhere near
  // the full mission (movement alone is 670.8 J + parking).
  fault_config.mc_battery_capacity_j = 400.0;
  const FaultModel faults(d, fault_config);
  ExecutorConfig config = quick_config();
  config.on_battery_shortfall = DisruptionPolicy::kTruncate;
  auto result = execute_mission(d, {1.0, 1.0}, singleton_plan(d), faults,
                                0.0, config);
  ASSERT_TRUE(result.has_value());
  const MissionReport& report = result.value();
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.stranded);  // guarded mode provisions the return leg
  EXPECT_GE(report.count(FaultKind::kBatteryShortfall), 1u);
  EXPECT_LE(report.battery_used_j, fault_config.mc_battery_capacity_j + 1e-9);
  EXPECT_EQ(report.final_position.x, d.depot().x);
}

TEST(MissionExecutorTest, BatteryShortfallReplanExhaustsItsBudget) {
  const net::Deployment d = pair_deployment();
  FaultConfig fault_config;
  fault_config.mc_battery_capacity_j = 100.0;  // cannot reach anything
  const FaultModel faults(d, fault_config);
  ExecutorConfig config = quick_config();
  config.on_battery_shortfall = DisruptionPolicy::kReplan;
  config.max_replans = 2;
  auto result = execute_mission(d, {1.0, 1.0}, singleton_plan(d), faults,
                                0.0, config);
  ASSERT_TRUE(result.has_value());
  const MissionReport& report = result.value();
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.stranded);
  EXPECT_EQ(report.replans, 2u);
  EXPECT_GE(report.count(FaultKind::kBatteryShortfall), 1u);
  EXPECT_EQ(report.count(FaultKind::kReplanExhausted), 1u);
}

TEST(MissionExecutorTest, RecklessModeStrandsMidLeg) {
  const net::Deployment d = pair_deployment();
  FaultConfig fault_config;
  // Half the energy of the 30 m leg to the first stop.
  const double leg_cost = 30.0 * 5.59;
  fault_config.mc_battery_capacity_j = leg_cost / 2.0;
  const FaultModel faults(d, fault_config);
  ExecutorConfig config = quick_config();
  config.on_battery_shortfall = DisruptionPolicy::kSkip;  // reckless
  auto result = execute_mission(d, {1.0, 1.0}, singleton_plan(d), faults,
                                0.0, config);
  ASSERT_TRUE(result.has_value());
  const MissionReport& report = result.value();
  EXPECT_TRUE(report.stranded);
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.count(FaultKind::kMcStranded), 1u);
  // Died exactly halfway down the first leg.
  EXPECT_NEAR(report.final_position.x, 15.0, 1e-9);
  EXPECT_NEAR(report.tour_length_m, 15.0, 1e-9);
  EXPECT_DOUBLE_EQ(report.battery_used_j, fault_config.mc_battery_capacity_j);
  EXPECT_EQ(report.stops_visited, 0u);
}

TEST(MissionExecutorTest, RecklessModeStrandsAfterPartialPark) {
  const net::Deployment d = pair_deployment();
  FaultConfig fault_config;
  // Reaches stop 0 (167.7 J) with 10 J left: parks for 10 J worth of
  // charging, then the battery is flat at the stop.
  fault_config.mc_battery_capacity_j = 30.0 * 5.59 + 10.0;
  const FaultModel faults(d, fault_config);
  ExecutorConfig config = quick_config();
  config.on_battery_shortfall = DisruptionPolicy::kSkip;  // reckless
  auto result = execute_mission(d, {1.0, 1.0}, singleton_plan(d), faults,
                                0.0, config);
  ASSERT_TRUE(result.has_value());
  const MissionReport& report = result.value();
  EXPECT_TRUE(report.stranded);
  EXPECT_EQ(report.count(FaultKind::kMcStranded), 1u);
  EXPECT_EQ(report.stops_visited, 1u);
  EXPECT_NEAR(report.final_position.x, 30.0, 1e-9);  // parked at the stop
  EXPECT_NEAR(report.charge_energy_j, 10.0, 1e-9);
  EXPECT_NEAR(report.battery_used_j, fault_config.mc_battery_capacity_j,
              1e-9);
}

TEST(MissionExecutorTest, GuardedModeNeverStrands) {
  // Sweep battery capacities across the interesting range: the guarded
  // policies must always either finish or abort at the depot.
  const net::Deployment d = pair_deployment();
  for (double capacity = 50.0; capacity < 1500.0; capacity += 97.0) {
    FaultConfig fault_config;
    fault_config.mc_battery_capacity_j = capacity;
    const FaultModel faults(d, fault_config);
    for (const DisruptionPolicy policy :
         {DisruptionPolicy::kTruncate, DisruptionPolicy::kReplan}) {
      ExecutorConfig config = quick_config();
      config.on_battery_shortfall = policy;
      auto result = execute_mission(d, {1.0, 1.0}, singleton_plan(d),
                                    faults, 0.0, config);
      ASSERT_TRUE(result.has_value());
      EXPECT_FALSE(result.value().stranded)
          << "capacity " << capacity << " policy " << to_string(policy);
      EXPECT_LE(result.value().battery_used_j, capacity + 1e-9);
    }
  }
}

}  // namespace
}  // namespace bc::sim
