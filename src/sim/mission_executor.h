// Disruption-tolerant mission execution.
//
// The lifetime loop used to assume a planned mission executes exactly as
// evaluated; under fault injection that assumption breaks in three ways:
// planned bundle members can be dead on arrival, the true stop time can
// overrun the plan (position noise + degraded harvesters), and a
// battery-capped charger can project a shortfall before its depot return.
// The executor steps a plan stop-by-stop against the faulted world,
// detects each disruption, and applies a configured degradation policy
// instead of asserting:
//
//   kSkip      ignore/absorb — drop dead members, accept the overrun, or
//              push on past battery projections (the reckless mode that
//              makes physical stranding reachable);
//   kTruncate  bound the damage — cap the stop at the tolerance, or abandon
//              the rest of the tour and return to the depot;
//   kReplan    re-plan the remaining deficits online from the current
//              position (tour/replan.h's bounded-retry ladder), falling
//              back to kTruncate when the replan budget is exhausted.
//
// Every disruption is reported as a structured FaultKind outcome in the
// mission report; a mission that degrades is a result, not an exception.

#ifndef BUNDLECHARGE_SIM_MISSION_EXECUTOR_H_
#define BUNDLECHARGE_SIM_MISSION_EXECUTOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "charging/model.h"
#include "charging/movement.h"
#include "net/deployment.h"
#include "sim/faults.h"
#include "support/expected.h"
#include "tour/plan.h"
#include "tour/replan.h"

namespace bc::sim {

enum class DisruptionPolicy { kSkip, kTruncate, kReplan };

std::string_view to_string(DisruptionPolicy policy);

struct ExecutorConfig {
  // A stop whose actual time exceeds planned x tolerance is an overrun.
  double stop_time_tolerance = 2.0;
  DisruptionPolicy on_dead_member = DisruptionPolicy::kSkip;
  DisruptionPolicy on_overrun = DisruptionPolicy::kTruncate;
  DisruptionPolicy on_battery_shortfall = DisruptionPolicy::kTruncate;
  // Online replans allowed per mission (only consulted by kReplan policies).
  std::size_t max_replans = 3;
  tour::ReplanOptions replan{};
  // Planner knobs used when a replan fires; `planner.budget` bounds each
  // replan.
  tour::PlannerConfig planner{};
  charging::ChargingModel charging =
      charging::ChargingModel::icdcs2019_simulation();
  charging::MovementModel movement = charging::MovementModel::icdcs2019();
};

// One detected disruption and how it was resolved (in the message).
struct Disruption {
  support::FaultKind kind = support::FaultKind::kNone;
  std::size_t stop_index = support::kNoStop;  // visit counter, not plan slot
  std::string message;
};

struct MissionReport {
  // Energy actually delivered per sensor (one-to-many: every live sensor
  // harvests from every stop), sized to the deployment.
  std::vector<double> delivered_j;
  double mission_time_s = 0.0;  // travel + parked
  double tour_length_m = 0.0;   // metres actually driven
  double move_energy_j = 0.0;
  double charge_time_s = 0.0;
  double charge_energy_j = 0.0;
  double battery_used_j = 0.0;  // == move + charge energy
  bool completed = true;   // every live mission sensor met its demand
  bool stranded = false;   // MC battery died before reaching the depot
  std::size_t stops_planned = 0;
  std::size_t stops_visited = 0;
  std::size_t stops_skipped = 0;  // emptied by deaths, never parked at
  std::size_t replans = 0;
  geometry::Point2 final_position;  // depot unless stranded
  std::vector<Disruption> disruptions;

  std::size_t count(support::FaultKind kind) const;
};

// Executes `plan` against the faulted world starting at `start_time_s`.
// `demand_j` holds this mission's per-sensor targets (index = sensor id;
// 0 = not part of the mission); plan stop members are deployment ids.
// Returns a kInvalidInput fault for a plan referencing unknown sensors;
// every runtime disruption lands in the report, never in the fault channel.
// Precondition: demand_j.size() == deployment.size().
support::Expected<MissionReport> execute_mission(
    const net::Deployment& deployment, const std::vector<double>& demand_j,
    const tour::ChargingPlan& plan, const FaultModel& faults,
    double start_time_s, const ExecutorConfig& config);

}  // namespace bc::sim

#endif  // BUNDLECHARGE_SIM_MISSION_EXECUTOR_H_
