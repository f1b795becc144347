// SC — Single Charging [6]: the no-bundling baseline. One stop per sensor,
// parked directly on the sensor (zero charging distance, maximal charging
// efficiency, longest possible tour).

#include "tour/planner.h"
#include "tour/route_util.h"

namespace bc::tour {

ChargingPlan plan_sc(const net::Deployment& deployment,
                     const PlannerConfig& config,
                     support::BudgetMeter* meter) {
  ChargingPlan plan;
  plan.algorithm = "SC";
  plan.depot = deployment.depot();
  plan.stops.reserve(deployment.size());
  for (const net::Sensor& s : deployment.sensors()) {
    plan.stops.push_back(Stop{s.position, {s.id}});
  }
  order_stops_by_tsp(plan.depot, plan.stops, tsp_options_with_metric(config),
                     meter);
  return plan;
}

}  // namespace bc::tour
