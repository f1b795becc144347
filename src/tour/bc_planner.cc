// BC — Bundle Charging: the paper's base scheme. Sensors are clustered
// into charging bundles (Algorithm 2 by default), the anchor of each
// bundle is its smallest-enclosing-disk centre (Definitions 2-3), and the
// charger follows a TSP tour over the anchors.

#include "support/require.h"
#include "tour/planner.h"
#include "tour/route_util.h"

namespace bc::tour {

ChargingPlan plan_bc(const net::Deployment& deployment,
                     const PlannerConfig& config,
                     support::BudgetMeter* meter) {
  support::require(config.bundle_radius > 0.0,
                   "BC needs a positive bundle radius");
  const std::vector<bundle::Bundle> bundles =
      bundle::generate_bundles(deployment, config.bundle_radius,
                               config.generator, meter);

  ChargingPlan plan;
  plan.algorithm = "BC";
  plan.depot = deployment.depot();
  plan.stops.reserve(bundles.size());
  for (const bundle::Bundle& b : bundles) {
    plan.stops.push_back(Stop{b.anchor, b.members});
  }
  order_stops_by_tsp(plan.depot, plan.stops, tsp_options_with_metric(config),
                     meter);
  return plan;
}

}  // namespace bc::tour
