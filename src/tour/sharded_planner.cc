// BC-SHARD — hierarchical Bundle Charging for city-scale deployments.
// The sensors are bundled by the sharded generator (tile + per-shard
// greedy cover + deterministic border stitch, bundle/shard.h), then the
// anchor tour is built either by the exact solver facade (small plans,
// where BC-SHARD collapses to BC) or by the near-linear snake + 2-opt
// path (large plans).

#include "bundle/shard.h"
#include "support/require.h"
#include "tour/planner.h"
#include "tour/route_util.h"

namespace bc::tour {

ChargingPlan plan_bc_sharded(const net::Deployment& deployment,
                             const PlannerConfig& config,
                             support::BudgetMeter* meter) {
  support::require(config.bundle_radius > 0.0,
                   "BC-SHARD needs a positive bundle radius");
  const std::vector<bundle::Bundle> bundles =
      bundle::sharded_bundles(deployment, config.bundle_radius, config.shard,
                              meter);

  ChargingPlan plan;
  plan.algorithm = "BC-SHARD";
  plan.depot = deployment.depot();
  plan.stops.reserve(bundles.size());
  for (const bundle::Bundle& b : bundles) {
    plan.stops.push_back(Stop{b.anchor, b.members});
  }
  if (plan.stops.size() <= config.shard_tsp_cutover) {
    order_stops_by_tsp(plan.depot, plan.stops, tsp_options_with_metric(config),
                       meter);
  } else {
    order_stops_snake(plan.depot, plan.stops, tsp_options_with_metric(config),
                      meter);
  }
  return plan;
}

}  // namespace bc::tour
