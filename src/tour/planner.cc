#include "tour/planner.h"

#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/require.h"

namespace bc::tour {

std::string_view to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSc:
      return "SC";
    case Algorithm::kCss:
      return "CSS";
    case Algorithm::kBc:
      return "BC";
    case Algorithm::kBcOpt:
      return "BC-OPT";
    case Algorithm::kTspn:
      return "TSPN";
    case Algorithm::kBcSharded:
      return "BC-SHARD";
  }
  return "unknown";
}

ChargingPlan plan_charging_tour(const net::Deployment& deployment,
                                Algorithm algorithm,
                                const PlannerConfig& config,
                                support::BudgetMeter* meter) {
  // One of the two places a planner budget becomes a meter (replan_tour
  // is the other). An unlimited budget leaves `meter` null, which keeps
  // every stage on its unmetered path.
  std::optional<support::BudgetMeter> local;
  if (meter == nullptr && !config.budget.unlimited()) {
    meter = &local.emplace(config.budget);
  }
  obs::TraceSpan span("plan");
  span.attr("algorithm", to_string(algorithm))
      .attr("n", static_cast<std::uint64_t>(deployment.size()));
  ChargingPlan plan;
  switch (algorithm) {
    case Algorithm::kSc:
      plan = plan_sc(deployment, config, meter);
      break;
    case Algorithm::kCss:
      plan = plan_css(deployment, config, meter);
      break;
    case Algorithm::kBc:
      plan = plan_bc(deployment, config, meter);
      break;
    case Algorithm::kBcOpt:
      plan = plan_bc_opt(deployment, config, meter);
      break;
    case Algorithm::kTspn:
      plan = plan_tspn(deployment, config, meter);
      break;
    case Algorithm::kBcSharded:
      plan = plan_bc_sharded(deployment, config, meter);
      break;
    default:
      support::ensure(false, "unreachable planner algorithm");
  }
  {
    static const obs::Counter plans("planner.plans");
    static const obs::Counter stops("planner.stops");
    plans.add();
    stops.add(plan.stops.size());
  }
  span.attr("stops", static_cast<std::uint64_t>(plan.stops.size()));
  return plan;
}

}  // namespace bc::tour
