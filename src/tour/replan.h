// Online replanning from the mobile charger's current position.
//
// When mission execution is disrupted (dead bundle members, stop-time
// overruns, a projected battery shortfall), the executor asks for a fresh
// tour over the *remaining* deficits, starting from wherever the MC
// currently is and ending at the depot. Unlike the offline planners, a
// replan runs mid-mission with the charger burning battery, so it must
// never hang: the exact-cover stage is retried under a geometrically
// shrinking node budget at most `max_attempts` times, then the generator
// ladder falls back greedy -> grid -> sweep. A pathological instance
// therefore degrades to a cheaper cover instead of stalling the mission,
// and total work is bounded by construction.
//
// Failures are reported as structured faults (support::Expected), never
// asserts: a replan that cannot cover the remaining sensors is an outcome
// the executor handles, not a crash.

#ifndef BUNDLECHARGE_TOUR_REPLAN_H_
#define BUNDLECHARGE_TOUR_REPLAN_H_

#include <cstddef>
#include <vector>

#include "geometry/point.h"
#include "net/deployment.h"
#include "net/sensor.h"
#include "support/expected.h"
#include "tour/plan.h"
#include "tour/planner.h"

namespace bc::tour {

struct ReplanOptions {
  // Exact-cover retries before falling back to heuristic generators; each
  // retry multiplies the node budget by `budget_backoff`.
  std::size_t max_attempts = 3;
  std::size_t initial_node_budget = 1'000'000;
  double budget_backoff = 0.25;
  // When false, a failed configured generator is a kReplanExhausted fault
  // instead of sliding down the greedy -> grid -> sweep ladder (used by
  // tests to exercise the exhaustion path; production keeps the ladder).
  bool fallback_to_heuristics = true;
};

struct ReplanRequest {
  // Where the MC is now; the replanned route starts here and ends at the
  // deployment depot.
  geometry::Point2 current_position;
  // Sensors still owed energy, as ids into the *original* deployment, with
  // their remaining deficits (J). Non-positive deficits are clamped to a
  // minimal epsilon. Preconditions: ids valid and strictly ascending,
  // deficits aligned with remaining.
  std::vector<net::SensorId> remaining;
  std::vector<double> deficits_j;
};

// Plans a route over the remaining deficits: bundle cover (bounded-retry
// ladder above) -> stops at bundle anchors -> deterministic nearest-
// neighbour path from the current position. Stop members are ids into the
// original deployment. An empty `remaining` yields an empty plan.
// The returned plan's depot is the deployment depot; the executor accounts
// the approach leg from `current_position` to the first stop itself.
// `config.budget` (or a caller-supplied `meter`, which takes precedence)
// spans the *whole* ladder: all rungs draw from one meter. When it trips
// before any rung produces a covering partition, replan_tour returns a
// kBudgetExhausted fault — it never keeps computing past its deadline.
support::Expected<ChargingPlan> replan_tour(
    const net::Deployment& deployment, const ReplanRequest& request,
    const PlannerConfig& config, const ReplanOptions& options = {},
    support::BudgetMeter* meter = nullptr);

}  // namespace bc::tour

#endif  // BUNDLECHARGE_TOUR_REPLAN_H_
