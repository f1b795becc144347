// Simulated-annealing joint optimiser for the full BTO problem.
//
// BC-OPT optimises stop *positions* with the bundle assignment and visit
// order frozen (Algorithm 3). Since the underlying Bundle Trajectory
// Optimization problem is NP-hard (Theorem 3), it is useful to know how
// much headroom that decomposition leaves. This annealer searches the
// joint space — stop positions, sensor-to-stop assignment, and visit
// order — under the same isolated-schedule energy objective, starting
// from any plan. It is far too slow for the planner hot path; it exists
// as a reference upper bound for ablations and tests ("how close is
// BC-OPT to a jointly optimised tour?").
//
// Moves: (1) jitter a stop position, (2) snap a stop back to its members'
// SED centre, (3) reassign a sensor to another stop, (4) reverse a tour
// segment (2-opt), (5) merge a singleton stop into its nearest stop.
// Classic Metropolis acceptance with geometric cooling; fully
// deterministic for a given seed.

#ifndef BUNDLECHARGE_TOUR_ANNEAL_H_
#define BUNDLECHARGE_TOUR_ANNEAL_H_

#include <cstdint>

#include "charging/model.h"
#include "charging/movement.h"
#include "support/deadline.h"
#include "tour/plan.h"

namespace bc::tour {

struct AnnealOptions {
  std::size_t iterations = 30000;
  // Initial temperature as a fraction of the starting energy; 0 disables
  // uphill moves entirely (pure stochastic descent).
  double initial_temperature_fraction = 0.002;
  // Geometric cooling factor applied every `iterations / 100` steps.
  double cooling = 0.92;
  // Position-jitter scale (metres); annealed together with temperature.
  double jitter_m = 15.0;
  std::uint64_t seed = 17;
  // Movement metric for the energy objective (null = Euclidean). Move
  // *proposals* (nearest-stop merge, jitter) stay Euclidean heuristics;
  // acceptance is always judged on this metric's energy.
  const net::MetricSpace* metric = nullptr;
};

struct AnnealResult {
  ChargingPlan plan;            // best plan found (always a partition)
  double initial_energy_j = 0;  // objective of the input plan
  double best_energy_j = 0;     // objective of the returned plan
  std::size_t accepted_moves = 0;
};

// Objective: movement energy + isolated-schedule charging energy — the
// same quantity evaluate_plan reports for SchedulePolicy::kIsolated.
double plan_energy_j(const net::Deployment& deployment,
                     const ChargingPlan& plan,
                     const charging::ChargingModel& charging,
                     const charging::MovementModel& movement,
                     const net::MetricSpace* metric = nullptr);

// Runs the annealer from `initial`. The annealer is intrinsically anytime:
// a non-null `meter` is charged one unit per iteration, and when it trips
// the best plan so far is returned, so the result's energy never exceeds
// the input's. A null meter runs every iteration. Precondition: `initial`
// partitions the deployment's sensors.
AnnealResult anneal_plan(const net::Deployment& deployment,
                         const ChargingPlan& initial,
                         const charging::ChargingModel& charging,
                         const charging::MovementModel& movement,
                         const AnnealOptions& options = AnnealOptions{},
                         support::BudgetMeter* meter = nullptr);

}  // namespace bc::tour

#endif  // BUNDLECHARGE_TOUR_ANNEAL_H_
