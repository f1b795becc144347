// Planner facade: configuration and the four trajectory-planning
// algorithms compared in the paper's evaluation (§VI-B).
//
//   SC      Single Charging [6]: TSP over every sensor, charge at zero
//           distance — no bundling.
//   CSS     Combine-Skip-Substitute [36]: data-collection heuristic adapted
//           to charging; merges tour-consecutive sensors whose radius-r
//           disks share a common point and slides stops to shorten the
//           tour, ignoring charging efficiency.
//   BC      Bundle Charging (this paper): greedy bundle generation
//           (Algorithm 2) + TSP over anchor points.
//   BC-OPT  BC + charging-tour optimisation (Algorithm 3, Theorems 4-5):
//           anchors are iteratively displaced toward their tour neighbours
//           whenever the movement energy saved exceeds the charging energy
//           lost.
//   TSPN    the classic TSP-with-neighborhoods baseline [4, 6, 28] the
//           paper's §II criticises: the charger merely *reaches* each
//           bundle's covering disk at the detour-minimising point and
//           charges from there, ignoring the charging-efficiency cost of
//           parking at the neighbourhood boundary.

#ifndef BUNDLECHARGE_TOUR_PLANNER_H_
#define BUNDLECHARGE_TOUR_PLANNER_H_

#include <memory>
#include <string_view>

#include "bundle/generator.h"
#include "bundle/shard.h"
#include "charging/model.h"
#include "charging/movement.h"
#include "net/deployment.h"
#include "support/deadline.h"
#include "tour/plan.h"
#include "tsp/solver.h"

namespace bc::tour {

enum class Algorithm { kSc, kCss, kBc, kBcOpt, kTspn, kBcSharded };

std::string_view to_string(Algorithm algorithm);

// Knobs for the BC-OPT anchor relocation (Algorithm 3).
struct BcOptOptions {
  // Displacement radii are swept over this many evenly spaced steps in
  // (0, d_max]; the paper's "for d = 0 : max" discretisation.
  std::size_t radius_steps = 24;
  // Upper bound on full passes over all stops; convergence (a pass with no
  // accepted move) is typically reached in 2-4 passes.
  std::size_t max_rounds = 8;
  // Optional hard cap on the displacement radius (metres). 0 = derive the
  // cap from the models: displacement stops paying off once the marginal
  // charging-cost increase 2*cost_w*delta*(beta+D)/(alpha*p_tx) exceeds
  // the best-case marginal movement saving of 2*E_m.
  double max_displacement_m = 0.0;
  // When false (paper-faithful), candidate stop times use the conservative
  // covering-circle bound t(sed_radius + d); when true, the exact
  // farthest-member time at each candidate position is used (strictly
  // stronger; measured by the ablation bench).
  bool exact_charging_eval = false;
};

struct PlannerConfig {
  // Bundle generation radius r (metres); the central trade-off knob.
  double bundle_radius = 20.0;
  // Which generator feeds BC/BC-OPT (greedy by default; the Fig. 11 bench
  // swaps in grid/exact).
  bundle::GeneratorOptions generator{};
  charging::ChargingModel charging =
      charging::ChargingModel::icdcs2019_simulation();
  charging::MovementModel movement = charging::MovementModel::icdcs2019();
  tsp::SolverOptions tsp{};
  BcOptOptions opt{};
  // BC-SHARD: tiling for the hierarchical large-n generator
  // (bundle/shard.h). Stop counts at or below the cutover are toured
  // through the exact solver facade like BC (so a degenerate single-tile
  // shard plan matches BC bit for bit); larger plans switch to the snake
  // construction + uncertified neighbour-list 2-opt, whose cost stays
  // near-linear in the stop count.
  bundle::ShardOptions shard{};
  std::size_t shard_tsp_cutover = 1000;
  // Movement metric shared by every stage (tour ordering, refinement
  // acceptance, travel legs). Null = Euclidean free space, the bit-exact
  // default. Owned here (shared_ptr: configs are copied across profiles
  // and service threads); planners hand the raw pointer to the TSP stack
  // via tsp.improve.metric — set *this* field, not that one.
  std::shared_ptr<const net::MetricSpace> metric;
  // Deadline / node cap / cancellation shared across every solver stage
  // the planner touches (bundle generation, TSP ordering, refinement
  // passes). Every planner is *anytime* under a budget: a trip stops the
  // current refinement and returns the best valid plan so far — the plan
  // is still a partition of the sensors, just less optimised. This is the
  // only Budget a solver reads: plan_charging_tour and replan_tour turn it
  // into the BudgetMeter that every stage below them is handed.
  support::Budget budget{};
};

// Stamps config.metric into a copy of config.tsp for the solver stack
// (tsp options carry the metric via improve.metric, see tsp/solver.h).
// Every planner routes its TSP calls through this helper.
inline tsp::SolverOptions tsp_options_with_metric(
    const PlannerConfig& config) {
  tsp::SolverOptions options = config.tsp;
  if (config.metric != nullptr) {
    options.improve.metric = config.metric.get();
  }
  return options;
}

// Plans a charging tour with the requested algorithm. The returned plan is
// always a partition of the deployment's sensors over its stops — even
// when `config.budget` (or a caller-supplied `meter`) trips mid-plan. A
// non-null `meter` is charged instead of `config.budget` (a budget shared
// with the caller); a null one is built from `config.budget` unless that
// is unlimited. Preconditions: bundle_radius > 0 for CSS/BC/BC-OPT.
ChargingPlan plan_charging_tour(const net::Deployment& deployment,
                                Algorithm algorithm,
                                const PlannerConfig& config,
                                support::BudgetMeter* meter = nullptr);

// Individual planners (same contracts); exposed for tests and ablations.
// They ignore `config.budget`: only `meter` bounds them, and a null meter
// runs unbudgeted. Go through plan_charging_tour to honour a budget.
ChargingPlan plan_sc(const net::Deployment& deployment,
                     const PlannerConfig& config,
                     support::BudgetMeter* meter = nullptr);
ChargingPlan plan_css(const net::Deployment& deployment,
                      const PlannerConfig& config,
                      support::BudgetMeter* meter = nullptr);
ChargingPlan plan_bc(const net::Deployment& deployment,
                     const PlannerConfig& config,
                     support::BudgetMeter* meter = nullptr);
ChargingPlan plan_bc_opt(const net::Deployment& deployment,
                         const PlannerConfig& config,
                         support::BudgetMeter* meter = nullptr);
ChargingPlan plan_tspn(const net::Deployment& deployment,
                       const PlannerConfig& config,
                       support::BudgetMeter* meter = nullptr);
ChargingPlan plan_bc_sharded(const net::Deployment& deployment,
                             const PlannerConfig& config,
                             support::BudgetMeter* meter = nullptr);

}  // namespace bc::tour

#endif  // BUNDLECHARGE_TOUR_PLANNER_H_
