// The benchmark's workloads. Each one generates its inputs from the seed,
// sets up, measures for the requested time, checks every output, and
// returns its metrics: the end-to-end set untraced, the per-layer set
// traced.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "net/deployment.h"
#include "obs/metrics.h"
#include "tour/planner.h"
#include "trace.h"

namespace perfbench {

// paper, city and walls: a seeded stream of distinct deployments, each
// planned through tour::plan_charging_tour.
struct LibrarySpec {
  std::string name;
  bc::tour::Algorithm algorithm = bc::tour::Algorithm::kBcOpt;
  std::size_t sensors = 300;
  std::size_t stream = 32;     // distinct deployments
  bool cycle = true;           // re-plan the stream until time runs out
  std::size_t walls = 0;       // 0 = Euclidean movement
  std::size_t grid_side = 72;  // waypoint nodes per side (walls only)
  double wall_len_m = 60.0;
  double radius_m = 60.0;
  std::size_t threads = 4;     // planner pool size
  std::size_t setups = 15;     // set-up passes; setup_s is their median
};

LibrarySpec paper_spec();
LibrarySpec city_spec();
LibrarySpec walls_spec();

RunResult run_library(const LibrarySpec& spec, const RunOptions& options);

// Everything a library workload plans with, built from the seed.
struct LibraryInputs {
  std::vector<bc::net::Deployment> stream;
  bc::net::Deployment warmup;  // planned once in set-up, never timed
  std::shared_ptr<const bc::net::GraphMetric> graph;  // walls only
  bc::tour::PlannerConfig config;
  bc::sim::EvaluationConfig evaluation;
  double range_m = 0.0;  // audit bound, see charging_range_m
};
LibraryInputs make_library_inputs(const LibrarySpec& spec, std::uint64_t seed);

// The traced replay: plan_charging_tour's plan rebuilt from its chain of
// public calls, each inside a span under `root`. For BC-OPT the chain
// stops at the BC plan (Algorithm 3 is only reachable through
// plan_bc_opt); the caller times plan_bc against plan_bc_opt for it.
bc::tour::ChargingPlan replay_plan(const bc::net::Deployment& deployment,
                                   bc::tour::Algorithm algorithm,
                                   const bc::tour::PlannerConfig& config,
                                   Recorder* recorder, std::uint64_t request);

// What the traced runs add up over the audited plans of a run.
struct PlanTotals {
  std::uint64_t stops = 0;
  std::uint64_t stop_lower_bound = 0;  // sum of stop_lower_bound()
  double tour_m = 0.0;
};

// The bundle and tsp layer metrics of replayed plans: per-plan median
// times from `layers`, work counts from the replays' metrics snapshot,
// stop counts and tour length from `totals`.
void add_layer_metrics(const LayerTimes& layers,
                       const bc::obs::MetricsSnapshot& counts,
                       const PlanTotals& totals, RunResult& result);

// Checks a /v1/plan response body for the deployment `deployment`: the
// "plan" member must parse as a plan document, pass audit_plan within
// `range_m`, and its emitted stop times must deliver every demand.
// Returns the recomputed total energy (J), or nothing with `why` set.
std::optional<double> audit_plan_response(
    const bc::net::Deployment& deployment, const std::string& body,
    const bc::sim::EvaluationConfig& evaluation, double range_m,
    std::string* why);

// service: an open loop against an in-process bundlecharged.
struct ServiceSpec {
  std::string name = "service";
  std::size_t sensors = 300;
  double radius_m = 60.0;
  double rate_per_s = 50.0;  // mean Poisson arrival rate
  std::size_t senders = 4;    // capped at the host's hardware threads
  std::size_t hit_bodies = 8;
  std::size_t incr_bases = 8;
  std::size_t incr_moves = 8;  // K moved sensors per incr body
  std::size_t replan_bodies = 8;
  // A run whose generator sent some tenth of its schedule later than
  // this (median) fell behind and is invalid.
  double max_late_ms = 10.0;
  std::size_t setups = 5;
  std::size_t traced_replays = 16;  // cold bodies replayed layer by layer
};

ServiceSpec service_spec();

RunResult run_service(const ServiceSpec& spec, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
