// Shared pieces of the benchmark: run options and results, seeded input
// generation, the plan audit, summary statistics and the JSON result line.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/deployment.h"
#include "net/metric.h"
#include "sim/evaluate.h"
#include "tour/plan.h"
#include "tour/planner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point start);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for the run's scratch files (cache journals, span dumps).
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  // Records a failed operation (and why, on stderr); the run stays
  // correct unless `fatal` marks a broken benchmark contract.
  void fail(const std::string& why, bool fatal = false);
  const Metric* find(const std::string& name) const;
  // {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string to_json() const;
};

// Summary statistics over a sample (the input is copied and sorted); an
// empty sample reads 0.
double median(std::vector<double> values);
// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mib();

// Paper density: 200 sensors per km^2, so an n-sensor square field has
// side 1000 * sqrt(n / 200) metres.
double paper_field_side_m(std::size_t n);

// Uniform deployment of n sensors over a paper-density square whose lower
// left corner (also the depot) is `origin`.
bc::net::Deployment paper_deployment(std::size_t n, bc::geometry::Point2 origin,
                                     std::uint64_t seed);

// The waypoint world of the `walls` workload: a side x side square covered
// by a per_side x per_side 4-connected grid with chord-weighted edges, plus
// `walls` segments of `wall_len` metres, each strictly inside one random
// grid cell (so no grid edge is ever blocked and the graph stays
// connected).
bc::net::WaypointGraph walled_grid(double side, std::size_t per_side,
                                   std::size_t walls, double wall_len,
                                   std::uint64_t seed);

// Stop-count lower bound: a greedy set of sensors pairwise more than 2r
// apart, scanned in id order. No radius-r disk holds two of them, so every
// partition into radius-r bundles needs at least this many stops.
std::size_t stop_lower_bound(const bc::net::Deployment& deployment, double r);

// Independent check of an emitted plan: it must partition the sensors,
// keep every member within `range_m` of its stop, and its recomputed
// schedule must deliver every demand (sim::plan_is_feasible's criterion).
// The energy is recomputed with sim::evaluate_plan.
struct Audit {
  bool ok = false;
  std::string why;
  bc::sim::PlanMetrics metrics;
};
Audit audit_plan(const bc::net::Deployment& deployment,
                 const bc::tour::ChargingPlan& plan,
                 const bc::sim::EvaluationConfig& evaluation, double range_m);

// The farthest a member may sit from its stop: the bundle radius r
// (Definition 3), plus, when Algorithm 3 `relocates` anchors (BC-OPT), the
// largest displacement it can accept: the distance past which parking
// farther costs more charging energy than the 2*E_m per metre of driving
// it could save.
double charging_range_m(const bc::tour::PlannerConfig& config,
                        bool relocates, double min_demand_j);

// Bit-for-bit plan equality (algorithm, depot, stop positions, members).
bool same_plan(const bc::tour::ChargingPlan& a,
               const bc::tour::ChargingPlan& b);

// Median of `runs` set-up passes: calls `setup` that many times and returns
// the median wall time in seconds.
template <typename Fn>
double median_setup_s(std::size_t runs, Fn&& setup) {
  std::vector<double> times;
  for (std::size_t i = 0; i < runs; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
