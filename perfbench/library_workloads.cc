// paper, city and walls: seeded deployment streams planned through the
// library's public API.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <optional>
#include <thread>

#include "bundle/candidates.h"
#include "bundle/greedy_cover.h"
#include "bundle/shard.h"
#include "core/profiles.h"
#include "obs/metrics.h"
#include "support/parallel.h"
#include "support/require.h"
#include "tour/route_util.h"
#include "tsp/construct.h"
#include "tsp/exact.h"
#include "tsp/improve.h"
#include "workloads.h"

namespace perfbench {

using bc::tour::Algorithm;
using bc::tour::ChargingPlan;

LibrarySpec paper_spec() {
  LibrarySpec spec;
  spec.name = "paper";
  spec.algorithm = Algorithm::kBcOpt;
  spec.sensors = 300;
  spec.stream = 32;
  return spec;
}

LibrarySpec city_spec() {
  LibrarySpec spec;
  spec.name = "city";
  spec.algorithm = Algorithm::kBcSharded;
  spec.sensors = 10000;
  spec.stream = 8;
  return spec;
}

// Walls plans never repeat a deployment inside a run: the shared metric's
// caches would serve a repeat from memory (about 3x faster), which is not
// the cost of a new deployment. At about 1 s a plan, 20 fill the run.
LibrarySpec walls_spec() {
  LibrarySpec spec = city_spec();
  spec.name = "walls";
  spec.stream = 20;
  spec.cycle = false;
  spec.setups = 3;  // each set-up includes a 1 s warm-up plan
  spec.walls = 50;
  return spec;
}

namespace {

// Independent per-purpose seeds, so adding an input kind never shifts
// the others.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index) {
  bc::support::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + purpose);
  return mix.next() ^ (index * 0xbf58476d1ce4e5b9ULL);
}

// Movement metric decorator for the traced walls run: forwards every query
// to the wrapped metric and counts and times the distance calls (batched
// queries reach distance() through the base class, so they count too).
class CountingMetric final : public bc::net::MetricSpace {
 public:
  explicit CountingMetric(const bc::net::MetricSpace& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  double distance(bc::geometry::Point2 a,
                  bc::geometry::Point2 b) const override {
    const Clock::time_point t0 = Clock::now();
    const double d = inner_.distance(a, b);
    const Clock::time_point t1 = Clock::now();
    calls_.fetch_add(1, std::memory_order_relaxed);
    ns_.fetch_add(static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          t1 - t0)
                          .count()),
                  std::memory_order_relaxed);
    return d;
  }
  void path(bc::geometry::Point2 a, bc::geometry::Point2 b,
            std::vector<bc::geometry::Point2>& out) const override {
    inner_.path(a, b, out);
  }

  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t ns() const { return ns_.load(); }

 private:
  const bc::net::MetricSpace& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> ns_{0};
};

// solve_tsp's improve_tour: 2-opt then Or-opt until a round gains nothing.
void replay_improve(std::span<const bc::geometry::Point2> points,
                    bc::tsp::Tour& order, const bc::tsp::ImproveOptions& opts,
                    Recorder* rec, std::uint64_t rid) {
  for (std::size_t round = 0; round < opts.max_passes; ++round) {
    double gain = 0.0;
    {
      Span span(rec, "tsp.two_opt", rid);
      gain += bc::tsp::two_opt(points, order, opts);
    }
    {
      Span span(rec, "tsp.or_opt", rid);
      gain += bc::tsp::or_opt(points, order, opts);
    }
    if (gain <= opts.min_gain) break;
  }
}

// tsp::solve_tsp (unbudgeted) in its own order of public calls.
bc::tsp::Tour replay_solve_tsp(std::span<const bc::geometry::Point2> points,
                               const bc::tsp::SolverOptions& options,
                               Recorder* rec, std::uint64_t rid) {
  const bc::net::MetricSpace* metric = options.improve.metric;
  const std::size_t n = points.size();
  if (n <= 3) {
    bc::tsp::Tour trivial(n);
    for (std::uint32_t i = 0; i < n; ++i) trivial[i] = i;
    return trivial;
  }
  if (n <= options.exact_threshold) {
    Span span(rec, "tsp.construct", rid);
    return bc::tsp::held_karp_tour(points, metric);
  }
  bc::tsp::Tour best;
  {
    Span span(rec, "tsp.construct", rid);
    best = bc::tsp::greedy_edge_tour(points, metric);
  }
  replay_improve(points, best, options.improve, rec, rid);
  double best_len = bc::tsp::tour_length(points, best, metric);
  const std::size_t starts = std::max<std::size_t>(1, options.nn_starts);
  for (std::size_t s = 0; s < starts; ++s) {
    const auto start = static_cast<std::uint32_t>((s * n) / starts);
    bc::tsp::Tour candidate;
    {
      Span span(rec, "tsp.construct", rid);
      candidate = bc::tsp::nearest_neighbor_tour(points, start, metric);
    }
    replay_improve(points, candidate, options.improve, rec, rid);
    const double len = bc::tsp::tour_length(points, candidate, metric);
    if (len < best_len) {
      best_len = len;
      best = std::move(candidate);
    }
  }
  return best;
}

// tour::order_stops_by_tsp with the solve replayed.
void replay_order_by_tsp(bc::geometry::Point2 depot,
                         std::vector<bc::tour::Stop>& stops,
                         const bc::tsp::SolverOptions& options, Recorder* rec,
                         std::uint64_t rid) {
  if (stops.size() < 2) return;
  std::vector<bc::geometry::Point2> points;
  points.reserve(stops.size() + 1);
  points.push_back(depot);
  for (const bc::tour::Stop& s : stops) points.push_back(s.position);
  bc::tsp::Tour order = replay_solve_tsp(points, options, rec, rid);
  bc::tsp::rotate_to_front(order, 0);
  if (order.size() >= 3 && order[1] > order.back()) {
    std::reverse(order.begin() + 1, order.end());
  }
  std::vector<bc::tour::Stop> ordered;
  ordered.reserve(stops.size());
  for (std::size_t i = 1; i < order.size(); ++i) {
    ordered.push_back(std::move(stops[order[i] - 1]));
  }
  stops = std::move(ordered);
}

// Stops whose anchor Algorithm 3 displaced (BC-OPT keeps BC's order).
std::size_t anchors_moved(const ChargingPlan& bc, const ChargingPlan& opt) {
  std::size_t moved = 0;
  for (std::size_t i = 0; i < std::min(bc.stops.size(), opt.stops.size());
       ++i) {
    if (bc.stops[i].position.x != opt.stops[i].position.x ||
        bc.stops[i].position.y != opt.stops[i].position.y) {
      ++moved;
    }
  }
  return moved;
}

// Runs `fn` inside a span and returns the span's duration.
template <typename Fn>
double timed_span(Recorder& rec, const char* name, std::uint64_t rid,
                  Fn&& fn) {
  std::size_t index = 0;
  {
    Span span(&rec, name, rid);
    index = span.index();
    fn();
  }
  return rec.spans()[index].ms();
}

// Audits plans[i] against in.stream[i] on the planner pool: evaluate_plan
// is O(stops x n), seconds per pass at city scale.
std::vector<Audit> audit_all(const LibraryInputs& in,
                             const std::vector<ChargingPlan>& plans) {
  return bc::support::parallel_map<Audit>(plans.size(), 1, [&](std::size_t i) {
    return audit_plan(in.stream[i], plans[i], in.evaluation, in.range_m);
  });
}

void run_untraced(const LibrarySpec& spec, const RunOptions& options,
                  const LibraryInputs& in, RunResult& result) {
  std::vector<double> plan_ms;
  std::vector<ChargingPlan> first(in.stream.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    if (pass > 0 && (!spec.cycle || seconds_since(start) >= options.seconds)) {
      break;
    }
    for (std::size_t i = 0; i < in.stream.size(); ++i) {
      // The first pass always completes: energy_mj sums all of it.
      if (pass > 0 && seconds_since(start) >= options.seconds) break;
      ++result.attempted;
      const Clock::time_point t0 = Clock::now();
      ChargingPlan plan = bc::tour::plan_charging_tour(
          in.stream[i], spec.algorithm, in.config);
      plan_ms.push_back(ms_between(t0, Clock::now()));
      if (pass == 0) {
        first[i] = std::move(plan);
      } else if (!same_plan(plan, first[i])) {
        result.fail(spec.name + " plan " + std::to_string(i) +
                        " differs between passes (determinism contract)",
                    /*fatal=*/true);
      }
    }
  }
  double energy_j = 0.0;
  const std::vector<Audit> audits = audit_all(in, first);
  for (std::size_t i = 0; i < audits.size(); ++i) {
    if (!audits[i].ok) {
      result.fail(spec.name + " plan " + std::to_string(i) + ": " +
                  audits[i].why);
    }
    energy_j += audits[i].metrics.total_energy_j;
  }
  const double p50 = median(plan_ms);
  std::cerr << "perfbench: " << spec.name << " plan_ms median of "
            << plan_ms.size() << " calls over " << in.stream.size()
            << " distinct deployments\n";
  result.add("plan_ms", p50, "ms");
  // The library path has no cache, patch or replan stage: every request
  // class costs one plan_charging_tour call.
  result.add("hit_p50_ms", p50, "ms");
  result.add("incr_p50_ms", p50, "ms");
  result.add("replan_p50_ms", p50, "ms");
  result.add("energy_mj", energy_j / 1e6, "MJ");
}

// The traced run plans every input twice: once through the replay, once
// through the plain library call, and which goes first alternates with
// the input and the pass, so on the cycled workloads every input is timed
// both ways. Only the first of the two is timed for comparison: the second
// finds the movement metric's caches warm with that very deployment (about
// 3x faster on walls), which the untraced run never sees. Walls makes a
// single pass, so there trace.overhead_pct compares the replays of the
// odd-indexed deployments with the plain calls of the even-indexed ones.
// Work counts come from the first pass over the distinct inputs, so they
// depend on the seed alone.
void run_traced(const LibrarySpec& spec, const RunOptions& options,
                const LibraryInputs& in, RunResult& result) {
  Recorder rec;
  const bool opt = spec.algorithm == Algorithm::kBcOpt;

  // Walls: the replay's metric counts and times every distance query.
  std::unique_ptr<CountingMetric> counting;
  bc::tour::PlannerConfig traced = in.config;
  if (in.graph != nullptr) {
    counting = std::make_unique<CountingMetric>(*in.graph);
    traced.metric = std::shared_ptr<const bc::net::MetricSpace>(
        std::shared_ptr<void>(), counting.get());
  }

  bc::obs::MetricsRegistry chain_counts;
  bc::obs::MetricsRegistry relocate_counts;
  PlanTotals totals;
  std::uint64_t moved = 0;
  std::uint64_t net_calls = 0, row_hits = 0, row_misses = 0, point_misses = 0;
  std::vector<double> plain_ms, root_ms, traced_plan_ms, relocate_ms,
      evaluate_ms, distance_ms;
  LayerTimes layers;
  double covered_ms = 0.0, total_ms = 0.0;
  const std::size_t n = in.stream.size();
  std::vector<ChargingPlan> reference(n);

  const Clock::time_point start = Clock::now();
  std::uint64_t rid = 0;
  for (std::size_t pass = 0;; ++pass) {
    if (pass > 0 && (!spec.cycle || seconds_since(start) >= options.seconds)) {
      break;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (pass > 0 && seconds_since(start) >= options.seconds) break;
      const bc::net::Deployment& dep = in.stream[i];
      const bool first = pass == 0;
      const bool replay_first = (i + pass) % 2 == 1;
      ++result.attempted;
      ++rid;

      // The plain call. For BC-OPT, plan_bc and plan_bc_opt are timed
      // against each other: their difference is Algorithm 3's relocation.
      ChargingPlan plan, bc_plan;
      double relocate = 0.0;
      const auto plain = [&] {
        double ms = 0.0;
        if (opt) {
          ms = timed_span(rec, "tour.plan_bc", rid, [&] {
            bc_plan = bc::tour::plan_bc(dep, in.config);
          });
          std::optional<bc::obs::ScopedMetricsRegistry> scope;
          if (first) scope.emplace(relocate_counts);
          relocate = timed_span(rec, "tour.plan_bc_opt", rid, [&] {
                       plan = bc::tour::plan_bc_opt(dep, in.config);
                     }) -
                     ms;
          relocate_ms.push_back(relocate);
        } else {
          ms = timed_span(rec, "reference.plan_charging_tour", rid, [&] {
            plan = bc::tour::plan_charging_tour(dep, spec.algorithm, in.config);
          });
        }
        if (!replay_first) plain_ms.push_back(ms);
      };

      // The replay, under the counting registry on the first pass.
      ChargingPlan replayed;
      std::size_t root = 0;
      const auto replay = [&] {
        const std::uint64_t calls0 = counting ? counting->calls() : 0;
        const std::uint64_t ns0 = counting ? counting->ns() : 0;
        const bc::net::GraphMetric::CacheStats cache0 =
            in.graph ? in.graph->cache_stats()
                     : bc::net::GraphMetric::CacheStats{};
        root = rec.spans().size();
        {
          std::optional<bc::obs::ScopedMetricsRegistry> scope;
          if (first) scope.emplace(chain_counts);
          replayed = replay_plan(dep, spec.algorithm, traced, &rec, rid);
        }
        if (counting && replay_first) {
          distance_ms.push_back(static_cast<double>(counting->ns() - ns0) /
                                1e6);
          if (first) {
            const bc::net::GraphMetric::CacheStats cache1 =
                in.graph->cache_stats();
            net_calls += counting->calls() - calls0;
            row_hits += cache1.row_hits - cache0.row_hits;
            row_misses += cache1.row_misses - cache0.row_misses;
            point_misses += cache1.point_misses - cache0.point_misses;
          }
        }
      };

      if (replay_first) {
        replay();
        plain();
      } else {
        plain();
        replay();
      }

      if (!same_plan(replayed, opt ? bc_plan : plan)) {
        result.fail(spec.name + " replay of plan " + std::to_string(i) +
                        " differs from the library's plan",
                    /*fatal=*/true);
      }
      if (replay_first) {
        const double root_total = rec.spans()[root].ms();
        root_ms.push_back(root_total);
        traced_plan_ms.push_back(root_total + relocate);
        covered_ms += rec.children_ms(root) + relocate;
        total_ms += root_total + relocate;
        layers.add(rec, root);
      }
      if (first) {
        if (opt) {
          moved += anchors_moved(bc_plan, plan);
          if (!same_plan(plan, bc::tour::plan_charging_tour(
                                   dep, spec.algorithm, in.config))) {
            result.fail(spec.name + " plan_bc_opt differs from "
                                    "plan_charging_tour",
                        /*fatal=*/true);
          }
        }
        reference[i] = std::move(plan);
      }
    }
  }

  // Audits after the timed passes, so their metric queries do not warm
  // the caches a replay then finds.
  for (std::size_t i = 0; i < n; ++i) {
    Audit audit;
    evaluate_ms.push_back(timed_span(rec, "sim.evaluate", i + 1, [&] {
      audit = audit_plan(in.stream[i], reference[i], in.evaluation, in.range_m);
    }));
    if (!audit.ok) {
      result.fail(spec.name + " plan " + std::to_string(i) + ": " + audit.why);
    }
    totals.stops += reference[i].stops.size();
    totals.stop_lower_bound +=
        stop_lower_bound(in.stream[i], in.config.bundle_radius);
    totals.tour_m += audit.metrics.tour_length_m;
  }

  const bc::obs::MetricsSnapshot reloc = relocate_counts.snapshot();
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  add_layer_metrics(layers, chain_counts.snapshot(), totals, result);
  result.add("tour.relocate_ms", median(relocate_ms), "ms");
  result.add("tour.anchors_moved", count(moved), "count");
  result.add("anchor.calls", count(reloc.counter("anchor.calls")), "count");
  result.add("anchor.bisection_iters",
             count(reloc.counter("anchor.bisection_iters")), "count");
  result.add("net.distance_calls", count(net_calls), "count");
  result.add("net.distance_ms", median(distance_ms), "ms");
  result.add("net.row_misses", count(row_misses), "count");
  result.add("net.point_misses", count(point_misses), "count");
  result.add("net.row_hit_ratio",
             row_hits + row_misses
                 ? count(row_hits) / count(row_hits + row_misses)
                 : 0.0,
             "ratio");
  result.add("sim.evaluate_ms", median(evaluate_ms), "ms");
  result.add("trace.plan_ms", median(traced_plan_ms), "ms");
  // Replay root against the plain call it reproduces (plan_bc for BC-OPT,
  // whose relocation is timed by difference and carries no spans).
  const double plain = median(plain_ms);
  result.add("trace.overhead_pct",
             plain > 0.0 ? 100.0 * (median(root_ms) - plain) / plain
                         : 0.0,
             "%");
  result.add("trace.coverage_pct",
             total_ms > 0.0 ? 100.0 * covered_ms / total_ms : 0.0, "%");

  const std::string path = options.work_dir + "/trace_" + spec.name + ".jsonl";
  if (!rec.write_jsonl(path)) {
    result.fail("cannot write span dump " + path, /*fatal=*/true);
  }
}

}  // namespace

void add_layer_metrics(const LayerTimes& layers,
                       const bc::obs::MetricsSnapshot& counts,
                       const PlanTotals& totals, RunResult& result) {
  const auto count = [&counts](const char* name) {
    return static_cast<double>(counts.counter(name));
  };
  result.add("bundle.candidates_ms", layers.median_ms("bundle.candidates"),
             "ms");
  result.add("bundle.cover_ms", layers.median_ms("bundle.cover"), "ms");
  result.add("bundle.tiles_ms", layers.median_ms("bundle.tiles"), "ms");
  result.add("bundle.stitch_ms", layers.median_ms("bundle.stitch"), "ms");
  result.add("bundle.candidates", count("candidates.enumerated"), "count");
  result.add("bundle.dominated_pruned", count("candidates.dominated_pruned"),
             "count");
  result.add("bundle.stops", static_cast<double>(totals.stops), "count");
  result.add("bundle.stops_over_lb",
             totals.stop_lower_bound
                 ? static_cast<double>(totals.stops) /
                       static_cast<double>(totals.stop_lower_bound)
                 : 0.0,
             "ratio");
  result.add("tsp.order_ms", layers.median_ms("tsp.order"), "ms");
  result.add("tsp.construct_ms", layers.median_ms("tsp.construct"), "ms");
  result.add("tsp.two_opt_ms", layers.median_ms("tsp.two_opt"), "ms");
  result.add("tsp.or_opt_ms", layers.median_ms("tsp.or_opt"), "ms");
  result.add("tsp.two_opt.moves", count("tsp.two_opt.moves"), "count");
  result.add("tsp.or_opt.moves", count("tsp.or_opt.moves"), "count");
  result.add("tsp.tour_km", totals.tour_m / 1000.0, "km");
}

LibraryInputs make_library_inputs(const LibrarySpec& spec,
                                  std::uint64_t seed) {
  const bc::core::Profile profile = bc::core::icdcs2019_simulation_profile();
  LibraryInputs in{{},
                   paper_deployment(spec.sensors, {0.0, 0.0},
                                    derive_seed(seed, 1, 0)),
                   nullptr,
                   profile.planner,
                   profile.evaluation};
  in.stream.reserve(spec.stream);
  for (std::size_t i = 0; i < spec.stream; ++i) {
    in.stream.push_back(
        paper_deployment(spec.sensors, {0.0, 0.0}, derive_seed(seed, 2, i)));
  }
  in.config.bundle_radius = spec.radius_m;
  double min_demand = in.warmup.demand_j();
  for (const bc::net::Deployment& d : in.stream) {
    for (const bc::net::Sensor& sensor : d.sensors()) {
      min_demand = std::min(min_demand, sensor.demand_j);
    }
  }
  in.range_m = charging_range_m(in.config, spec.algorithm == Algorithm::kBcOpt,
                                min_demand);
  if (spec.walls > 0) {
    in.graph = std::make_shared<const bc::net::GraphMetric>(walled_grid(
        paper_field_side_m(spec.sensors), spec.grid_side, spec.walls,
        spec.wall_len_m, derive_seed(seed, 3, 0)));
    in.config.metric = in.graph;
    in.evaluation.metric = in.graph.get();
  }
  return in;
}

ChargingPlan replay_plan(const bc::net::Deployment& dep, Algorithm algorithm,
                         const bc::tour::PlannerConfig& config, Recorder* rec,
                         std::uint64_t rid) {
  bc::support::require(
      algorithm == Algorithm::kBc || algorithm == Algorithm::kBcOpt ||
          algorithm == Algorithm::kBcSharded,
      "the replay covers BC, BC-OPT (up to its BC plan) and BC-SHARD");
  bc::support::require(
      config.generator.kind == bc::bundle::GeneratorKind::kGreedy &&
          config.budget.unlimited(),
      "the replay covers the unbudgeted greedy generator");
  const double r = config.bundle_radius;
  Span root(rec, "plan", rid);
  std::vector<bc::bundle::Bundle> bundles;
  if (algorithm == Algorithm::kBcSharded) {
    bc::bundle::ShardOptions tiles_only = config.shard;
    tiles_only.stitch = false;
    {
      Span span(rec, "bundle.tiles", rid);
      bundles = bc::bundle::sharded_bundles(dep, r, tiles_only);
    }
    if (config.shard.stitch) {
      Span span(rec, "bundle.stitch", rid);
      const bc::bundle::ShardGrid grid =
          bc::bundle::build_shard_grid(dep, r, config.shard);
      // A single tile is the monolithic greedy output, unstitched.
      if (grid.tiles() > 1) {
        bundles = bc::bundle::stitch_bundles(dep, r, grid, std::move(bundles));
      }
    }
  } else {
    std::vector<bc::bundle::Bundle> candidates;
    {
      Span span(rec, "bundle.candidates", rid);
      candidates = bc::bundle::enumerate_candidates(dep, r);
    }
    Span span(rec, "bundle.cover", rid);
    bundles = bc::bundle::greedy_cover(dep, candidates);
  }

  ChargingPlan plan;
  plan.algorithm = algorithm == Algorithm::kBcSharded ? "BC-SHARD" : "BC";
  plan.depot = dep.depot();
  plan.stops.reserve(bundles.size());
  for (const bc::bundle::Bundle& b : bundles) {
    plan.stops.push_back(bc::tour::Stop{b.anchor, b.members});
  }
  const bc::tsp::SolverOptions tsp = bc::tour::tsp_options_with_metric(config);
  Span span(rec, "tsp.order", rid);
  if (algorithm == Algorithm::kBcSharded &&
      plan.stops.size() > config.shard_tsp_cutover) {
    bc::tour::order_stops_snake(plan.depot, plan.stops, tsp);
  } else {
    replay_order_by_tsp(plan.depot, plan.stops, tsp, rec, rid);
  }
  return plan;
}

RunResult run_library(const LibrarySpec& spec, const RunOptions& options) {
  RunResult result;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  bc::support::set_thread_count(std::min(spec.threads, hw));

  // Set-up: inputs, the movement metric, pool start and one warm-up plan.
  std::optional<LibraryInputs> in;
  const double setup_s = median_setup_s(spec.setups, [&] {
    in.reset();
    in.emplace(make_library_inputs(spec, options.seed));
    (void)bc::tour::plan_charging_tour(in->warmup, spec.algorithm,
                                       in->config);
  });

  if (options.trace) {
    run_traced(spec, options, *in, result);
  } else {
    run_untraced(spec, options, *in, result);
    result.add("setup_s", setup_s, "s");
    result.add("peak_rss_mib", peak_rss_mib(), "MiB");
  }
  return result;
}

}  // namespace perfbench
