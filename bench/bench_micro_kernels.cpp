// Micro-benchmarks (google-benchmark) for the library's computational
// kernels: smallest enclosing disk, candidate enumeration, greedy cover,
// TSP solve, anchor search, and full end-to-end planning.

#include <benchmark/benchmark.h>

#include "bundle/candidates.h"
#include "bundle/greedy_cover.h"
#include "core/bundlecharge.h"
#include "geometry/anchor_search.h"
#include "geometry/minidisk.h"
#include "oracles/geometry_reference.h"
#include "tsp/solver.h"

namespace {

using bc::geometry::Point2;

std::vector<Point2> random_points(std::size_t n, std::uint64_t seed,
                                  double side = 1000.0) {
  bc::support::Rng rng(seed);
  std::vector<Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, side), rng.uniform(0, side)});
  }
  return pts;
}

bc::net::Deployment make_deployment(std::size_t n, std::uint64_t seed) {
  bc::support::Rng rng(seed);
  return bc::net::uniform_random_deployment(
      n, bc::core::icdcs2019_simulation_profile().field, rng);
}

void BM_MinDisk(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::geometry::smallest_enclosing_disk(pts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinDisk)->RangeMultiplier(4)->Range(8, 2048)->Complexity();

// Runs on the global pool; set BC_THREADS to measure parallel scaling
// (the enumerated candidate set is identical at every thread count).
void BM_CandidateEnumeration(benchmark::State& state) {
  const auto d = make_deployment(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::bundle::enumerate_candidates(d, 60.0));
  }
}
BENCHMARK(BM_CandidateEnumeration)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_GreedyCover(benchmark::State& state) {
  const auto d = make_deployment(static_cast<std::size_t>(state.range(0)), 3);
  const auto candidates = bc::bundle::enumerate_candidates(d, 60.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::bundle::greedy_cover(d, candidates));
  }
}
BENCHMARK(BM_GreedyCover)->Arg(50)->Arg(100)->Arg(200);

void BM_TspSolve(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::tsp::solve_tsp(pts));
  }
}
BENCHMARK(BM_TspSolve)->Arg(12)->Arg(50)->Arg(100)->Arg(200);

void BM_AnchorSearch(benchmark::State& state) {
  const Point2 a{-100.0, 20.0};
  const Point2 b{80.0, -40.0};
  const Point2 center{10.0, 90.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bc::geometry::optimal_point_on_circle(a, b, center, 25.0));
  }
}
BENCHMARK(BM_AnchorSearch);

void BM_AnchorSearchBrute(benchmark::State& state) {
  const Point2 a{-100.0, 20.0};
  const Point2 b{80.0, -40.0};
  const Point2 center{10.0, 90.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::geometry::optimal_point_on_circle_brute(
        a, b, center, 25.0, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_AnchorSearchBrute)->Arg(1000)->Arg(20000);

void BM_PlanEndToEnd(benchmark::State& state) {
  const auto d = make_deployment(100, 5);
  const bc::core::BundleChargingPlanner planner(
      bc::core::icdcs2019_simulation_profile());
  const auto algorithm = static_cast<bc::tour::Algorithm>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(d, algorithm));
  }
  state.SetLabel(std::string(bc::tour::to_string(algorithm)));
}
BENCHMARK(BM_PlanEndToEnd)
    ->Arg(static_cast<int>(bc::tour::Algorithm::kSc))
    ->Arg(static_cast<int>(bc::tour::Algorithm::kCss))
    ->Arg(static_cast<int>(bc::tour::Algorithm::kBc))
    ->Arg(static_cast<int>(bc::tour::Algorithm::kBcOpt));

}  // namespace

BENCHMARK_MAIN();
