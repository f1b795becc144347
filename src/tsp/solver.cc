#include "tsp/solver.h"

#include <algorithm>

#include "support/require.h"
#include "tsp/construct.h"
#include "tsp/exact.h"

namespace bc::tsp {

using geometry::Point2;

Tour solve_tsp(std::span<const Point2> points, const SolverOptions& options,
               support::BudgetMeter* meter) {
  support::require(options.exact_threshold <= kHeldKarpLimit,
                   "exact_threshold exceeds the Held-Karp limit");
  const net::MetricSpace* metric = options.improve.metric;
  const std::size_t n = points.size();
  if (n == 0) return Tour{};
  if (n <= 3) {
    Tour trivial(n);
    for (std::uint32_t i = 0; i < n; ++i) trivial[i] = i;
    return trivial;
  }
  if (n <= options.exact_threshold) {
    if (meter == nullptr) return held_karp_tour(points, metric);
    // Budgeted exact: fall through to the heuristic path if the DP trips
    // (construction is polynomial, so a tour always comes back).
    auto exact = held_karp_tour_budgeted(points, *meter, metric);
    if (exact.has_value()) return std::move(*exact);
  }

  Tour best = greedy_edge_tour(points, metric);
  improve_tour(points, best, options.improve, meter);
  double best_len = tour_length(points, best, metric);

  const std::size_t starts = std::max<std::size_t>(1, options.nn_starts);
  for (std::size_t s = 0; s < starts; ++s) {
    if (meter != nullptr && !meter->check()) break;
    const auto start = static_cast<std::uint32_t>((s * n) / starts);
    Tour candidate = nearest_neighbor_tour(points, start, metric);
    improve_tour(points, candidate, options.improve, meter);
    const double len = tour_length(points, candidate, metric);
    if (len < best_len) {
      best_len = len;
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace bc::tsp
