// TSPN — the TSP-with-neighborhoods baseline of [4, 6, 28].
//
// Classic charger trajectory planning reduces the problem to TSPN: the
// charger only has to *reach* each sensor's (here: each bundle's)
// neighbourhood, so every stop is pulled to the point of its covering
// disk that minimises the tour detour, with no regard for how far that
// point is from the sensors being charged. The paper's §II argues this is
// exactly what goes wrong — "only reaching each neighborhood is
// insufficient … improper location leads to large charging cost" — and
// this planner exists to measure that criticism: its tours are the
// shortest of all planners, but its stop times (farthest member from a
// boundary point, up to 2r) are the longest.
//
// Tour structure mirrors BC (same bundles, same TSP over anchors); only
// the stop positions differ. For a fixed displacement disk, the
// detour-minimising point is either on the chord between the tour
// neighbours (when it crosses the disk) or the Theorem-4 tangency point
// on the disk boundary, so the geometry kernel is shared with BC-OPT.

#include <algorithm>

#include "geometry/anchor_search.h"
#include "geometry/ellipse.h"
#include "geometry/segment.h"
#include "support/require.h"
#include "tour/planner.h"

namespace bc::tour {

namespace {

using geometry::Point2;

// The point of the disk (center, radius) minimising |prev P| + |P next|.
Point2 reach_point(Point2 prev, Point2 next, Point2 center, double radius) {
  const geometry::Segment chord{prev, next};
  const Point2 on_chord = geometry::closest_point(chord, center);
  // metric-exempt: disk-membership predicate (free-space radio range).
  if (geometry::distance(on_chord, center) <= radius) {
    // The direct leg already pierces the neighbourhood; stop where it
    // first touches (any chord point inside the disk gives detour |AB|;
    // the closest point also minimises the charging distance among them).
    return on_chord;
  }
  return geometry::optimal_point_on_circle(prev, next, center, radius).point;
}

}  // namespace

ChargingPlan plan_tspn(const net::Deployment& deployment,
                       const PlannerConfig& config,
                       support::BudgetMeter* meter) {
  support::require(config.bundle_radius > 0.0,
                   "TSPN needs a positive neighbourhood radius");
  ChargingPlan plan = plan_bc(deployment, config, meter);
  plan.algorithm = "TSPN";
  if (plan.stops.empty()) return plan;

  // Anchors stay the disk centres; positions are pulled to the disk's
  // detour-minimising point. Neighbour positions move too, so sweep to a
  // fixpoint (a handful of passes suffices).
  std::vector<Point2> centers;
  centers.reserve(plan.stops.size());
  for (const Stop& stop : plan.stops) centers.push_back(stop.position);

  const std::size_t n = plan.stops.size();
  for (std::size_t pass = 0; pass < 8; ++pass) {
    // Anytime: stops are valid boundary points after every accepted move.
    if (meter != nullptr && !meter->charge(n)) break;
    bool moved = false;
    for (std::size_t i = 0; i < n; ++i) {
      const Point2 prev = i == 0 ? plan.depot : plan.stops[i - 1].position;
      const Point2 next =
          i + 1 == n ? plan.depot : plan.stops[i + 1].position;
      const Point2 candidate =
          reach_point(prev, next, centers[i], config.bundle_radius);
      // reach_point proposes by Euclidean disk geometry (metric-exempt);
      // acceptance compares driven cost under the configured metric. The
      // null branch keeps the fused focal_sum, bit-exact.
      const net::MetricSpace* metric = config.metric.get();
      const auto legs = [&](Point2 p) {
        return metric == nullptr
                   ? geometry::focal_sum(prev, next, p)
                   : metric->distance(prev, p) + metric->distance(p, next);
      };
      const double before = legs(plan.stops[i].position);
      const double after = legs(candidate);
      if (after < before - 1e-9) {
        plan.stops[i].position = candidate;
        moved = true;
      }
    }
    if (!moved) break;
  }
  return plan;
}

}  // namespace bc::tour
