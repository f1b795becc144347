// CSS — Combine-Skip-Substitute [36], adapted from data collection to
// wireless charging.
//
// The original CSS shortens a data mule's TSP tour: Combine merges
// tour-consecutive nodes whose communication disks share a common point,
// Skip drops stops that are reachable in passing, Substitute slides a stop
// within the common intersection to shorten the tour. For charging the
// mule must park (no charging while moving, §III-B), so Skip degenerates
// into merging a stop into an adjacent one when the union still fits a
// radius-r disk. Crucially — and this is the paper's point in §VI-C(3) —
// CSS picks stop positions to minimise *tour length only*, not charging
// efficiency, so its stops can sit at distance ~r from their sensors.

#include <algorithm>
#include <vector>

#include "geometry/minidisk.h"
#include "support/require.h"
#include "tour/planner.h"
#include "tour/route_util.h"

namespace bc::tour {

namespace {

using geometry::Point2;

std::vector<Point2> member_positions(const net::Deployment& deployment,
                                     const std::vector<net::SensorId>& ids) {
  std::vector<Point2> pts;
  pts.reserve(ids.size());
  for (const net::SensorId id : ids) {
    pts.push_back(deployment.sensor(id).position);
  }
  return pts;
}

// Minimises |prev P| + |P next| over the (convex) intersection of the
// member disks of radius r via projected subgradient descent. The SED
// centre is always feasible and is the starting point.
Point2 substitute_position(const net::Deployment& deployment,
                           const std::vector<net::SensorId>& members,
                           double r, Point2 prev, Point2 next,
                           Point2 start) {
  const std::vector<Point2> pts = member_positions(deployment, members);
  const auto project = [&](Point2 p) {
    // Cyclic projection onto the disk intersection; converges because the
    // sets are convex and share an interior point near `start`.
    for (int cycle = 0; cycle < 16; ++cycle) {
      bool feasible = true;
      for (const Point2& m : pts) {
        // metric-exempt: radius-r range constraint (radio disk geometry).
        const double d = geometry::distance(p, m);
        if (d > r) {
          // Pull fractionally inside the disk so rounding in the scaling
          // cannot leave the point epsilon outside the range constraint.
          p = m + (p - m) * (r * (1.0 - 1e-12) / d);
          feasible = false;
        }
      }
      if (feasible) break;
    }
    return p;
  };
  const auto objective = [&](Point2 p) {
    // metric-exempt: CSS's substitute slide is the paper's Euclidean
    // chord descent; the surrounding tour is judged under the metric.
    return geometry::distance(prev, p) + geometry::distance(p, next);
  };
  const auto feasible = [&](Point2 p) {
    return std::all_of(pts.begin(), pts.end(), [&](const Point2& m) {
      // metric-exempt: radius-r range constraint (radio disk geometry).
      return geometry::distance(p, m) <= r;
    });
  };

  // `start` is feasible by contract (SED centre or a previously accepted
  // substitute); only verified-feasible iterates may become the answer.
  Point2 best = start;
  double best_value = objective(best);
  Point2 current = best;
  double step = std::max(r, 1e-6);
  for (int iter = 0; iter < 60; ++iter) {
    Point2 grad{0.0, 0.0};
    // metric-exempt: gradient of the Euclidean chord objective above.
    const double dp = geometry::distance(current, prev);
    if (dp > 0.0) grad += (current - prev) / dp;
    const double dn = geometry::distance(current, next);
    if (dn > 0.0) grad += (current - next) / dn;
    current = project(current - grad * step);
    const double value = objective(current);
    if (value < best_value && feasible(current)) {
      best_value = value;
      best = current;
    }
    step *= 0.82;
  }
  return best;
}

// One Substitute sweep; returns true when any stop moved materially.
// substitute_position proposes candidates by Euclidean descent (a
// geometric heuristic over the disk intersection — metric-exempt), but
// acceptance compares true movement distances, so under a graph metric a
// slide is only kept when the *driven* tour gets shorter.
bool substitute_pass(const net::Deployment& deployment,
                     std::vector<Stop>& stops, double r, Point2 depot,
                     const net::MetricSpace* metric) {
  bool changed = false;
  for (std::size_t i = 0; i < stops.size(); ++i) {
    const Point2 prev = i == 0 ? depot : stops[i - 1].position;
    const Point2 next =
        i + 1 == stops.size() ? depot : stops[i + 1].position;
    const Point2 moved = substitute_position(deployment, stops[i].members, r,
                                             prev, next, stops[i].position);
    const double before =
        net::metric_distance(metric, prev, stops[i].position) +
        net::metric_distance(metric, stops[i].position, next);
    const double after = net::metric_distance(metric, prev, moved) +
                         net::metric_distance(metric, moved, next);
    if (after < before - 1e-9) {
      stops[i].position = moved;
      changed = true;
    }
  }
  return changed;
}

// Merges adjacent stops whose member union still fits a radius-r disk
// (Combine over stops; also plays the role of Skip, since a skipped stop's
// sensors must be absorbed by a parked neighbour).
bool merge_adjacent_pass(const net::Deployment& deployment,
                         std::vector<Stop>& stops, double r) {
  bool changed = false;
  for (std::size_t i = 0; i + 1 < stops.size();) {
    std::vector<net::SensorId> merged = stops[i].members;
    merged.insert(merged.end(), stops[i + 1].members.begin(),
                  stops[i + 1].members.end());
    const std::vector<Point2> pts = member_positions(deployment, merged);
    if (geometry::fits_in_radius(pts, r)) {
      const geometry::Circle sed = geometry::smallest_enclosing_disk(pts);
      stops[i] = Stop{sed.center, std::move(merged)};
      stops.erase(stops.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      changed = true;
    } else {
      ++i;
    }
  }
  return changed;
}

}  // namespace

ChargingPlan plan_css(const net::Deployment& deployment,
                      const PlannerConfig& config,
                      support::BudgetMeter* meter) {
  support::require(config.bundle_radius > 0.0,
                   "CSS needs a positive range radius");
  const double r = config.bundle_radius;
  // Start from the SC tour (TSP over the sensors themselves).
  ChargingPlan plan = plan_sc(deployment, config, meter);
  plan.algorithm = "CSS";

  // Combine consecutive sensors while they share a radius-r disk.
  std::vector<Stop> combined;
  std::vector<net::SensorId> group;
  for (const Stop& stop : plan.stops) {
    std::vector<net::SensorId> extended = group;
    extended.push_back(stop.members.front());
    if (!group.empty() &&
        !geometry::fits_in_radius(member_positions(deployment, extended), r)) {
      const auto pts = member_positions(deployment, group);
      combined.push_back(
          Stop{geometry::smallest_enclosing_disk(pts).center, group});
      group.clear();
    }
    group.push_back(stop.members.front());
    std::sort(group.begin(), group.end());
    group.erase(std::unique(group.begin(), group.end()), group.end());
  }
  if (!group.empty()) {
    const auto pts = member_positions(deployment, group);
    combined.push_back(
        Stop{geometry::smallest_enclosing_disk(pts).center, group});
  }
  plan.stops = std::move(combined);

  // Progressive refinement: slide stops toward the tour (Substitute) and
  // absorb stops into neighbours when possible (Skip), until fixpoint.
  // Anytime: the plan is a valid partition after every pass, so a tripped
  // budget simply stops refining. One unit is charged per stop refined.
  for (std::size_t pass = 0; pass < 8; ++pass) {
    if (meter != nullptr && !meter->charge(plan.stops.size())) break;
    const bool moved = substitute_pass(deployment, plan.stops, r, plan.depot,
                                       config.metric.get());
    const bool merged = merge_adjacent_pass(deployment, plan.stops, r);
    if (!moved && !merged) break;
  }
  return plan;
}

}  // namespace bc::tour
