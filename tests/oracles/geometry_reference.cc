#include "oracles/geometry_reference.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "geometry/ellipse.h"
#include "support/require.h"

namespace bc::geometry {

namespace {

Point2 on_circle(Point2 center, double radius, double theta) {
  return {center.x + radius * std::cos(theta),
          center.y + radius * std::sin(theta)};
}

}  // namespace

Circle smallest_enclosing_disk_brute(std::span<const Point2> points) {
  bc::support::require(!points.empty(),
                       "smallest_enclosing_disk_brute of empty point set");
  const auto covers_all = [&](const Circle& c) {
    return std::all_of(points.begin(), points.end(),
                       [&](Point2 p) { return c.contains(p, 1e-7); });
  };
  Circle best{points[0], 0.0};
  bool found = false;
  const auto consider = [&](const Circle& c) {
    if (!covers_all(c)) return;
    if (!found || c.radius < best.radius) {
      best = c;
      found = true;
    }
  };
  consider(Circle{points[0], 0.0});
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      consider(circle_from_two(points[i], points[j]));
      for (std::size_t k = j + 1; k < points.size(); ++k) {
        const auto c = circle_from_three(points[i], points[j], points[k]);
        if (c.has_value()) consider(*c);
      }
    }
  }
  bc::support::ensure(found, "brute-force SED must find a covering disk");
  return best;
}

AnchorSearchResult optimal_point_on_circle_brute(Point2 a, Point2 b,
                                                 Point2 center, double radius,
                                                 std::size_t samples) {
  bc::support::require(samples >= 1, "need at least one sample");
  const double two_pi = 2.0 * std::numbers::pi;
  AnchorSearchResult best{on_circle(center, radius, 0.0), 0.0};
  best.detour = focal_sum(a, b, best.point);
  for (std::size_t i = 1; i < samples; ++i) {
    const double theta = two_pi * static_cast<double>(i) /
                         static_cast<double>(samples);
    const Point2 p = on_circle(center, radius, theta);
    const double value = focal_sum(a, b, p);
    if (value < best.detour) {
      best = AnchorSearchResult{p, value};
    }
  }
  return best;
}

}  // namespace bc::geometry
