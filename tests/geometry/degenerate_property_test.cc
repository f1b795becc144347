// Degenerate-input property tests for the geometric kernels the planner
// leans on: Welzl's smallest enclosing disk and the Theorem-4/5 anchor
// search. Random fuzz skews deliberately toward the inputs that break
// naive implementations — duplicate-heavy multisets, exactly collinear
// sets, clusters below float noise, coordinates far from the origin, and
// segment/circle placements within epsilon of tangency. Every disk answer
// on small sets is checked against the O(n^4) brute-force reference.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/anchor_search.h"
#include "geometry/minidisk.h"
#include "geometry/point.h"
#include "oracles/geometry_reference.h"
#include "support/rng.h"

namespace bc::geometry {
namespace {

constexpr double kTol = 1e-7;

// Every point enclosed, and the radius matches the brute-force reference
// (the SED is unique, so the centers must agree too).
void expect_valid_sed(const std::vector<Point2>& points) {
  const Circle disk = smallest_enclosing_disk(points);
  for (const Point2& p : points) {
    EXPECT_LE(distance(disk.center, p), disk.radius + kTol);
  }
  if (points.size() <= 8) {
    const Circle brute = smallest_enclosing_disk_brute(points);
    EXPECT_NEAR(disk.radius, brute.radius, kTol);
    EXPECT_NEAR(disk.center.x, brute.center.x, 1e-5);
    EXPECT_NEAR(disk.center.y, brute.center.y, 1e-5);
  }
}

TEST(DegenerateMinidiskTest, AllPointsIdentical) {
  for (const double c : {0.0, 1.0, -3.5, 1e6}) {
    const std::vector<Point2> points(7, Point2{c, -c});
    const Circle disk = smallest_enclosing_disk(points);
    EXPECT_NEAR(disk.radius, 0.0, kTol);
    EXPECT_NEAR(disk.center.x, c, kTol);
    EXPECT_NEAR(disk.center.y, -c, kTol);
  }
}

TEST(DegenerateMinidiskTest, DuplicateHeavyMultisets) {
  support::Rng rng(1001);
  for (int trial = 0; trial < 50; ++trial) {
    // 2..4 distinct positions, each repeated up to 3 times.
    const std::size_t distinct = 2 + rng.below(3);
    std::vector<Point2> points;
    for (std::size_t i = 0; i < distinct; ++i) {
      const Point2 p{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
      const std::size_t copies = 1 + rng.below(3);
      points.insert(points.end(), copies, p);
    }
    expect_valid_sed(points);
  }
}

TEST(DegenerateMinidiskTest, ExactlyCollinearSets) {
  support::Rng rng(1002);
  for (int trial = 0; trial < 50; ++trial) {
    // Points on a shared line: SED is the diametral disk of the extreme
    // pair. Includes vertical and horizontal lines via the angle sweep.
    const double angle = rng.uniform(0.0, 6.283185307179586);
    const Point2 dir{std::cos(angle), std::sin(angle)};
    const Point2 base{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    std::vector<Point2> points;
    std::vector<double> ts;
    const std::size_t n = 2 + rng.below(7);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = rng.uniform(-20.0, 20.0);
      ts.push_back(t);
      points.push_back({base.x + t * dir.x, base.y + t * dir.y});
    }
    expect_valid_sed(points);
    const auto [lo, hi] = std::minmax_element(ts.begin(), ts.end());
    const Circle disk = smallest_enclosing_disk(points);
    EXPECT_NEAR(disk.radius, (*hi - *lo) / 2.0, kTol);
  }
}

TEST(DegenerateMinidiskTest, ClustersBelowFloatNoise) {
  // Spacings of 1e-9 around a far-from-origin center: catastrophic
  // cancellation territory for circumcenter formulas.
  support::Rng rng(1003);
  for (int trial = 0; trial < 30; ++trial) {
    const Point2 center{rng.uniform(1e3, 1e4), rng.uniform(1e3, 1e4)};
    std::vector<Point2> points;
    const std::size_t n = 1 + rng.below(8);
    for (std::size_t i = 0; i < n; ++i) {
      points.push_back({center.x + rng.uniform(-1e-9, 1e-9),
                        center.y + rng.uniform(-1e-9, 1e-9)});
    }
    const Circle disk = smallest_enclosing_disk(points);
    EXPECT_LE(disk.radius, 3e-9);
    // Containment tolerance scales with the coordinate magnitude: the
    // circumcenter arithmetic works on ~1e4 values, so a few hundred ulps
    // (~1e-12 each) of cancellation noise is expected.
    for (const Point2& p : points) {
      EXPECT_LE(distance(disk.center, p), disk.radius + 1e-9);
    }
  }
}

TEST(DegenerateMinidiskTest, RadiusRPairsAtTheFitBoundary) {
  // Two sensors exactly 2r apart are the boundary case of Definition 2:
  // they form a radius-r bundle, and any farther pair does not. This is
  // the decision the bundle enumerator makes millions of times.
  support::Rng rng(1004);
  for (int trial = 0; trial < 50; ++trial) {
    const double r = rng.uniform(0.5, 80.0);
    const double angle = rng.uniform(0.0, 6.283185307179586);
    const Point2 a{rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)};
    const Point2 b{a.x + 2.0 * r * std::cos(angle),
                   a.y + 2.0 * r * std::sin(angle)};
    const std::vector<Point2> pair{a, b};
    EXPECT_TRUE(fits_in_radius(pair, r * (1.0 + 1e-9)));
    EXPECT_FALSE(fits_in_radius(pair, r * (1.0 - 1e-6)));
    // Decisional and constructive forms must agree near the boundary.
    const Circle disk = smallest_enclosing_disk(pair);
    EXPECT_NEAR(disk.radius, r, r * 1e-9);
  }
}

TEST(DegenerateMinidiskTest, SmallSetFuzzMatchesBruteForce) {
  support::Rng rng(1005);
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<Point2> points;
    const std::size_t n = 1 + rng.below(8);
    for (std::size_t i = 0; i < n; ++i) {
      // Snap to a coarse grid so duplicates, collinearity, and
      // cocircularity all occur organically.
      points.push_back({std::floor(rng.uniform(-4.0, 4.0)),
                        std::floor(rng.uniform(-4.0, 4.0))});
    }
    expect_valid_sed(points);
  }
}

// --- anchor search -------------------------------------------------------

TEST(DegenerateAnchorSearchTest, CoincidentFociAllPlacements) {
  support::Rng rng(2001);
  for (int trial = 0; trial < 50; ++trial) {
    const Point2 c{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
    const double radius = rng.uniform(0.1, 5.0);
    // A == B inside, on, and outside the circle.
    const double dist = rng.uniform(0.0, 3.0 * radius);
    const double angle = rng.uniform(0.0, 6.283185307179586);
    const Point2 a{c.x + dist * std::cos(angle),
                   c.y + dist * std::sin(angle)};
    const AnchorSearchResult best = optimal_point_on_circle(a, a, c, radius);
    // Optimal detour is twice the distance from A to the circle.
    EXPECT_NEAR(best.detour, 2.0 * std::abs(dist - radius), 1e-6);
    EXPECT_NEAR(distance(best.point, c), radius, 1e-6);
  }
}

TEST(DegenerateAnchorSearchTest, NearTangentSegments) {
  // A–B passing within epsilon of the circle on either side: the optimum
  // jumps between "touch the tangency point" and "cross the circle", and
  // the bracketing scan must not lose it in between.
  support::Rng rng(2002);
  for (int trial = 0; trial < 60; ++trial) {
    const double radius = rng.uniform(0.5, 10.0);
    const Point2 c{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    // Horizontal line at height radius * (1 +/- eps) above the center.
    const double eps = rng.uniform(-1e-7, 1e-7);
    const double y = c.y + radius * (1.0 + eps);
    const double span = rng.uniform(2.0, 30.0);
    const Point2 a{c.x - span, y};
    const Point2 b{c.x + span, y};
    const AnchorSearchResult best = optimal_point_on_circle(a, b, c, radius);
    const AnchorSearchResult brute =
        optimal_point_on_circle_brute(a, b, c, radius);
    EXPECT_NEAR(distance(best.point, c), radius, 1e-6);
    EXPECT_LE(best.detour, brute.detour + 1e-6) << "trial " << trial;
    // Within epsilon of tangency the detour is within epsilon of |AB|.
    EXPECT_NEAR(best.detour, distance(a, b), 1e-3 * distance(a, b));
  }
}

TEST(DegenerateAnchorSearchTest, FociOnTheCircle) {
  support::Rng rng(2003);
  for (int trial = 0; trial < 40; ++trial) {
    const double radius = rng.uniform(0.5, 10.0);
    const Point2 c{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    const double ta = rng.uniform(0.0, 6.283185307179586);
    const double tb = rng.uniform(0.0, 6.283185307179586);
    const Point2 a{c.x + radius * std::cos(ta), c.y + radius * std::sin(ta)};
    const Point2 b{c.x + radius * std::cos(tb), c.y + radius * std::sin(tb)};
    // A is itself on the circle, so P = A gives detour |AB| — the minimum.
    const AnchorSearchResult best = optimal_point_on_circle(a, b, c, radius);
    EXPECT_NEAR(best.detour, distance(a, b), 1e-6);
  }
}

TEST(DegenerateAnchorSearchTest, TinyAndHugeRadiiMatchBruteForce) {
  support::Rng rng(2004);
  for (int trial = 0; trial < 60; ++trial) {
    const double radius = (trial % 2 == 0) ? rng.uniform(1e-9, 1e-6)
                                           : rng.uniform(100.0, 1e4);
    const Point2 c{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    const Point2 a{rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)};
    const Point2 b{rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)};
    const AnchorSearchResult best = optimal_point_on_circle(a, b, c, radius);
    const AnchorSearchResult brute =
        optimal_point_on_circle_brute(a, b, c, radius);
    EXPECT_NEAR(distance(best.point, c), radius,
                1e-9 + 1e-9 * radius);
    EXPECT_LE(best.detour, brute.detour + 1e-5 * (1.0 + brute.detour))
        << "trial " << trial << " radius " << radius;
  }
}

}  // namespace
}  // namespace bc::geometry
