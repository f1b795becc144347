// Optimal point on a circle minimising the detour through it —
// the computational core of the paper's Theorems 4 and 5.
//
// Given the previous tour stop A, the next stop B, and a circle of radius d
// around the current anchor C, BC-OPT must find the point P on the circle
// minimising |AP| + |PB|. Theorem 4 identifies P as the tangency point of
// the smallest confocal ellipse (foci A, B) touching the circle; Theorem 5
// shows that at P the radius CP bisects the angle ∠APB, which lets the
// point be located by a 1-D root search in O(log h) instead of scanning h²
// grid positions.
//
// The search is a coarse angular scan to bracket the bisector-condition
// sign change, then bisection on the derivative. The brute-force reference
// the tests validate it against lives in tests/oracles.

#ifndef BUNDLECHARGE_GEOMETRY_ANCHOR_SEARCH_H_
#define BUNDLECHARGE_GEOMETRY_ANCHOR_SEARCH_H_

#include <cstddef>

#include "geometry/point.h"

namespace bc::geometry {

struct AnchorSearchResult {
  Point2 point;       // argmin over the circle
  double detour = 0;  // |A point| + |point B|
};

struct AnchorSearchOptions {
  // Number of coarse samples used to bracket the optimum before the
  // bisection refinement. 32 is ample: the objective has at most two local
  // minima on the circle.
  std::size_t coarse_samples = 32;
  // Bisection terminates when the angular bracket is below this (radians).
  double angle_tolerance = 1e-10;
};

// Minimises |A P| + |P B| over P on the circle centred at `center` with
// radius `radius`. Preconditions: radius >= 0. When radius == 0 the answer
// is `center` itself. Works for any placement of A/B including A == B and
// foci inside the circle.
AnchorSearchResult optimal_point_on_circle(Point2 a, Point2 b, Point2 center,
                                           double radius,
                                           const AnchorSearchOptions& options =
                                               AnchorSearchOptions{});

// Theorem 5 residual: difference of cosines between the inward radius
// direction and the two focal directions at P (zero when CP bisects ∠APB).
// Exposed for tests that validate the bisector property at the optimum.
double bisector_residual(Point2 a, Point2 b, Point2 center, Point2 p);

}  // namespace bc::geometry

#endif  // BUNDLECHARGE_GEOMETRY_ANCHOR_SEARCH_H_
