// Brute-force geometry oracles for tests and micro-benchmarks: the
// exhaustive references that the shipped MinDisk (geometry/minidisk.h)
// and anchor search (geometry/anchor_search.h) are validated against.

#ifndef BUNDLECHARGE_TESTS_ORACLES_GEOMETRY_REFERENCE_H_
#define BUNDLECHARGE_TESTS_ORACLES_GEOMETRY_REFERENCE_H_

#include <cstddef>
#include <span>

#include "geometry/anchor_search.h"
#include "geometry/circle.h"
#include "geometry/point.h"

namespace bc::geometry {

// Brute-force O(n^4) smallest enclosing disk: tries all 2- and 3-point
// support sets. Precondition: !points.empty().
Circle smallest_enclosing_disk_brute(std::span<const Point2> points);

// O(h) anchor search: evaluates `samples` evenly spaced angles on the
// circle and returns the best.
AnchorSearchResult optimal_point_on_circle_brute(Point2 a, Point2 b,
                                                 Point2 center, double radius,
                                                 std::size_t samples = 20000);

}  // namespace bc::geometry

#endif  // BUNDLECHARGE_TESTS_ORACLES_GEOMETRY_REFERENCE_H_
