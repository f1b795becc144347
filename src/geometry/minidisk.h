// Welzl's smallest enclosing disk — the paper's Algorithm 1 (MinDisk).
//
// The planner needs both the constructive form (the anchor point of a
// charging bundle is the SED center, Definition 2/3) and a decisional form
// ("can this sensor set be a bundle of radius <= r?"). Welzl's randomised
// incremental algorithm runs in expected linear time; we implement the
// classic move-to-front variant, which is robust and allocation-free after
// the initial copy.

#ifndef BUNDLECHARGE_GEOMETRY_MINIDISK_H_
#define BUNDLECHARGE_GEOMETRY_MINIDISK_H_

#include <span>
#include <vector>

#include "geometry/circle.h"
#include "geometry/point.h"
#include "support/rng.h"

namespace bc::geometry {

// Smallest enclosing disk of a non-empty point set. Deterministic for a
// given `rng` seed; the default seed makes repeated calls reproducible.
// Expected O(n) time.
Circle smallest_enclosing_disk(std::span<const Point2> points,
                               bc::support::Rng rng = bc::support::Rng(42));

// Decisional MinDisk: true iff the SED radius of `points` is <= r (with a
// tiny tolerance so radius == r sets are accepted).
bool fits_in_radius(std::span<const Point2> points, double r,
                    bc::support::Rng rng = bc::support::Rng(42));

}  // namespace bc::geometry

#endif  // BUNDLECHARGE_GEOMETRY_MINIDISK_H_
