#include "geometry/minidisk.h"

#include "support/require.h"

namespace bc::geometry {

namespace {

// Smallest disk with 0, 1, 2 or 3 prescribed boundary points.
Circle disk_from_boundary(std::span<const Point2> boundary) {
  switch (boundary.size()) {
    case 0:
      return Circle{{0.0, 0.0}, 0.0};
    case 1:
      return Circle{boundary[0], 0.0};
    case 2:
      return circle_from_two(boundary[0], boundary[1]);
    default: {
      const auto circ =
          circle_from_three(boundary[0], boundary[1], boundary[2]);
      if (circ.has_value()) return *circ;
      // Collinear support: the widest pair's diametral circle covers all.
      Circle best = circle_from_two(boundary[0], boundary[1]);
      for (std::size_t i = 0; i < boundary.size(); ++i) {
        for (std::size_t j = i + 1; j < boundary.size(); ++j) {
          const Circle c = circle_from_two(boundary[i], boundary[j]);
          if (c.radius > best.radius) best = c;
        }
      }
      return best;
    }
  }
}

// Welzl with move-to-front heuristic, written iteratively over a recursion
// on the boundary set only (depth <= 3).
Circle welzl(std::vector<Point2>& pts, std::size_t n,
             std::vector<Point2>& boundary) {
  if (n == 0 || boundary.size() == 3) {
    return disk_from_boundary(boundary);
  }
  // Process points in order; on violation, recurse with the violator pinned
  // to the boundary and move it to the front (speeds up future passes).
  Circle disk = disk_from_boundary(boundary);
  for (std::size_t i = 0; i < n; ++i) {
    if (disk.contains(pts[i])) continue;
    boundary.push_back(pts[i]);
    disk = welzl(pts, i, boundary);
    boundary.pop_back();
    // Move-to-front.
    const Point2 violator = pts[i];
    for (std::size_t j = i; j > 0; --j) pts[j] = pts[j - 1];
    pts[0] = violator;
  }
  return disk;
}

}  // namespace

Circle smallest_enclosing_disk(std::span<const Point2> points,
                               bc::support::Rng rng) {
  bc::support::require(!points.empty(),
                       "smallest_enclosing_disk of empty point set");
  std::vector<Point2> pts(points.begin(), points.end());
  rng.shuffle(pts.begin(), pts.end());
  std::vector<Point2> boundary;
  boundary.reserve(3);
  return welzl(pts, pts.size(), boundary);
}

bool fits_in_radius(std::span<const Point2> points, double r,
                    bc::support::Rng rng) {
  bc::support::require(r >= 0.0, "fits_in_radius needs r >= 0");
  if (points.empty()) return true;
  const Circle sed = smallest_enclosing_disk(points, rng);
  return sed.radius <= r * (1.0 + 1e-9) + 1e-12;
}

}  // namespace bc::geometry
