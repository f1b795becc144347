// Uniform-grid spatial index over sensor positions.
//
// Candidate bundle enumeration repeatedly asks "which sensors lie within
// radius r of this point?"; a bucket grid with cell size r answers that in
// expected O(k) by scanning the 3x3 cell neighbourhood, turning the
// enumeration from O(n^3) into roughly O(n * k^2) for density k.

#ifndef BUNDLECHARGE_NET_SPATIAL_INDEX_H_
#define BUNDLECHARGE_NET_SPATIAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/point.h"
#include "net/sensor.h"

namespace bc::net {

// Appends ids[i] to `out` (not cleared) for every i in [0, count) with
// (xs[i] - qx)^2 + (ys[i] - qy)^2 <= r2, in ascending i order. The SoA
// distance scan behind every spatial-index row walk and candidate member
// collection.
inline void filter_within(const double* xs, const double* ys,
                          const std::uint32_t* ids, std::size_t count,
                          double qx, double qy, double r2,
                          std::vector<std::uint32_t>& out) {
  for (std::size_t i = 0; i < count; ++i) {
    const double dx = xs[i] - qx;
    const double dy = ys[i] - qy;
    if (dx * dx + dy * dy <= r2) out.push_back(ids[i]);
  }
}

class SpatialIndex {
 public:
  // Indexes `positions` (id = position index) with grid cell size
  // `cell_size`. Preconditions: !positions.empty(), cell_size > 0.
  SpatialIndex(std::span<const geometry::Point2> positions, double cell_size);

  // Ids of all points with distance(point, query) <= radius, in ascending
  // id order. `radius` may exceed the cell size (more cells are scanned).
  std::vector<SensorId> within(geometry::Point2 query, double radius) const;

  // As `within`, but appends to `out` (cleared first); avoids allocation
  // in hot loops.
  void within(geometry::Point2 query, double radius,
              std::vector<SensorId>& out) const;

  // Ids of the (up to) k indexed points nearest to `query`, written to
  // `out` (cleared first) ordered by ascending distance with an
  // ascending-id tie-break. A query coinciding with an indexed point
  // returns that point first (distance 0); callers wanting "neighbours of
  // point i" ask for k + 1 and drop i. Expected O(k) for uniform densities
  // via a ring-expanding cell scan: rings stop once the k-th best distance
  // is provably closer than anything an unscanned ring can hold.
  void k_nearest(geometry::Point2 query, std::size_t k,
                 std::vector<SensorId>& out) const;

  std::size_t size() const { return positions_.size(); }

 private:
  std::size_t cell_of(geometry::Point2 p) const;

  std::vector<geometry::Point2> positions_;
  geometry::Box2 bounds_;
  double cell_size_;
  std::size_t cols_ = 0;
  std::size_t rows_ = 0;
  // CSR layout: cell_start_[c]..cell_start_[c+1] indexes into cell_items_.
  // item_xs_/item_ys_ mirror cell_items_ (SoA): slot i holds the
  // coordinates of sensor cell_items_[i], so a row scan is a contiguous
  // streaming distance kernel instead of an id-indirected gather.
  std::vector<std::uint32_t> cell_start_;
  std::vector<SensorId> cell_items_;
  std::vector<double> item_xs_;
  std::vector<double> item_ys_;
};

}  // namespace bc::net

#endif  // BUNDLECHARGE_NET_SPATIAL_INDEX_H_
