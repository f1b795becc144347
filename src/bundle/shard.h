// Sharded hierarchical bundle generation for large deployments.
//
// City-scale instances (10^4 - 10^6 sensors) are far beyond what the
// monolithic pair-circle enumeration + greedy cover can touch: both are
// superlinear in n, but bundling is a *local* problem — no bundle spans
// more than 2r, so a sensor's cover decision only ever interacts with its
// O(density * r^2) neighbourhood. The hierarchical solver exploits that:
//
//   1. Tile the field into a uniform grid of spatial shards sized for a
//      target sensor count per shard (never smaller than a few r, so tiles
//      dwarf the 2r interaction range). The tiling is a pure function of
//      the field box, n, r, and the options — never of thread count.
//   2. Solve each shard independently with the monolithic pipeline
//      (candidate enumeration + greedy cover) over the shard's sensors,
//      fanned out over the deterministic pool with grain 1 and merged in
//      tile index order, so the result is bit-identical at every
//      BC_THREADS.
//   3. Stitch: per-tile solves cannot form bundles spanning a tile
//      boundary, so adjacent shards overlap in a 2r-wide stitch band.
//      Bundles anchored inside the band are merged across the border
//      whenever their union still fits a radius-r disk — serially, in
//      canonical (ascending minimum member id) order, which makes the
//      stitch independent of shard solve order too.
//
// A candidate-generation halo would be redundant rather than helpful:
// every maximal r-disk subset of a tile's sensors is witnessed by a
// pair-circle through two of the *tile's own* sensors (or a singleton), so
// enumerating with out-of-tile neighbours adds only sets that trimming
// would discard again. Cross-border bundles are exactly what the stitch
// recovers.

#ifndef BUNDLECHARGE_BUNDLE_SHARD_H_
#define BUNDLECHARGE_BUNDLE_SHARD_H_

#include <cstddef>
#include <vector>

#include "bundle/bundle.h"
#include "geometry/point.h"
#include "net/deployment.h"
#include "support/deadline.h"

namespace bc::bundle {

struct ShardOptions {
  // Aim for roughly this many sensors per shard. Smaller shards cut the
  // superlinear per-shard solve cost but lengthen the stitched border;
  // the default keeps per-shard solves in the milliseconds at the paper's
  // densities.
  std::size_t target_shard_sensors = 512;
  // Tiles are never narrower than this multiple of r, so the 2r stitch
  // band cannot swallow whole tiles.
  double min_tile_factor = 4.0;
  // Merge cross-border bundles whose union fits a radius-r disk. Off only
  // for ablation; the per-tile cover remains a valid partition without it.
  bool stitch = true;
};

// The deterministic tiling: a cols x rows grid over the field with every
// sensor assigned to exactly one tile (row-major tile ids).
struct ShardGrid {
  geometry::Box2 field;
  double tile_w = 0.0;
  double tile_h = 0.0;
  std::size_t cols = 1;
  std::size_t rows = 1;
  // Tile-major, ascending sensor ids within each tile.
  std::vector<std::vector<net::SensorId>> tile_members;

  std::size_t tiles() const { return cols * rows; }
  // Distance from `p` to the nearest *interior* grid line (infinity when
  // the grid is a single tile) — the border test for the stitch band.
  double border_distance(geometry::Point2 p) const;
};

// Builds the tiling for `deployment` at generation radius `r`. Pure
// function of (field, n, r, options); never depends on thread count.
// Preconditions: r > 0.
ShardGrid build_shard_grid(const net::Deployment& deployment, double r,
                           const ShardOptions& options = ShardOptions{});

// Merges bundles anchored within the grid's 2r stitch band whenever the
// merged member set still fits a radius-r disk. Serial and canonical:
// bundles are processed in ascending minimum-member-id order, each
// surviving bundle greedily absorbing later feasible partners within 2r.
// Input must be a partition of the deployment; the output is again a
// partition, ordered by ascending minimum member id.
std::vector<Bundle> stitch_bundles(const net::Deployment& deployment,
                                   double r, const ShardGrid& grid,
                                   std::vector<Bundle> bundles);

// The hierarchical generator: tile, solve each shard with the greedy
// monolithic pipeline, stitch. Returns a partition of the deployment
// ordered by ascending minimum member id, bit-identical at every
// BC_THREADS. A single-tile grid degenerates to exactly
// greedy_bundles(deployment, r) (the monolithic oracle the shard property
// tests compare against). A non-null `meter` switches the shard
// loop to the serial path (like the candidate scan) so budget cut points
// stay thread-count-invariant; a trip degrades the remaining shards to
// coarser covers, never to an invalid plan.
// Preconditions: r > 0.
std::vector<Bundle> sharded_bundles(const net::Deployment& deployment,
                                    double r,
                                    const ShardOptions& options =
                                        ShardOptions{},
                                    support::BudgetMeter* meter = nullptr);

}  // namespace bc::bundle

#endif  // BUNDLECHARGE_BUNDLE_SHARD_H_
