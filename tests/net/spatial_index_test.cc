// Tests for the uniform-grid spatial index, including property sweeps
// against a brute-force scan.

#include "net/spatial_index.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "support/require.h"
#include "support/rng.h"

namespace bc::net {
namespace {

using geometry::Point2;

std::vector<SensorId> brute_within(const std::vector<Point2>& pts,
                                   Point2 query, double radius) {
  std::vector<SensorId> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (geometry::distance(pts[i], query) <= radius) {
      out.push_back(static_cast<SensorId>(i));
    }
  }
  return out;
}

TEST(SpatialIndexTest, ValidatesConstruction) {
  const std::vector<Point2> pts{{1.0, 1.0}};
  EXPECT_THROW(SpatialIndex({}, 1.0), support::PreconditionError);
  EXPECT_THROW(SpatialIndex(pts, 0.0), support::PreconditionError);
}

TEST(SpatialIndexTest, FindsExactAndBoundaryMatches) {
  const std::vector<Point2> pts{{0.0, 0.0}, {3.0, 0.0}, {10.0, 10.0}};
  const SpatialIndex index(pts, 2.0);
  EXPECT_EQ(index.within({0.0, 0.0}, 3.0), (std::vector<SensorId>{0, 1}));
  EXPECT_EQ(index.within({0.0, 0.0}, 2.9), (std::vector<SensorId>{0}));
  EXPECT_EQ(index.within({5.0, 5.0}, 1.0), (std::vector<SensorId>{}));
  EXPECT_THROW(index.within({0.0, 0.0}, -1.0), support::PreconditionError);

  // Points exactly at distance r are inside, across cell sizes.
  std::vector<Point2> line;
  for (int i = 0; i < 16; ++i) line.push_back({static_cast<double>(i), 0.0});
  for (const double cell : {1.0, 3.0, 16.0}) {
    const SpatialIndex line_index(line, cell);
    for (std::size_t r = 0; r < line.size(); ++r) {
      ASSERT_EQ(line_index.within({0.0, 0.0}, static_cast<double>(r)).size(),
                r + 1)
          << "cell=" << cell << " r=" << r;
    }
  }
}

TEST(SpatialIndexTest, QueriesOutsideTheBoundsWork) {
  const std::vector<Point2> pts{{0.0, 0.0}, {1.0, 1.0}};
  const SpatialIndex index(pts, 0.5);
  EXPECT_EQ(index.within({-100.0, -100.0}, 150.0),
            (std::vector<SensorId>{0, 1}));
  EXPECT_TRUE(index.within({-100.0, -100.0}, 10.0).empty());
}

TEST(SpatialIndexTest, ResultsAreSortedById) {
  support::Rng rng(3);
  std::vector<Point2> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  }
  const SpatialIndex index(pts, 10.0);
  const auto hits = index.within({50.0, 50.0}, 30.0);
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));
  EXPECT_FALSE(hits.empty());
}

// Property sweep: grid answers equal brute force for assorted cell sizes
// and query radii (radius smaller, equal and larger than the cell).
class SpatialIndexPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SpatialIndexPropertyTest, MatchesBruteForce) {
  const auto [cell_size, radius] = GetParam();
  support::Rng rng(17);
  std::vector<Point2> pts;
  for (int i = 0; i < 400; ++i) {
    pts.push_back({rng.uniform(0, 200), rng.uniform(0, 200)});
  }
  const SpatialIndex index(pts, cell_size);
  for (int q = 0; q < 50; ++q) {
    const Point2 query{rng.uniform(-20, 220), rng.uniform(-20, 220)};
    ASSERT_EQ(index.within(query, radius), brute_within(pts, query, radius))
        << "cell=" << cell_size << " radius=" << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CellAndRadius, SpatialIndexPropertyTest,
    ::testing::Combine(::testing::Values(1.0, 7.5, 25.0, 300.0),
                       ::testing::Values(0.0, 5.0, 25.0, 80.0)));

TEST(SpatialIndexTest, ReusableOutputBufferIsCleared) {
  const std::vector<Point2> pts{{0.0, 0.0}, {1.0, 0.0}};
  const SpatialIndex index(pts, 1.0);
  std::vector<SensorId> buffer{99, 98, 97};
  index.within({0.0, 0.0}, 0.5, buffer);
  EXPECT_EQ(buffer, (std::vector<SensorId>{0}));
}

TEST(FilterWithinTest, AppendsInScanOrderWithoutClearing) {
  support::Rng rng(13);
  for (const std::size_t count : {0u, 1u, 3u, 7u, 8u, 13u, 64u, 257u}) {
    std::vector<double> xs(count);
    std::vector<double> ys(count);
    std::vector<std::uint32_t> ids(count);
    for (std::size_t i = 0; i < count; ++i) {
      xs[i] = rng.uniform(0.0, 100.0);
      ys[i] = rng.uniform(0.0, 100.0);
      ids[i] = static_cast<std::uint32_t>(1000 + i);
    }
    const double qx = rng.uniform(0.0, 100.0);
    const double qy = rng.uniform(0.0, 100.0);
    for (const double r2 : {0.0, 100.0, 900.0, 40000.0}) {
      std::vector<std::uint32_t> want{42};
      for (std::size_t i = 0; i < count; ++i) {
        const double dx = xs[i] - qx;
        const double dy = ys[i] - qy;
        if (dx * dx + dy * dy <= r2) want.push_back(ids[i]);
      }
      std::vector<std::uint32_t> got{42};  // appended to, never cleared
      filter_within(xs.data(), ys.data(), ids.data(), count, qx, qy, r2, got);
      ASSERT_EQ(got, want) << "count=" << count << " r2=" << r2;
    }
  }
}

TEST(FilterWithinTest, BoundaryPointsFilterIdentically) {
  // Points exactly on the radius: the <= compare keeps them.
  const std::size_t count = 16;
  std::vector<double> xs(count);
  std::vector<double> ys(count, 0.0);
  std::vector<std::uint32_t> ids(count);
  for (std::size_t i = 0; i < count; ++i) {
    xs[i] = static_cast<double>(i);  // distance i from the origin query
    ids[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t r = 0; r < count; ++r) {
    const double r2 = static_cast<double>(r) * static_cast<double>(r);
    std::vector<std::uint32_t> got;
    filter_within(xs.data(), ys.data(), ids.data(), count, 0.0, 0.0, r2, got);
    const std::vector<std::uint32_t> want(ids.begin(), ids.begin() + r + 1);
    ASSERT_EQ(got, want) << "r=" << r;  // 0..r inclusive
  }
}

// Brute-force k-nearest oracle with the documented (distance asc, id asc)
// order.
std::vector<SensorId> brute_k_nearest(const std::vector<Point2>& pts,
                                      Point2 query, std::size_t k) {
  std::vector<std::pair<double, SensorId>> ranked;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ranked.emplace_back(geometry::distance_squared(pts[i], query),
                        static_cast<SensorId>(i));
  }
  std::sort(ranked.begin(), ranked.end());
  ranked.resize(std::min(ranked.size(), k));
  std::vector<SensorId> out;
  for (const auto& [d2, id] : ranked) out.push_back(id);
  return out;
}

TEST(SpatialIndexKNearestTest, MatchesBruteForceAcrossCellSizesAndK) {
  support::Rng rng(23);
  std::vector<Point2> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.uniform(0, 200), rng.uniform(0, 200)});
  }
  for (const double cell : {2.0, 11.0, 60.0, 500.0}) {
    const SpatialIndex index(pts, cell);
    std::vector<SensorId> got;
    for (int q = 0; q < 40; ++q) {
      const Point2 query{rng.uniform(-30, 230), rng.uniform(-30, 230)};
      for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                                  std::size_t{16}, pts.size() + 5}) {
        index.k_nearest(query, k, got);
        ASSERT_EQ(got, brute_k_nearest(pts, query, k))
            << "cell=" << cell << " k=" << k;
      }
    }
  }
}

TEST(SpatialIndexKNearestTest, TiesBreakOnAscendingId) {
  // Four points equidistant from the centre query plus two coincident
  // duplicates: equal distances must come back in ascending-id order.
  const std::vector<Point2> pts{{1.0, 0.0}, {0.0, 1.0},  {-1.0, 0.0},
                                {0.0, -1.0}, {1.0, 0.0}, {0.0, 1.0}};
  const SpatialIndex index(pts, 1.0);
  std::vector<SensorId> got;
  index.k_nearest({0.0, 0.0}, 6, got);
  EXPECT_EQ(got, (std::vector<SensorId>{0, 1, 2, 3, 4, 5}));
  index.k_nearest({0.0, 0.0}, 3, got);
  EXPECT_EQ(got, (std::vector<SensorId>{0, 1, 2}));
}

TEST(SpatialIndexKNearestTest, IncludesSelfAndHandlesEdgeCases) {
  const std::vector<Point2> pts{{0.0, 0.0}, {5.0, 0.0}, {10.0, 0.0}};
  const SpatialIndex index(pts, 2.0);
  std::vector<SensorId> got{42};
  index.k_nearest({5.0, 0.0}, 0, got);
  EXPECT_TRUE(got.empty());  // k = 0 clears the buffer
  index.k_nearest({5.0, 0.0}, 1, got);
  EXPECT_EQ(got, (std::vector<SensorId>{1}));  // self first at distance 0
  index.k_nearest({-100.0, 40.0}, 2, got);     // query far off the grid
  EXPECT_EQ(got, (std::vector<SensorId>{0, 1}));
}

}  // namespace
}  // namespace bc::net
