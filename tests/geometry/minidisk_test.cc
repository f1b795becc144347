// Tests for Welzl's smallest enclosing disk (the paper's Algorithm 1),
// including randomized property sweeps against the brute-force reference.

#include "geometry/minidisk.h"

#include <vector>

#include <gtest/gtest.h>

#include "oracles/geometry_reference.h"
#include "support/require.h"
#include "support/rng.h"

namespace bc::geometry {
namespace {

TEST(MinidiskTest, EmptyInputRejected) {
  EXPECT_THROW(smallest_enclosing_disk({}), support::PreconditionError);
}

TEST(MinidiskTest, SinglePointIsZeroRadius) {
  const std::vector<Point2> pts{{3.0, 4.0}};
  const Circle c = smallest_enclosing_disk(pts);
  EXPECT_EQ(c.center, pts[0]);
  EXPECT_DOUBLE_EQ(c.radius, 0.0);
}

TEST(MinidiskTest, TwoPointsGiveDiametralDisk) {
  const std::vector<Point2> pts{{0.0, 0.0}, {6.0, 8.0}};
  const Circle c = smallest_enclosing_disk(pts);
  EXPECT_NEAR(c.radius, 5.0, 1e-9);
  EXPECT_TRUE(almost_equal(c.center, {3.0, 4.0}, 1e-9));
}

TEST(MinidiskTest, EquilateralTriangleCircumcircle) {
  const std::vector<Point2> pts{{0.0, 0.0}, {2.0, 0.0}, {1.0, std::sqrt(3.0)}};
  const Circle c = smallest_enclosing_disk(pts);
  EXPECT_NEAR(c.radius, 2.0 / std::sqrt(3.0), 1e-9);
}

TEST(MinidiskTest, ObtuseTriangleUsesLongestSide) {
  // For an obtuse triangle the SED is the diametral circle of the longest
  // side, not the circumcircle.
  const std::vector<Point2> pts{{0.0, 0.0}, {10.0, 0.0}, {5.0, 0.5}};
  const Circle c = smallest_enclosing_disk(pts);
  EXPECT_NEAR(c.radius, 5.0, 1e-6);
  EXPECT_TRUE(almost_equal(c.center, {5.0, 0.0}, 1e-6));
}

TEST(MinidiskTest, DuplicatePointsHandled) {
  const std::vector<Point2> pts{{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}};
  const Circle c = smallest_enclosing_disk(pts);
  EXPECT_DOUBLE_EQ(c.radius, 0.0);
}

TEST(MinidiskTest, CollinearPointsHandled) {
  const std::vector<Point2> pts{
      {0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {7.0, 0.0}, {3.0, 0.0}};
  const Circle c = smallest_enclosing_disk(pts);
  EXPECT_NEAR(c.radius, 3.5, 1e-9);
  EXPECT_TRUE(almost_equal(c.center, {3.5, 0.0}, 1e-9));
}

TEST(MinidiskTest, DeterministicAcrossCalls) {
  support::Rng rng(5);
  std::vector<Point2> pts;
  for (int i = 0; i < 50; ++i) {
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  }
  const Circle a = smallest_enclosing_disk(pts);
  const Circle b = smallest_enclosing_disk(pts);
  EXPECT_EQ(a.center, b.center);
  EXPECT_EQ(a.radius, b.radius);
}

TEST(FitsInRadiusTest, ThresholdBehaviour) {
  const std::vector<Point2> pts{{0.0, 0.0}, {6.0, 8.0}};  // SED radius 5
  EXPECT_TRUE(fits_in_radius(pts, 5.0));
  EXPECT_TRUE(fits_in_radius(pts, 5.1));
  EXPECT_FALSE(fits_in_radius(pts, 4.9));
  EXPECT_TRUE(fits_in_radius({}, 0.0));  // empty set fits trivially
  EXPECT_THROW(fits_in_radius(pts, -1.0), support::PreconditionError);
}

// Property sweep: Welzl agrees with the O(n^4) brute force and encloses
// every input point, across point-set sizes.
class MinidiskPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MinidiskPropertyTest, MatchesBruteForceAndEnclosesAll) {
  const int n = GetParam();
  support::Rng rng(1000 + static_cast<std::uint64_t>(n));
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Point2> pts;
    pts.reserve(n);
    for (int i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(0, 50), rng.uniform(0, 50)});
    }
    const Circle fast = smallest_enclosing_disk(pts);
    const Circle brute = smallest_enclosing_disk_brute(pts);
    ASSERT_NEAR(fast.radius, brute.radius, 1e-6)
        << "n=" << n << " trial=" << trial;
    for (const Point2 p : pts) {
      ASSERT_TRUE(fast.contains(p, 1e-7));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MinidiskPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 21, 34));

// Clustered inputs (many cocircular-ish points) stress the support-set
// logic harder than uniform ones.
TEST(MinidiskPropertyExtraTest, NearCocircularPoints) {
  support::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Point2> pts;
    const double radius = rng.uniform(5.0, 20.0);
    for (int i = 0; i < 40; ++i) {
      const double theta = rng.uniform(0.0, 6.283185307);
      const double rr = radius * (1.0 + rng.uniform(-1e-6, 1e-6));
      pts.push_back({rr * std::cos(theta), rr * std::sin(theta)});
    }
    const Circle c = smallest_enclosing_disk(pts);
    EXPECT_NEAR(c.radius, radius, radius * 1e-3);
    for (const Point2 p : pts) ASSERT_TRUE(c.contains(p, 1e-6));
  }
}

}  // namespace
}  // namespace bc::geometry
