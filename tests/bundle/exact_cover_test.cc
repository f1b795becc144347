// Tests for the exact (branch & bound) minimum bundle cover.

#include "bundle/exact_cover.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "bundle/candidates.h"
#include "bundle/greedy_cover.h"
#include "support/require.h"
#include "support/rng.h"

namespace bc::bundle {
namespace {

using geometry::Box2;

net::Deployment random_deployment(std::size_t n, std::uint64_t seed,
                                  double side = 60.0) {
  support::Rng rng(seed);
  net::FieldSpec spec;
  spec.field = Box2{{0.0, 0.0}, {side, side}};
  return net::uniform_random_deployment(n, spec, rng);
}

// Exhaustive minimum cover size by subset enumeration over candidates
// (only for very small candidate universes).
std::size_t brute_minimum_cover(const net::Deployment& d,
                                const std::vector<Bundle>& candidates) {
  const std::size_t m = candidates.size();
  std::size_t best = m + 1;
  for (std::size_t mask = 1; mask < (std::size_t{1} << m); ++mask) {
    std::vector<bool> covered(d.size(), false);
    std::size_t chosen = 0;
    for (std::size_t c = 0; c < m; ++c) {
      if (!(mask & (std::size_t{1} << c))) continue;
      ++chosen;
      for (const net::SensorId id : candidates[c].members) covered[id] = true;
    }
    if (chosen >= best) continue;
    bool all = true;
    for (const bool cov : covered) all = all && cov;
    if (all) best = chosen;
  }
  return best;
}

TEST(ExactCoverTest, OutputIsAFeasiblePartition) {
  const net::Deployment d = random_deployment(25, 1);
  const auto result = optimal_bundles(d, 10.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(is_partition(d, *result));
  EXPECT_LE(max_charging_distance(d, *result), 10.0 + 1e-6);
}

TEST(ExactCoverTest, NeverWorseThanGreedy) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const net::Deployment d = random_deployment(30, seed);
    for (const double r : {5.0, 12.0}) {
      const auto candidates = enumerate_candidates(d, r);
      const auto greedy = greedy_cover(d, candidates);
      const auto exact = exact_cover(d, candidates);
      ASSERT_TRUE(exact.has_value());
      ASSERT_LE(exact->size(), greedy.size()) << "seed=" << seed;
    }
  }
}

TEST(ExactCoverTest, MatchesSubsetBruteForce) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    const net::Deployment d = random_deployment(10, seed, 40.0);
    const auto candidates = enumerate_candidates(d, 12.0);
    if (candidates.size() > 18) continue;  // keep the brute force tractable
    const auto exact = exact_cover(d, candidates);
    ASSERT_TRUE(exact.has_value());
    ASSERT_EQ(exact->size(), brute_minimum_cover(d, candidates))
        << "seed=" << seed;
  }
}

TEST(ExactCoverTest, KnownFragmentationInstanceIsSolvedOptimally) {
  // Five collinear sensors 1 apart with r = 1.01 (diameter 2.02 covers
  // any 3 consecutive): greedy may take 0-1-2 then split {3,4}; optimal
  // needs exactly ceil(5/3) = 2 bundles.
  const net::Deployment d(
      {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}, {4.0, 0.0}},
      Box2{{0.0, 0.0}, {10.0, 10.0}}, {0.0, 0.0}, 2.0);
  const auto exact = optimal_bundles(d, 1.01);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->size(), 2u);
}

TEST(ExactCoverTest, NodeBudgetExhaustionReturnsNullopt) {
  const net::Deployment d = random_deployment(40, 10);
  ExactCoverOptions options;
  options.max_nodes = 1;
  const auto candidates = enumerate_candidates(d, 15.0);
  EXPECT_FALSE(exact_cover(d, candidates, options).has_value());
}

std::vector<std::uint64_t> random_words(std::size_t words,
                                        support::Rng& rng) {
  std::vector<std::uint64_t> out(words);
  for (auto& w : out) w = rng.next();
  return out;
}

// Bit-by-bit count of a & b over `words` words.
std::size_t common_bits(const std::vector<std::uint64_t>& a,
                        const std::vector<std::uint64_t>& b) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (int bit = 0; bit < 64; ++bit) {
      total += (a[i] >> bit) & (b[i] >> bit) & 1u;
    }
  }
  return total;
}

TEST(BitsetKernelTest, SubtractAndCountAllowsAliasedDst) {
  support::Rng rng(7);
  for (std::size_t words = 0; words <= 37; ++words) {
    const auto src = random_words(words, rng);
    const auto mask = random_words(words, rng);
    std::vector<std::uint64_t> want(words);
    for (std::size_t i = 0; i < words; ++i) want[i] = src[i] & ~mask[i];

    std::vector<std::uint64_t> dst(words, 0xfeed);
    ASSERT_EQ(detail::subtract_and_count(dst.data(), src.data(), mask.data(),
                                         words),
              common_bits(src, mask))
        << "words=" << words;
    ASSERT_EQ(dst, want) << "words=" << words;

    // Exact aliasing (dst == src) is part of the contract.
    auto alias = src;
    ASSERT_EQ(detail::subtract_and_count(alias.data(), alias.data(),
                                         mask.data(), words),
              common_bits(src, mask))
        << "words=" << words;
    ASSERT_EQ(alias, want) << "words=" << words;
  }
}

TEST(BitsetKernelTest, IntersectCountCountsCommonBits) {
  support::Rng rng(11);
  for (std::size_t words = 0; words <= 37; ++words) {
    const auto a = random_words(words, rng);
    const auto b = random_words(words, rng);
    ASSERT_EQ(detail::intersect_count(a.data(), b.data(), words),
              common_bits(a, b))
        << "words=" << words;
  }
}

TEST(ExactCoverTest, RequiresCoveringCandidates) {
  const net::Deployment d = random_deployment(5, 11);
  const std::vector<Bundle> partial{make_bundle(d, {0})};
  EXPECT_THROW(exact_cover(d, partial), support::PreconditionError);
}

}  // namespace
}  // namespace bc::bundle
