// Exact minimum charging-bundle cover — the paper's "optimal" baseline in
// Fig. 11, obtained there "through the exhaustive search".
//
// Minimum set cover over the candidate universe, solved by depth-first
// branch & bound: branch on the lowest-indexed uncovered sensor (one of
// the candidates containing it must be chosen), bound with
// ceil(remaining / largest_candidate) and prune against the greedy
// incumbent. Exponential in the worst case; intended for the small
// instances the paper uses it on.
//
// The search is *anytime*: it always starts from the greedy cover as the
// incumbent, so when a budget (node cap, wall-clock deadline, external
// cancellation) trips mid-search, the best cover found so far is a valid
// — possibly suboptimal — answer, returned with `optimal == false`.

#ifndef BUNDLECHARGE_BUNDLE_EXACT_COVER_H_
#define BUNDLECHARGE_BUNDLE_EXACT_COVER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bundle/bundle.h"
#include "net/deployment.h"
#include "support/deadline.h"
#include "support/expected.h"

namespace bc::bundle {

struct ExactCoverOptions {
  // Per-call node cap: give up after this many branch-and-bound nodes
  // (0 = unlimited). Kept distinct from the caller's meter, which may be a
  // *shared* allowance spanning several solver calls (the replan ladder);
  // whichever trips first wins.
  std::size_t max_nodes = 20'000'000;
};

// A cover solution with its provenance. `bundles` is always a valid
// partition covering every sensor.
struct CoverSolution {
  std::vector<Bundle> bundles;
  // True when the branch & bound ran to completion (bundles is a
  // minimum-cardinality cover); false when a budget tripped and `bundles`
  // is the best incumbent at that point.
  bool optimal = true;
  std::size_t nodes_expanded = 0;
  support::BudgetTrip trip = support::BudgetTrip::kNone;
};

// Anytime exact cover. A non-null `meter` is charged one unit per search
// node and shared with the caller (ladder budgets); it forces the serial
// search path so that node-cap cutoffs stay bit-identical across thread
// counts. A null meter runs unbudgeted. The fault channel
// (kBudgetExhausted) fires only when the meter is already exhausted on
// entry — once the search starts, a tripped budget returns the incumbent
// with `optimal == false` instead.
// Precondition: candidates jointly cover all sensors.
support::Expected<CoverSolution> exact_cover_anytime(
    const net::Deployment& deployment, std::span<const Bundle> candidates,
    const ExactCoverOptions& options = ExactCoverOptions{},
    support::BudgetMeter* meter = nullptr);

// Legacy strict form: the minimum cover, or nullopt iff `max_nodes`
// tripped.
std::optional<std::vector<Bundle>> exact_cover(
    const net::Deployment& deployment, std::span<const Bundle> candidates,
    const ExactCoverOptions& options = ExactCoverOptions{});

// Convenience: enumerate candidates of radius r, then solve exactly.
std::optional<std::vector<Bundle>> optimal_bundles(
    const net::Deployment& deployment, double r,
    const ExactCoverOptions& options = ExactCoverOptions{});

namespace detail {

// Word-level bitset kernels of the branch & bound, declared here for their
// unit tests. A bitset is `words` 64-bit words.

// Fused dst = src & ~mask, returning popcount(src & mask) (the number of
// bits cleared). `dst` may alias `src` exactly, but must not partially
// overlap `src` or `mask`.
std::size_t subtract_and_count(std::uint64_t* dst, const std::uint64_t* src,
                               const std::uint64_t* mask, std::size_t words);

// popcount(a & b).
std::size_t intersect_count(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t words);

}  // namespace detail

}  // namespace bc::bundle

#endif  // BUNDLECHARGE_BUNDLE_EXACT_COVER_H_
