// Dense two-phase simplex for small linear programs.
//
// The charging-time schedule of Eq. 3 is, for fixed stop positions, a
// linear program: minimise total parked time subject to every sensor's
// accumulated received energy meeting its demand,
//
//     min  sum_i t_i
//     s.t. sum_i p_r(d(l_i, s_j)) * t_i >= delta_j   for every sensor j,
//          t_i >= 0,
//
// (the one-to-many property makes the constraint matrix dense). Instances
// are small — a few hundred stops by a few hundred sensors — so a dense
// tableau simplex is simple, dependency-free and fast enough. Phase 1
// drives artificial variables out of the basis.
//
// Pricing is Dantzig's most-negative rule while the walk makes progress,
// falling back to Bland's smallest-index rule after a run of consecutive
// degenerate pivots (the classic anti-cycling switch): Dantzig converges
// in fewer pivots on healthy instances but can cycle on degenerate ones,
// Bland cannot cycle, so the combination terminates on every input. A
// pivot-iteration cap and an optional support::BudgetMeter bound the work
// regardless; a tripped meter reports kBudgetExhausted instead of
// looping.

#ifndef BUNDLECHARGE_LP_SIMPLEX_H_
#define BUNDLECHARGE_LP_SIMPLEX_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "support/deadline.h"
#include "support/expected.h"

namespace bc::lp {

// min c.x  subject to  A x >= b,  x >= 0.
// All rows share the ">=" sense (what the schedule needs); callers with
// "<=" rows can negate them.
struct Problem {
  std::size_t num_vars = 0;
  std::vector<double> objective;            // size num_vars
  std::vector<std::vector<double>> rows;    // each size num_vars
  std::vector<double> rhs;                  // size rows.size()
};

enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,    // the pivot-iteration cap tripped
  kBudgetExhausted,   // the caller's Budget (deadline/node cap/cancel) tripped
};

std::string_view to_string(Status status);

// Maps a non-optimal Status onto the repo-wide fault taxonomy so LP
// callers can surface failures through support::Expected uniformly:
// kIterationLimit and kBudgetExhausted are budget trips, kInfeasible and
// kUnbounded are malformed inputs, kOptimal maps to kNone.
support::FaultKind to_fault_kind(Status status);

struct Solution {
  Status status = Status::kIterationLimit;
  std::vector<double> x;      // size num_vars when kOptimal
  double objective = 0.0;     // c.x when kOptimal
};

struct SimplexOptions {
  // Pivot iteration cap across both phases (0 = derive from size).
  std::size_t max_iterations = 0;
  // Values within this of zero are treated as zero during pivoting.
  double epsilon = 1e-9;
  // Consecutive degenerate pivots tolerated under Dantzig pricing before
  // switching to Bland's rule for the rest of the phase.
  std::size_t degenerate_pivot_switch = 12;
};

// Solves the problem. A non-null `meter` shares a caller-owned budget
// (charged one unit per pivot; a trip yields Status::kBudgetExhausted); a
// null meter runs unbudgeted. Preconditions: consistent dimensions; finite
// coefficients.
Solution solve(const Problem& problem,
               const SimplexOptions& options = SimplexOptions{},
               support::BudgetMeter* meter = nullptr);

}  // namespace bc::lp

#endif  // BUNDLECHARGE_LP_SIMPLEX_H_
