// Tests for the two-phase simplex solver, including randomized property
// sweeps against feasibility/optimality certificates.

#include "lp/simplex.h"

#include <cmath>

#include <gtest/gtest.h>

#include "support/require.h"
#include "support/rng.h"

namespace bc::lp {
namespace {

Problem make_problem(std::size_t num_vars, std::vector<double> objective,
                     std::vector<std::vector<double>> rows,
                     std::vector<double> rhs) {
  Problem p;
  p.num_vars = num_vars;
  p.objective = std::move(objective);
  p.rows = std::move(rows);
  p.rhs = std::move(rhs);
  return p;
}

TEST(SimplexTest, TrivialUnconstrainedProblems) {
  const Solution zero = solve(make_problem(2, {1.0, 2.0}, {}, {}));
  EXPECT_EQ(zero.status, Status::kOptimal);
  EXPECT_DOUBLE_EQ(zero.objective, 0.0);
  const Solution unbounded = solve(make_problem(1, {-1.0}, {}, {}));
  EXPECT_EQ(unbounded.status, Status::kUnbounded);
}

TEST(SimplexTest, SingleVariableCoverage) {
  // min t s.t. 2t >= 10  ->  t = 5.
  const Solution s = solve(make_problem(1, {1.0}, {{2.0}}, {10.0}));
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[0], 5.0, 1e-9);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
}

TEST(SimplexTest, KnownTwoVariableOptimum) {
  // min x + y  s.t.  x + 2y >= 4,  3x + y >= 6. Vertex at (8/5, 6/5).
  const Solution s = solve(
      make_problem(2, {1.0, 1.0}, {{1.0, 2.0}, {3.0, 1.0}}, {4.0, 6.0}));
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[0], 1.6, 1e-9);
  EXPECT_NEAR(s.x[1], 1.2, 1e-9);
  EXPECT_NEAR(s.objective, 2.8, 1e-9);
}

TEST(SimplexTest, DetectsInfeasibility) {
  // x >= 2 and -x >= -1 (i.e. x <= 1) cannot both hold.
  const Solution s =
      solve(make_problem(1, {1.0}, {{1.0}, {-1.0}}, {2.0, -1.0}));
  EXPECT_EQ(s.status, Status::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedPhaseTwo) {
  // min -x s.t. x >= 1: feasible, objective goes to -inf.
  const Solution s = solve(make_problem(1, {-1.0}, {{1.0}}, {1.0}));
  EXPECT_EQ(s.status, Status::kUnbounded);
}

TEST(SimplexTest, NegativeRhsRowsAreNormalised) {
  // -x - y >= -10 (x + y <= 10) with min -x - y bounded by it: max x+y=10.
  const Solution s =
      solve(make_problem(2, {-1.0, -1.0}, {{-1.0, -1.0}}, {-10.0}));
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -10.0, 1e-9);
}

TEST(SimplexTest, RedundantConstraintsAreHarmless) {
  const Solution s = solve(make_problem(
      1, {1.0}, {{1.0}, {1.0}, {2.0}}, {3.0, 3.0, 6.0}));
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
}

TEST(SimplexTest, ValidatesShapes) {
  Problem bad;
  bad.num_vars = 2;
  bad.objective = {1.0};
  EXPECT_THROW(solve(bad), support::PreconditionError);
  bad.objective = {1.0, 1.0};
  bad.rows = {{1.0}};
  bad.rhs = {1.0};
  EXPECT_THROW(solve(bad), support::PreconditionError);
}

// Property sweep: random covering problems (positive coefficients and
// demands, min-cost). The optimum must (1) be feasible, (2) not exceed
// the trivial single-variable upper bound, and (3) match a brute-force
// vertex enumeration on 2-variable instances.
class SimplexCoverPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexCoverPropertyTest, OptimaAreFeasibleAndTight) {
  support::Rng rng(8000 + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + rng.below(6);
    const std::size_t m = 1 + rng.below(6);
    Problem p;
    p.num_vars = n;
    p.objective.assign(n, 0.0);
    for (auto& c : p.objective) c = rng.uniform(0.5, 3.0);
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<double> row(n);
      for (auto& a : row) a = rng.uniform(0.1, 2.0);
      p.rows.push_back(std::move(row));
      p.rhs.push_back(rng.uniform(1.0, 10.0));
    }
    const Solution s = solve(p);
    ASSERT_EQ(s.status, Status::kOptimal);
    // Feasibility.
    for (std::size_t i = 0; i < m; ++i) {
      double lhs = 0.0;
      for (std::size_t j = 0; j < n; ++j) lhs += p.rows[i][j] * s.x[j];
      ASSERT_GE(lhs, p.rhs[i] - 1e-6);
    }
    for (const double xj : s.x) ASSERT_GE(xj, -1e-9);
    // Upper bound: satisfy everything with variable 0 alone.
    double worst = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      worst = std::max(worst, p.rhs[i] / p.rows[i][0]);
    }
    ASSERT_LE(s.objective, p.objective[0] * worst + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexCoverPropertyTest,
                         ::testing::Range(0, 6));

TEST(SimplexTest, MatchesVertexEnumerationOnTwoVariables) {
  support::Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    Problem p;
    p.num_vars = 2;
    p.objective = {rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)};
    const std::size_t m = 2 + rng.below(3);
    for (std::size_t i = 0; i < m; ++i) {
      p.rows.push_back({rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)});
      p.rhs.push_back(rng.uniform(1.0, 5.0));
    }
    const Solution s = solve(p);
    ASSERT_EQ(s.status, Status::kOptimal);

    // Enumerate candidate vertices: axis intercepts and row intersections.
    double best = std::numeric_limits<double>::infinity();
    const auto consider = [&](double x, double y) {
      if (x < -1e-9 || y < -1e-9) return;
      for (std::size_t i = 0; i < m; ++i) {
        if (p.rows[i][0] * x + p.rows[i][1] * y < p.rhs[i] - 1e-7) return;
      }
      best = std::min(best, p.objective[0] * x + p.objective[1] * y);
    };
    for (std::size_t i = 0; i < m; ++i) {
      consider(p.rhs[i] / p.rows[i][0], 0.0);
      consider(0.0, p.rhs[i] / p.rows[i][1]);
      for (std::size_t j = i + 1; j < m; ++j) {
        const double det =
            p.rows[i][0] * p.rows[j][1] - p.rows[i][1] * p.rows[j][0];
        if (std::abs(det) < 1e-9) continue;
        const double x =
            (p.rhs[i] * p.rows[j][1] - p.rows[i][1] * p.rhs[j]) / det;
        const double y =
            (p.rows[i][0] * p.rhs[j] - p.rhs[i] * p.rows[j][0]) / det;
        consider(x, y);
      }
    }
    ASSERT_NEAR(s.objective, best, 1e-5) << "trial " << trial;
  }
}

// --- termination, anti-cycling, budgets ----------------------------------

TEST(SimplexTest, StatusStringsAndFaultKinds) {
  EXPECT_EQ(to_string(Status::kOptimal), "optimal");
  EXPECT_EQ(to_string(Status::kInfeasible), "infeasible");
  EXPECT_EQ(to_string(Status::kUnbounded), "unbounded");
  EXPECT_EQ(to_string(Status::kIterationLimit), "iteration-limit");
  EXPECT_EQ(to_string(Status::kBudgetExhausted), "budget-exhausted");

  EXPECT_EQ(to_fault_kind(Status::kOptimal), support::FaultKind::kNone);
  EXPECT_EQ(to_fault_kind(Status::kInfeasible),
            support::FaultKind::kInvalidInput);
  EXPECT_EQ(to_fault_kind(Status::kUnbounded),
            support::FaultKind::kInvalidInput);
  EXPECT_EQ(to_fault_kind(Status::kIterationLimit),
            support::FaultKind::kBudgetExhausted);
  EXPECT_EQ(to_fault_kind(Status::kBudgetExhausted),
            support::FaultKind::kBudgetExhausted);
}

TEST(SimplexTest, IterationCapReportsLimit) {
  SimplexOptions options;
  options.max_iterations = 1;  // phase 1 alone needs more than one pivot
  const Solution s = solve(
      make_problem(2, {1.0, 1.0}, {{1.0, 2.0}, {3.0, 1.0}}, {4.0, 6.0}),
      options);
  EXPECT_EQ(s.status, Status::kIterationLimit);
}

TEST(SimplexTest, NodeBudgetTripsAsBudgetExhausted) {
  support::Budget budget;
  budget.node_cap = 1;  // one pivot allowed, solve needs more
  support::BudgetMeter meter(budget);
  const Solution s = solve(
      make_problem(2, {1.0, 1.0}, {{1.0, 2.0}, {3.0, 1.0}}, {4.0, 6.0}),
      SimplexOptions{}, &meter);
  EXPECT_EQ(s.status, Status::kBudgetExhausted);
}

TEST(SimplexTest, SharedMeterIsChargedAndHonoured) {
  const Problem p =
      make_problem(2, {1.0, 1.0}, {{1.0, 2.0}, {3.0, 1.0}}, {4.0, 6.0});

  support::Budget budget;
  budget.node_cap = 100000;
  support::BudgetMeter meter(budget);
  const Solution s = solve(p, SimplexOptions{}, &meter);
  EXPECT_EQ(s.status, Status::kOptimal);
  EXPECT_GT(meter.nodes_used(), 0u);  // every pivot charged the caller

  // A meter another solver already exhausted stops the LP immediately.
  support::Budget tiny;
  tiny.node_cap = 1;
  support::BudgetMeter drained(tiny);
  while (drained.charge()) {
  }
  const Solution stopped = solve(p, SimplexOptions{}, &drained);
  EXPECT_EQ(stopped.status, Status::kBudgetExhausted);
}

TEST(SimplexTest, DegenerateVertexTerminates) {
  // Many constraints active at the same optimal vertex (2, 2): scaled
  // duplicates force degenerate pivots, the classic cycling hazard under
  // Dantzig pricing. The Bland fallback must still reach the optimum.
  Problem p;
  p.num_vars = 2;
  p.objective = {1.0, 1.0};
  for (double k = 1.0; k <= 8.0; k += 1.0) {
    p.rows.push_back({k, k});
    p.rhs.push_back(4.0 * k);
    p.rows.push_back({k, 2.0 * k});
    p.rhs.push_back(6.0 * k);
    p.rows.push_back({2.0 * k, k});
    p.rhs.push_back(6.0 * k);
  }
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);
}

TEST(SimplexTest, EarlyBlandSwitchMatchesDantzig) {
  // Forcing the anti-cycling fallback after a single degenerate pivot must
  // not change any optimum — only the pivot path.
  support::Rng rng(4242);
  SimplexOptions eager;
  eager.degenerate_pivot_switch = 1;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.below(5);
    const std::size_t m = 1 + rng.below(6);
    Problem p;
    p.num_vars = n;
    p.objective.assign(n, 0.0);
    for (auto& c : p.objective) c = rng.uniform(0.5, 3.0);
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<double> row(n);
      for (auto& a : row) a = rng.uniform(0.1, 2.0);
      p.rows.push_back(std::move(row));
      p.rhs.push_back(rng.uniform(1.0, 10.0));
    }
    const Solution dantzig = solve(p);
    const Solution bland = solve(p, eager);
    ASSERT_EQ(dantzig.status, Status::kOptimal);
    ASSERT_EQ(bland.status, Status::kOptimal);
    ASSERT_NEAR(dantzig.objective, bland.objective, 1e-6)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace bc::lp
