#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/require.h"

namespace bc::lp {

namespace {

// Dense tableau with explicit basis bookkeeping. Column layout:
// [ structural x (n) | surplus s (m) | artificial a (m) | rhs ].
class Tableau {
 public:
  Tableau(const Problem& p, double epsilon)
      : n_(p.num_vars),
        m_(p.rows.size()),
        cols_(n_ + 2 * m_ + 1),
        epsilon_(epsilon),
        rows_(m_, std::vector<double>(cols_, 0.0)),
        basis_(m_) {
    for (std::size_t i = 0; i < m_; ++i) {
      auto& row = rows_[i];
      for (std::size_t j = 0; j < n_; ++j) row[j] = p.rows[i][j];
      row[n_ + i] = -1.0;  // surplus for the ">=" sense
      row[cols_ - 1] = p.rhs[i];
      if (row[cols_ - 1] < 0.0) {
        for (double& v : row) v = -v;
      }
      row[n_ + m_ + i] = 1.0;  // artificial
      basis_[i] = n_ + m_ + i;
    }
  }

  std::size_t rhs_col() const { return cols_ - 1; }
  bool is_artificial(std::size_t col) const { return col >= n_ + m_; }

  // One simplex phase over the cost vector `cost` (length cols_ - 1).
  // Entering columns with `allow(col) == false` are skipped. Returns the
  // status of the phase; kOptimal means reduced costs are non-negative.
  // A non-null `meter` is charged one unit per pivot iteration.
  template <typename Allow>
  Status minimize(const std::vector<double>& cost, const Allow& allow,
                  std::size_t max_iterations, std::size_t& iterations,
                  std::size_t degenerate_switch,
                  support::BudgetMeter* meter) {
    // Reduced cost row r = c - c_B * B^{-1}A, plus -z in the rhs slot.
    std::vector<double> reduced(cols_, 0.0);
    for (std::size_t j = 0; j + 1 < cols_; ++j) reduced[j] = cost[j];
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = cost[basis_[i]];
      if (cb != 0.0) {
        for (std::size_t j = 0; j < cols_; ++j) {
          reduced[j] -= cb * rows_[i][j];
        }
      }
    }

    // Columns whose negative reduced cost proved to be rounding noise (no
    // positive pivot entry but a near-zero cost) are banned rather than
    // declared an unbounded ray; see below.
    std::vector<bool> banned(cols_, false);
    double cost_scale = 1.0;
    for (std::size_t j = 0; j + 1 < cols_; ++j) {
      cost_scale = std::max(cost_scale, std::abs(cost[j]));
    }
    const double serious_threshold = 1e-5 * cost_scale;

    // Dantzig pricing until `degenerate_switch` consecutive degenerate
    // pivots, then Bland's rule (which cannot cycle) until a pivot makes
    // strict progress again.
    bool use_bland = false;
    std::size_t degenerate_run = 0;

    while (true) {
      if (++iterations > max_iterations) return Status::kIterationLimit;
      if (meter != nullptr && !meter->charge()) {
        return Status::kBudgetExhausted;
      }
      std::size_t entering = cols_;
      if (use_bland) {
        // Bland's rule: smallest-index improving column.
        for (std::size_t j = 0; j + 1 < cols_; ++j) {
          if (!allow(j) || banned[j]) continue;
          if (reduced[j] < -epsilon_) {
            entering = j;
            break;
          }
        }
      } else {
        // Dantzig's rule: most-negative reduced cost.
        double most_negative = -epsilon_;
        for (std::size_t j = 0; j + 1 < cols_; ++j) {
          if (!allow(j) || banned[j]) continue;
          if (reduced[j] < most_negative) {
            most_negative = reduced[j];
            entering = j;
          }
        }
      }
      if (entering == cols_) return Status::kOptimal;

      // Ratio test; Bland tie-break on the smallest basis index.
      std::size_t leaving = m_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < m_; ++i) {
        const double a = rows_[i][entering];
        if (a <= epsilon_) continue;
        const double ratio = rows_[i][rhs_col()] / a;
        if (ratio < best_ratio - epsilon_ ||
            (std::abs(ratio - best_ratio) <= epsilon_ && leaving < m_ &&
             basis_[i] < basis_[leaving])) {
          best_ratio = ratio;
          leaving = i;
        }
      }
      if (leaving == m_) {
        // No positive pivot entry: a genuine unbounded ray only if the
        // reduced cost is meaningfully negative; otherwise it is rounding
        // noise on a converged column — ban it and keep going.
        if (reduced[entering] < -serious_threshold) {
          return Status::kUnbounded;
        }
        banned[entering] = true;
        continue;
      }

      if (best_ratio <= epsilon_) {
        if (++degenerate_run >= degenerate_switch) use_bland = true;
      } else {
        degenerate_run = 0;
        use_bland = false;
      }
      pivot(leaving, entering, reduced);
    }
  }

  // Objective value of `cost` at the current basic solution.
  double objective_value(const std::vector<double>& cost) const {
    double total = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      total += cost[basis_[i]] * rows_[i][rhs_col()];
    }
    return total;
  }

  // After phase 1: pivot zero-valued artificial basics out on any
  // non-artificial column so phase 2 never touches them. Rows that are
  // all-zero outside the artificial block are redundant and harmless.
  void expel_artificials() {
    std::vector<double> dummy(cols_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      if (!is_artificial(basis_[i])) continue;
      for (std::size_t j = 0; j < n_ + m_; ++j) {
        if (std::abs(rows_[i][j]) > epsilon_) {
          pivot(i, j, dummy);
          break;
        }
      }
    }
  }

  std::vector<double> extract_solution() const {
    std::vector<double> x(n_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_) {
        x[basis_[i]] = rows_[i][rhs_col()];
      }
    }
    return x;
  }

  std::size_t structural_vars() const { return n_; }
  std::size_t constraint_count() const { return m_; }

 private:
  void pivot(std::size_t leaving, std::size_t entering,
             std::vector<double>& reduced) {
    auto& pivot_row = rows_[leaving];
    const double p = pivot_row[entering];
    for (double& v : pivot_row) v /= p;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == leaving) continue;
      const double factor = rows_[i][entering];
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < cols_; ++j) {
        rows_[i][j] -= factor * pivot_row[j];
      }
      rows_[i][entering] = 0.0;  // cancel residual rounding exactly
    }
    const double rfactor = reduced[entering];
    if (rfactor != 0.0) {
      for (std::size_t j = 0; j < cols_; ++j) {
        reduced[j] -= rfactor * pivot_row[j];
      }
      reduced[entering] = 0.0;
    }
    basis_[leaving] = entering;
  }

  std::size_t n_;
  std::size_t m_;
  std::size_t cols_;
  double epsilon_;
  std::vector<std::vector<double>> rows_;
  std::vector<std::size_t> basis_;
};

}  // namespace

std::string_view to_string(Status status) {
  switch (status) {
    case Status::kOptimal:
      return "optimal";
    case Status::kInfeasible:
      return "infeasible";
    case Status::kUnbounded:
      return "unbounded";
    case Status::kIterationLimit:
      return "iteration-limit";
    case Status::kBudgetExhausted:
      return "budget-exhausted";
  }
  return "unknown";
}

support::FaultKind to_fault_kind(Status status) {
  switch (status) {
    case Status::kOptimal:
      return support::FaultKind::kNone;
    case Status::kInfeasible:
    case Status::kUnbounded:
      return support::FaultKind::kInvalidInput;
    case Status::kIterationLimit:
    case Status::kBudgetExhausted:
      return support::FaultKind::kBudgetExhausted;
  }
  return support::FaultKind::kInvalidInput;
}

Solution solve(const Problem& problem, const SimplexOptions& options,
               support::BudgetMeter* meter) {
  support::require(problem.objective.size() == problem.num_vars,
                   "objective size must equal num_vars");
  support::require(problem.rows.size() == problem.rhs.size(),
                   "one rhs per constraint row");
  for (const auto& row : problem.rows) {
    support::require(row.size() == problem.num_vars,
                     "constraint row size must equal num_vars");
  }

  Solution solution;
  if (problem.rows.empty()) {
    // No constraints: x = 0 is optimal for non-negative costs; any
    // negative cost makes the problem unbounded.
    const bool unbounded =
        std::any_of(problem.objective.begin(), problem.objective.end(),
                    [](double c) { return c < 0.0; });
    solution.status = unbounded ? Status::kUnbounded : Status::kOptimal;
    solution.x.assign(problem.num_vars, 0.0);
    solution.objective = 0.0;
    return solution;
  }

  const std::size_t n = problem.num_vars;
  const std::size_t m = problem.rows.size();
  const std::size_t iteration_cap =
      options.max_iterations != 0 ? options.max_iterations
                                  : 200 * (n + 2 * m + 8);

  // Row equilibration: scale each constraint (and its rhs) by its largest
  // coefficient magnitude. The feasible set and optimum are unchanged, but
  // pivoting on O(1) entries keeps the tableau numerically healthy even
  // when callers pass physically tiny coefficients (e.g. received power in
  // watts against demands in joules).
  Problem scaled = problem;
  for (std::size_t i = 0; i < m; ++i) {
    double largest = 0.0;
    for (const double a : scaled.rows[i]) {
      largest = std::max(largest, std::abs(a));
    }
    if (largest > 0.0) {
      for (double& a : scaled.rows[i]) a /= largest;
      scaled.rhs[i] /= largest;
    }
  }

  Tableau tableau(scaled, options.epsilon);
  std::size_t iterations = 0;

  // Phase 1: minimise the sum of artificials.
  std::vector<double> phase1_cost(n + 2 * m, 0.0);
  for (std::size_t j = n + m; j < n + 2 * m; ++j) phase1_cost[j] = 1.0;
  const Status phase1 = tableau.minimize(
      phase1_cost, [](std::size_t) { return true; }, iteration_cap,
      iterations, options.degenerate_pivot_switch, meter);
  if (phase1 != Status::kOptimal) {
    solution.status = phase1;
    return solution;
  }
  double rhs_scale = 1.0;
  for (const double b : scaled.rhs) rhs_scale += std::abs(b);
  if (tableau.objective_value(phase1_cost) > 1e-7 * rhs_scale) {
    solution.status = Status::kInfeasible;
    return solution;
  }
  tableau.expel_artificials();

  // Phase 2: the real objective, artificials barred.
  std::vector<double> phase2_cost(n + 2 * m, 0.0);
  for (std::size_t j = 0; j < n; ++j) phase2_cost[j] = problem.objective[j];
  const Status phase2 = tableau.minimize(
      phase2_cost,
      [&](std::size_t col) { return !tableau.is_artificial(col); },
      iteration_cap, iterations, options.degenerate_pivot_switch, meter);
  if (phase2 != Status::kOptimal) {
    solution.status = phase2;
    return solution;
  }

  solution.status = Status::kOptimal;
  solution.x = tableau.extract_solution();
  solution.objective = tableau.objective_value(phase2_cost);
  return solution;
}

}  // namespace bc::lp
