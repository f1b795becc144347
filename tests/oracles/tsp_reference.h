// Reference tour improvers for tests and micro-benchmarks: the original
// naive full-scan first-improvement 2-opt and Or-opt bodies, kept verbatim
// as the differential-testing oracle for the neighbour-list versions in
// tsp/improve.h. `options.neighbors` is ignored. Each call bumps the
// tsp.two_opt_reference.* / tsp.or_opt_reference.* counters.

#ifndef BUNDLECHARGE_TESTS_ORACLES_TSP_REFERENCE_H_
#define BUNDLECHARGE_TESTS_ORACLES_TSP_REFERENCE_H_

#include <span>

#include "geometry/point.h"
#include "support/deadline.h"
#include "tsp/improve.h"
#include "tsp/tour.h"

namespace bc::tsp {

double two_opt_reference(std::span<const geometry::Point2> points, Tour& order,
                         const ImproveOptions& options = ImproveOptions{},
                         support::BudgetMeter* meter = nullptr);
double or_opt_reference(std::span<const geometry::Point2> points, Tour& order,
                        const ImproveOptions& options = ImproveOptions{},
                        support::BudgetMeter* meter = nullptr);

}  // namespace bc::tsp

#endif  // BUNDLECHARGE_TESTS_ORACLES_TSP_REFERENCE_H_
