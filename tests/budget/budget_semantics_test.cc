// Budget-semantics tests: the anytime contract (a tripped budget yields a
// valid, possibly suboptimal answer, never a hang or a crash) and the
// determinism contract (node-cap cutoffs are bit-identical at every
// thread count; only wall-clock/cancel cutoffs may vary).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bundle/candidates.h"
#include "bundle/exact_cover.h"
#include "net/deployment.h"
#include "sim/checkpoint.h"
#include "sim/evaluate.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "tour/plan.h"
#include "tour/planner.h"
#include "tour/replan.h"

namespace bc {
namespace {

net::Deployment make_deployment(std::size_t n, std::uint64_t seed = 11) {
  support::Rng rng(seed);
  net::FieldSpec spec;
  return net::uniform_random_deployment(n, spec, rng);
}

TEST(BudgetSemanticsTest, TinyNodeBudgetYieldsValidSuboptimalCover) {
  const net::Deployment d = make_deployment(40);
  const double r = 120.0;
  const std::vector<bundle::Bundle> candidates =
      bundle::enumerate_candidates(d, r);

  bundle::ExactCoverOptions unlimited;
  const auto full = bundle::exact_cover_anytime(d, candidates, unlimited);
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(full.value().optimal);

  support::Budget tiny;
  tiny.node_cap = 3;  // trips almost immediately
  support::BudgetMeter meter(tiny);
  const auto capped =
      bundle::exact_cover_anytime(d, candidates, unlimited, &meter);
  ASSERT_TRUE(capped.has_value());
  const bundle::CoverSolution& solution = capped.value();
  EXPECT_FALSE(solution.optimal);
  EXPECT_EQ(solution.trip, support::BudgetTrip::kNodeCap);
  // The incumbent is always a full cover — the greedy seed guarantees it.
  tour::ChargingPlan as_plan;
  as_plan.depot = d.depot();
  for (const bundle::Bundle& b : solution.bundles) {
    as_plan.stops.push_back({b.anchor, b.members});
  }
  EXPECT_TRUE(tour::plan_is_partition(d, as_plan));
  // Suboptimal means at-least-as-many bundles, never fewer.
  EXPECT_GE(solution.bundles.size(), full.value().bundles.size());
}

TEST(BudgetSemanticsTest, EveryPlannerStaysAPartitionUnderAnyBudget) {
  const net::Deployment d = make_deployment(60);
  for (const auto algorithm :
       {tour::Algorithm::kSc, tour::Algorithm::kCss, tour::Algorithm::kBc,
        tour::Algorithm::kBcOpt, tour::Algorithm::kTspn}) {
    for (const std::size_t cap : {std::size_t{1}, std::size_t{50},
                                  std::size_t{5000}}) {
      tour::PlannerConfig config;
      config.bundle_radius = 60.0;
      config.budget.node_cap = cap;
      const tour::ChargingPlan plan =
          tour::plan_charging_tour(d, algorithm, config);
      EXPECT_TRUE(tour::plan_is_partition(d, plan))
          << to_string(algorithm) << " cap=" << cap;
    }
  }
}

TEST(BudgetSemanticsTest, PreCancelledBudgetStillYieldsValidPlans) {
  const net::Deployment d = make_deployment(50);
  tour::PlannerConfig config;
  config.bundle_radius = 60.0;
  config.budget.cancel.request_cancel();
  for (const auto algorithm : {tour::Algorithm::kBc, tour::Algorithm::kSc,
                               tour::Algorithm::kBcOpt}) {
    const tour::ChargingPlan plan =
        tour::plan_charging_tour(d, algorithm, config);
    EXPECT_TRUE(tour::plan_is_partition(d, plan)) << to_string(algorithm);
  }
}

// The exact serialized metrics of a node-capped plan, for byte-for-byte
// comparison across thread counts.
std::string capped_plan_fingerprint(std::size_t node_cap) {
  const net::Deployment d = make_deployment(70, /*seed=*/23);
  tour::PlannerConfig config;
  config.bundle_radius = 70.0;
  config.budget.node_cap = node_cap;
  const tour::ChargingPlan plan =
      tour::plan_charging_tour(d, tour::Algorithm::kBcOpt, config);
  std::string fingerprint = sim::encode_metrics(
      sim::evaluate_plan(d, plan, sim::EvaluationConfig{}));
  for (const tour::Stop& stop : plan.stops) {
    fingerprint += "|";
    for (const net::SensorId id : stop.members) {
      fingerprint += std::to_string(id) + ",";
    }
  }
  return fingerprint;
}

TEST(BudgetSemanticsTest, NodeCapCutoffsAreBitIdenticalAcrossThreadCounts) {
  for (const std::size_t cap : {std::size_t{10}, std::size_t{1000},
                                std::size_t{100000}}) {
    support::set_thread_count(1);
    const std::string serial = capped_plan_fingerprint(cap);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      support::set_thread_count(threads);
      EXPECT_EQ(capped_plan_fingerprint(cap), serial)
          << "cap=" << cap << " threads=" << threads;
    }
  }
  support::set_thread_count(0);  // restore the default for other tests
}

TEST(BudgetSemanticsTest, ReplanLadderReportsBudgetExhausted) {
  const net::Deployment d = make_deployment(30);
  tour::ReplanRequest request;
  request.current_position = {100.0, 100.0};
  for (std::size_t id = 0; id < d.size(); ++id) {
    request.remaining.push_back(id);
    request.deficits_j.push_back(1.0);
  }
  tour::PlannerConfig config;
  config.bundle_radius = 50.0;

  tour::PlannerConfig cancelled = config;
  cancelled.budget = support::Budget{};  // a token not shared with config
  cancelled.budget.cancel.request_cancel();  // tripped before the first rung
  const auto replanned = tour::replan_tour(d, request, cancelled);
  ASSERT_FALSE(replanned.has_value());
  EXPECT_EQ(replanned.fault().kind, support::FaultKind::kBudgetExhausted);

  // Without the budget the same request succeeds — the fault above came
  // from the trip, not the instance.
  const auto unbudgeted = tour::replan_tour(d, request, config);
  ASSERT_TRUE(unbudgeted.has_value());
  EXPECT_FALSE(unbudgeted.value().stops.empty());
}

}  // namespace
}  // namespace bc
