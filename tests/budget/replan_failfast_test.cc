// Fail-fast semantics of the replan ladder: a budget that is already
// spent (expired deadline, depleted node cap, cancellation) must yield
// kBudgetExhausted *before* the first rung runs — burning a full ladder
// pass of doomed rungs would spend mission battery to rediscover a fact
// the meter already knows.

#include <gtest/gtest.h>

#include "net/deployment.h"
#include "obs/metrics.h"
#include "support/deadline.h"
#include "support/rng.h"
#include "tour/replan.h"

namespace bc {
namespace {

net::Deployment make_deployment(std::size_t n) {
  support::Rng rng(23);
  net::FieldSpec spec;
  return net::uniform_random_deployment(n, spec, rng);
}

tour::ReplanRequest full_replan(const net::Deployment& deployment) {
  tour::ReplanRequest request;
  request.current_position = {500.0, 500.0};
  for (net::SensorId id = 0; id < deployment.size(); ++id) {
    request.remaining.push_back(id);
    request.deficits_j.push_back(1.0);
  }
  return request;
}

std::uint64_t rungs_attempted(const obs::MetricsRegistry& registry) {
  return registry.snapshot().counter("replan.rungs_attempted");
}

TEST(ReplanFailFastTest, DepletedNodeBudgetFailsBeforeAnyRung) {
  const net::Deployment d = make_deployment(30);
  tour::PlannerConfig config;
  config.bundle_radius = 120.0;

  support::Budget budget;
  budget.node_cap = 50;
  support::BudgetMeter meter(budget);
  while (meter.charge()) {
  }
  ASSERT_TRUE(meter.node_budget_depleted());

  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(registry);
  auto result = tour::replan_tour(d, full_replan(d), config, {}, &meter);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.fault().kind, support::FaultKind::kBudgetExhausted);
  EXPECT_EQ(rungs_attempted(registry), 0u)
      << "a depleted budget must not burn ladder rungs";
  EXPECT_EQ(registry.snapshot().counter("replan.budget_trips"), 1u);
}

TEST(ReplanFailFastTest, ExactlyAtNodeCapAlsoFailsFast) {
  // nodes == cap has not *tripped* yet (charge() trips strictly past the
  // cap), but every rung's first unit of work is doomed — the ladder must
  // treat at-cap as depleted, which is what node_budget_depleted() adds
  // over exhausted().
  const net::Deployment d = make_deployment(30);
  tour::PlannerConfig config;
  config.bundle_radius = 120.0;

  support::Budget budget;
  budget.node_cap = 64;
  support::BudgetMeter meter(budget);
  meter.charge(64);
  ASSERT_FALSE(meter.exhausted());
  ASSERT_TRUE(meter.node_budget_depleted());

  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(registry);
  auto result = tour::replan_tour(d, full_replan(d), config, {}, &meter);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.fault().kind, support::FaultKind::kBudgetExhausted);
  EXPECT_EQ(rungs_attempted(registry), 0u);
}

TEST(ReplanFailFastTest, ExpiredDeadlineFailsBeforeAnyRung) {
  const net::Deployment d = make_deployment(30);
  tour::PlannerConfig config;
  config.bundle_radius = 120.0;

  config.budget.deadline_s = 1e-9;  // expired by the first checkpoint

  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(registry);
  auto result = tour::replan_tour(d, full_replan(d), config);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.fault().kind, support::FaultKind::kBudgetExhausted);
  EXPECT_EQ(rungs_attempted(registry), 0u);
}

TEST(ReplanFailFastTest, CancelledTokenFailsBeforeAnyRung) {
  const net::Deployment d = make_deployment(30);
  tour::PlannerConfig config;
  config.bundle_radius = 120.0;

  config.budget.cancel.request_cancel();

  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry scope(registry);
  auto result = tour::replan_tour(d, full_replan(d), config);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.fault().kind, support::FaultKind::kBudgetExhausted);
  EXPECT_EQ(rungs_attempted(registry), 0u);
}

TEST(ReplanFailFastTest, HealthyBudgetStillPlans) {
  const net::Deployment d = make_deployment(30);
  tour::PlannerConfig config;
  config.bundle_radius = 120.0;

  support::Budget budget;
  budget.node_cap = 50'000'000;
  support::BudgetMeter meter(budget);
  auto result = tour::replan_tour(d, full_replan(d), config, {}, &meter);
  ASSERT_TRUE(result.has_value()) << result.fault().message;
  EXPECT_TRUE(tour::plan_is_partition(d, result.value()));
}

}  // namespace
}  // namespace bc
