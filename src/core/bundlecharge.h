// Umbrella header: include this to use the whole bundlecharge library.
//
// bundlecharge is a from-scratch C++20 implementation of
// "Bundle Charging: Wireless Charging Energy Minimization in Dense
// Wireless Sensor Networks" (Wang, Wu, Dai — IEEE ICDCS 2019).
//
// Typical use:
//
//   #include "core/bundlecharge.h"
//
//   bc::support::Rng rng(7);
//   auto profile = bc::core::icdcs2019_simulation_profile();
//   auto deployment =
//       bc::net::uniform_random_deployment(100, profile.field, rng);
//   bc::core::BundleChargingPlanner planner(profile);
//   auto result = planner.plan(deployment, bc::tour::Algorithm::kBcOpt);
//   // result.plan  : the charging tour (stops + assigned sensors)
//   // result.metrics.total_energy_j : the Eq. 3 objective

#ifndef BUNDLECHARGE_CORE_BUNDLECHARGE_H_
#define BUNDLECHARGE_CORE_BUNDLECHARGE_H_

#include "bundle/bundle.h"          // IWYU pragma: export
#include "bundle/generator.h"       // IWYU pragma: export
#include "charging/model.h"         // IWYU pragma: export
#include "charging/movement.h"      // IWYU pragma: export
#include "core/planner_api.h"       // IWYU pragma: export
#include "io/deployment_io.h"       // IWYU pragma: export
#include "io/plan_io.h"             // IWYU pragma: export
#include "core/profiles.h"          // IWYU pragma: export
#include "core/version.h"           // IWYU pragma: export
#include "net/deployment.h"         // IWYU pragma: export
#include "sim/evaluate.h"           // IWYU pragma: export
#include "sim/experiment.h"         // IWYU pragma: export
#include "sim/schedule.h"           // IWYU pragma: export
#include "support/rng.h"            // IWYU pragma: export
#include "tour/depots.h"            // IWYU pragma: export
#include "tour/plan.h"              // IWYU pragma: export
#include "tour/planner.h"           // IWYU pragma: export
#include "viz/plan_render.h"        // IWYU pragma: export

#endif  // BUNDLECHARGE_CORE_BUNDLECHARGE_H_
