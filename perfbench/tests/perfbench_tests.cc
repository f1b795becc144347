// The benchmark's own tests: tiny-size smoke runs of every workload (both
// modes, two seeds, with the determinism contract checked between
// repeats), the audit catching corrupted plans, and the traced replay
// reproducing plan_charging_tour on each workload's first input.
//
//   ctest --test-dir .bench_build --output-on-failure

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "core/profiles.h"
#include "io/plan_io.h"
#include "metric_names.h"
#include "support/parallel.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ++failures;                                                       \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: " #cond \
                << "\n";                                                \
    }                                                                   \
  } while (0)

using namespace perfbench;

std::string work_dir() {
  const std::string dir = std::filesystem::current_path().string() +
                          "/perfbench_tests_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  return dir;
}

LibrarySpec tiny(LibrarySpec spec) {
  spec.setups = 1;
  spec.threads = 2;
  if (spec.algorithm == bc::tour::Algorithm::kBcOpt) {
    spec.sensors = 80;
    spec.stream = 3;
  } else {
    // Enough stops (> shard_tsp_cutover) to take the snake tour path.
    spec.sensors = 4000;
    spec.stream = 2;
    spec.grid_side = 24;
    if (spec.walls > 0) spec.walls = 10;
  }
  return spec;
}

ServiceSpec tiny_service() {
  ServiceSpec spec;
  spec.sensors = 60;
  spec.rate_per_s = 40.0;
  spec.hit_bodies = 2;
  spec.incr_bases = 2;
  spec.replan_bodies = 2;
  spec.setups = 1;
  spec.traced_replays = 2;
  return spec;
}

RunResult run(const std::string& workload, std::uint64_t seed, bool trace,
              const std::string& dir) {
  RunOptions options;
  options.seed = seed;
  options.seconds = 1.0;
  options.trace = trace;
  options.work_dir = dir;
  RunResult result;
  if (workload == "paper") result = run_library(tiny(paper_spec()), options);
  if (workload == "city") result = run_library(tiny(city_spec()), options);
  if (workload == "walls") result = run_library(tiny(walls_spec()), options);
  if (workload == "service") result = run_service(tiny_service(), options);
  CHECK(complete_metrics(result, trace, std::cerr));
  return result;
}

// Smoke: every workload in both modes succeeds, and the seed-determined
// metrics repeat exactly for a fixed seed; a held-out seed runs too.
void test_smoke_and_determinism(const std::string& dir) {
  for (const std::string workload : {"paper", "city", "walls", "service"}) {
    for (const bool trace : {false, true}) {
      const RunResult a = run(workload, 11, trace, dir);
      const RunResult b = run(workload, 11, trace, dir);
      const RunResult held_out = run(workload, 12, trace, dir);
      for (const RunResult* r : {&a, &b, &held_out}) {
        CHECK(r->correct);
        CHECK(r->failed == 0);
        CHECK(r->attempted >= 1);
      }
      const auto& names = trace ? per_layer_metrics() : end_to_end_metrics();
      for (const MetricName& m : names) {
        const Metric* x = a.find(m.name);
        const Metric* y = b.find(m.name);
        CHECK(x != nullptr && y != nullptr);
        if (x == nullptr || y == nullptr) continue;
        CHECK(std::isfinite(x->value));
        if (m.repeats && x->value != y->value) {
          ++failures;
          std::cerr << workload << " " << m.name << " did not repeat: "
                    << x->value << " vs " << y->value << "\n";
        }
      }
      if (!trace) {
        CHECK(a.find("energy_mj")->value > 0.0);
        CHECK(a.find("energy_mj")->value != held_out.find("energy_mj")->value);
        CHECK(a.find("plan_ms")->value > 0.0);
        CHECK(a.find("setup_s")->value > 0.0);
      }
    }
  }
}

// A corrupted plan fails the audit: a dropped sensor, a stop moved out of
// charging range, and the same two faults in an emitted response body.
void test_corrupted_plans() {
  const LibraryInputs in = make_library_inputs(tiny(paper_spec()), 5);
  const bc::net::Deployment& dep = in.stream[0];
  const bc::tour::ChargingPlan plan =
      bc::tour::plan_charging_tour(dep, bc::tour::Algorithm::kBcOpt, in.config);
  CHECK(audit_plan(dep, plan, in.evaluation, in.range_m).ok);

  bc::tour::ChargingPlan dropped = plan;
  for (bc::tour::Stop& stop : dropped.stops) {
    if (stop.members.size() > 1) {
      stop.members.pop_back();
      break;
    }
  }
  CHECK(!audit_plan(dep, dropped, in.evaluation, in.range_m).ok);

  bc::tour::ChargingPlan moved = plan;
  moved.stops[0].position.x += 10000.0;
  CHECK(!audit_plan(dep, moved, in.evaluation, in.range_m).ok);

  // Emitted documents: wrapped as the daemon wraps them.
  const auto body = [&](const bc::tour::ChargingPlan& p) {
    return "{\n  \"plan\": " + bc::io::plan_to_json(dep, p, in.evaluation) +
           ",\n  \"metrics\": {}\n}\n";
  };
  std::string why;
  CHECK(audit_plan_response(dep, body(plan), in.evaluation, in.range_m, &why));
  // Moving the stops 10 km away keeps the emitted stop times, so their
  // members starve (one moved stop alone can be covered by neighbours'
  // overlapping radiation).
  std::string moved_body = body(plan);
  const std::string key = "\"position\": [";
  for (std::size_t at = moved_body.find(key); at != std::string::npos;
       at = moved_body.find(key, at + 1)) {
    const std::size_t x0 = at + key.size();
    const std::size_t x1 = moved_body.find(',', x0);
    const double x = std::stod(moved_body.substr(x0, x1 - x0)) + 10000.0;
    moved_body.replace(x0, x1 - x0, std::to_string(x));
  }
  CHECK(!audit_plan_response(dep, moved_body, in.evaluation, 1e9, &why));
  // Drop the last member of the first multi-member stop from the text.
  std::string dropped_body = body(plan);
  std::size_t list = dropped_body.find("\"members\": [");
  while (dropped_body.find(',', list) > dropped_body.find(']', list)) {
    list = dropped_body.find("\"members\": [", list + 1);
  }
  const std::size_t close = dropped_body.find(']', list);
  const std::size_t comma = dropped_body.rfind(',', close);
  dropped_body.erase(comma, close - comma);
  CHECK(!audit_plan_response(dep, dropped_body, in.evaluation, in.range_m,
                             &why));
  CHECK(!audit_plan_response(dep, "{\"plan\": 1}", in.evaluation, in.range_m,
                             &why));
}

// The traced replay equals the library's plan on each workload's first
// input (BC-OPT: its BC plan, which plan_bc_opt starts from).
void test_replay_is_exact() {
  for (const LibrarySpec& spec : {paper_spec(), city_spec(), walls_spec()}) {
    const LibraryInputs in = make_library_inputs(spec, 1);
    const bc::net::Deployment& dep = in.stream[0];
    const bool opt = spec.algorithm == bc::tour::Algorithm::kBcOpt;
    const bc::tour::ChargingPlan expected =
        opt ? bc::tour::plan_bc(dep, in.config)
            : bc::tour::plan_charging_tour(dep, spec.algorithm, in.config);
    Recorder rec;
    const bc::tour::ChargingPlan replayed =
        replay_plan(dep, spec.algorithm, in.config, &rec, 1);
    if (!same_plan(replayed, expected)) {
      ++failures;
      std::cerr << spec.name << ": replay differs from the library's plan\n";
    }
    // Every stage sits in a named span under the root.
    CHECK(!rec.spans().empty() && rec.spans()[0].name == "plan");
    CHECK(rec.children_ms(0) >= 0.9 * rec.spans()[0].ms());
  }
  // BC (the service's algorithm) on the paper input.
  const LibraryInputs in = make_library_inputs(tiny(paper_spec()), 2);
  CHECK(same_plan(
      replay_plan(in.stream[0], bc::tour::Algorithm::kBc, in.config, nullptr,
                  0),
      bc::tour::plan_charging_tour(in.stream[0], bc::tour::Algorithm::kBc,
                                   in.config)));
}

// BENCHMARK.json lists exactly the metrics perfbench prints, with the
// same units.
void test_metric_lists_match_benchmark_json() {
  std::ifstream file(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  std::stringstream text;
  text << file.rdbuf();
  const std::string json = text.str();
  CHECK(!json.empty());
  std::size_t listed = 0;
  for (const auto* names : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricName& m : *names) {
      ++listed;
      const std::string entry = std::string("{\"name\": \"") + m.name +
                                "\", \"unit\": \"" + m.unit + "\"";
      if (json.find(entry) == std::string::npos) {
        ++failures;
        std::cerr << "BENCHMARK.json lacks " << entry << "\n";
      }
    }
  }
  std::size_t entries = 0;
  for (std::size_t at = json.find("{\"name\": "); at != std::string::npos;
       at = json.find("{\"name\": ", at + 1)) {
    ++entries;
  }
  // Every other name entry is a workload.
  CHECK(entries == listed + 4);
}

void test_lower_bound() {
  const LibraryInputs in = make_library_inputs(tiny(paper_spec()), 3);
  for (const bc::net::Deployment& dep : in.stream) {
    const std::size_t lb = stop_lower_bound(dep, in.config.bundle_radius);
    const bc::tour::ChargingPlan plan =
        bc::tour::plan_charging_tour(dep, bc::tour::Algorithm::kBc, in.config);
    CHECK(lb >= 1);
    CHECK(lb <= plan.stops.size());
  }
}

}  // namespace

int main() {
  const std::string dir = work_dir();
  test_corrupted_plans();
  test_replay_is_exact();
  test_lower_bound();
  test_metric_lists_match_benchmark_json();
  test_smoke_and_determinism(dir);
  std::filesystem::remove_all(dir);
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench tests passed\n";
  return 0;
}
