#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <unordered_map>

#include "support/rng.h"

namespace perfbench {

using bc::geometry::Point2;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void RunResult::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void RunResult::fail(const std::string& why, bool fatal) {
  ++failed;
  if (fatal) correct = false;
  std::cerr << "perfbench: " << (fatal ? "FATAL: " : "failed: ") << why
            << "\n";
}

const Metric* RunResult::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string RunResult::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A non-finite value is not JSON; it can only come from a metric
    // with no samples, which the workloads rule out.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t h = values.size() / 2;
  return values.size() % 2 == 1 ? values[h] : 0.5 * (values[h - 1] + values[h]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

double paper_field_side_m(std::size_t n) {
  return 1000.0 * std::sqrt(static_cast<double>(n) / 200.0);
}

bc::net::Deployment paper_deployment(std::size_t n, Point2 origin,
                                     std::uint64_t seed) {
  const double side = paper_field_side_m(n);
  bc::net::FieldSpec spec;
  spec.field = {origin, {origin.x + side, origin.y + side}};
  spec.depot = origin;
  bc::support::Rng rng(seed);
  return bc::net::uniform_random_deployment(n, spec, rng);
}

bc::net::WaypointGraph walled_grid(double side, std::size_t per_side,
                                   std::size_t walls, double wall_len,
                                   std::uint64_t seed) {
  bc::net::WaypointGraph graph;
  const double step = side / static_cast<double>(per_side - 1);
  const auto id = [per_side](std::size_t row, std::size_t col) {
    return static_cast<std::uint32_t>(row * per_side + col);
  };
  for (std::size_t row = 0; row < per_side; ++row) {
    for (std::size_t col = 0; col < per_side; ++col) {
      graph.nodes.push_back({static_cast<double>(col) * step,
                             static_cast<double>(row) * step});
      if (col + 1 < per_side) {
        graph.edges.push_back({id(row, col), id(row, col + 1), step});
      }
      if (row + 1 < per_side) {
        graph.edges.push_back({id(row, col), id(row + 1, col), step});
      }
    }
  }
  // A wall's centre keeps half its length (plus a margin) from every cell
  // edge, so the segment never touches the cell boundary.
  bc::support::Rng rng(seed);
  const double half = 0.5 * wall_len;
  const double margin = std::min(half + 1.0, 0.5 * step);
  for (std::size_t w = 0; w < walls; ++w) {
    const double cx = static_cast<double>(rng.below(per_side - 1)) * step;
    const double cy = static_cast<double>(rng.below(per_side - 1)) * step;
    const Point2 c{rng.uniform(cx + margin, cx + step - margin),
                   rng.uniform(cy + margin, cy + step - margin)};
    const double angle = rng.uniform(0.0, M_PI);
    const Point2 d{half * std::cos(angle), half * std::sin(angle)};
    graph.obstacles.push_back({{c.x - d.x, c.y - d.y}, {c.x + d.x, c.y + d.y}});
  }
  return graph;
}

std::size_t stop_lower_bound(const bc::net::Deployment& deployment, double r) {
  // Hash grid with cell side 2r: a conflicting chosen sensor lies in one of
  // the 3x3 cells around the candidate.
  const double cell = 2.0 * r;
  const auto key = [cell](Point2 p) {
    const auto gx = static_cast<std::int64_t>(std::floor(p.x / cell));
    const auto gy = static_cast<std::int64_t>(std::floor(p.y / cell));
    return std::pair<std::int64_t, std::int64_t>{gx, gy};
  };
  struct PairHash {
    std::size_t operator()(const std::pair<std::int64_t, std::int64_t>& k)
        const {
      return std::hash<std::int64_t>()(k.first * 1000003 + k.second);
    }
  };
  std::unordered_map<std::pair<std::int64_t, std::int64_t>,
                     std::vector<Point2>, PairHash>
      chosen;
  std::size_t count = 0;
  for (const Point2 p : deployment.positions()) {
    const auto [gx, gy] = key(p);
    bool clear = true;
    for (std::int64_t dx = -1; dx <= 1 && clear; ++dx) {
      for (std::int64_t dy = -1; dy <= 1 && clear; ++dy) {
        const auto it = chosen.find({gx + dx, gy + dy});
        if (it == chosen.end()) continue;
        for (const Point2 q : it->second) {
          if (bc::geometry::distance(p, q) <= cell) {
            clear = false;
            break;
          }
        }
      }
    }
    if (clear) {
      chosen[{gx, gy}].push_back(p);
      ++count;
    }
  }
  return count;
}

Audit audit_plan(const bc::net::Deployment& deployment,
                 const bc::tour::ChargingPlan& plan,
                 const bc::sim::EvaluationConfig& evaluation, double range_m) {
  Audit audit;
  if (!bc::tour::plan_is_partition(deployment, plan)) {
    audit.why = "plan is not a partition of the sensors";
    return audit;
  }
  const double reach = range_m * (1.0 + 1e-9) + 1e-6;
  for (std::size_t i = 0; i < plan.stops.size(); ++i) {
    const double d = bc::tour::stop_max_distance(deployment, plan.stops[i]);
    if (!(d <= reach)) {
      audit.why = "stop " + std::to_string(i) + " has a member " +
                  std::to_string(d) + " m away, beyond the " +
                  std::to_string(range_m) + " m charging range";
      return audit;
    }
  }
  // plan_is_feasible's criterion on the same evaluation the energy comes
  // from, so the O(stops x n) evaluation runs once.
  audit.metrics = bc::sim::evaluate_plan(deployment, plan, evaluation);
  if (!(audit.metrics.min_demand_fraction >= 1.0 - 1e-6)) {
    audit.why = "plan leaves a sensor short of its demand (fraction " +
                std::to_string(audit.metrics.min_demand_fraction) + ")";
    return audit;
  }
  if (!std::isfinite(audit.metrics.total_energy_j) ||
      audit.metrics.total_energy_j <= 0.0) {
    audit.why = "plan energy is not a positive finite number";
    return audit;
  }
  audit.ok = true;
  return audit;
}

double charging_range_m(const bc::tour::PlannerConfig& config,
                        bool relocates, double min_demand_j) {
  if (!relocates) return config.bundle_radius;
  const bc::charging::ChargingModel& m = config.charging;
  const double reach = config.movement.joules_per_meter() * m.alpha() *
                       m.transmit_power_w() /
                       (m.charge_cost_w() * min_demand_j);
  return config.bundle_radius +
         std::max({0.0, reach - m.beta(), config.opt.max_displacement_m});
}

bool same_plan(const bc::tour::ChargingPlan& a,
               const bc::tour::ChargingPlan& b) {
  const auto same_point = [](Point2 p, Point2 q) {
    return std::memcmp(&p.x, &q.x, sizeof p.x) == 0 &&
           std::memcmp(&p.y, &q.y, sizeof p.y) == 0;
  };
  if (a.algorithm != b.algorithm || !same_point(a.depot, b.depot) ||
      a.stops.size() != b.stops.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.stops.size(); ++i) {
    if (!same_point(a.stops[i].position, b.stops[i].position) ||
        a.stops[i].members != b.stops[i].members) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
