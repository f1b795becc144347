#include "tour/anneal.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "geometry/minidisk.h"
#include "support/require.h"
#include "support/rng.h"

namespace bc::tour {

namespace {

using geometry::Point2;

// Mutable annealing state with cached per-stop charge costs.
struct State {
  const net::Deployment* deployment = nullptr;
  const charging::ChargingModel* charging = nullptr;
  const charging::MovementModel* movement = nullptr;
  const net::MetricSpace* metric = nullptr;
  ChargingPlan plan;
  std::vector<double> stop_cost_j;  // charge cost per stop

  double charge_cost(const Stop& stop) const {
    return charging->cost_of_stop_j(
        isolated_stop_time_s(*deployment, stop, *charging));
  }

  void rebuild_costs() {
    stop_cost_j.clear();
    for (const Stop& stop : plan.stops) {
      stop_cost_j.push_back(charge_cost(stop));
    }
  }

  double energy() const {
    double total = movement->move_energy_j(plan_tour_length(plan, metric));
    for (const double c : stop_cost_j) total += c;
    return total;
  }
};

Point2 sed_center(const net::Deployment& deployment,
                  const std::vector<net::SensorId>& members) {
  std::vector<Point2> pts;
  pts.reserve(members.size());
  for (const net::SensorId id : members) {
    pts.push_back(deployment.sensor(id).position);
  }
  return geometry::smallest_enclosing_disk(pts).center;
}

}  // namespace

double plan_energy_j(const net::Deployment& deployment,
                     const ChargingPlan& plan,
                     const charging::ChargingModel& charging,
                     const charging::MovementModel& movement,
                     const net::MetricSpace* metric) {
  double total = movement.move_energy_j(plan_tour_length(plan, metric));
  for (const Stop& stop : plan.stops) {
    total += charging.cost_of_stop_j(
        isolated_stop_time_s(deployment, stop, charging));
  }
  return total;
}

AnnealResult anneal_plan(const net::Deployment& deployment,
                         const ChargingPlan& initial,
                         const charging::ChargingModel& charging,
                         const charging::MovementModel& movement,
                         const AnnealOptions& options,
                         support::BudgetMeter* meter) {
  support::require(plan_is_partition(deployment, initial),
                   "anneal needs a partition plan");
  support::require(options.cooling > 0.0 && options.cooling <= 1.0,
                   "cooling factor must be in (0, 1]");

  State state;
  state.deployment = &deployment;
  state.charging = &charging;
  state.movement = &movement;
  state.metric = options.metric;
  state.plan = initial;
  state.rebuild_costs();

  AnnealResult result;
  result.initial_energy_j = state.energy();
  result.plan = initial;
  result.best_energy_j = result.initial_energy_j;

  if (state.plan.stops.empty()) return result;

  support::Rng rng(options.seed);
  double current_energy = result.initial_energy_j;
  double temperature =
      options.initial_temperature_fraction * result.initial_energy_j;
  double jitter = options.jitter_m;
  const std::size_t cool_every = std::max<std::size_t>(
      1, options.iterations / 100);

  const auto accept = [&](double delta) {
    if (delta <= 0.0) return true;
    if (temperature <= 0.0) return false;
    return rng.uniform() < std::exp(-delta / temperature);
  };

  for (std::size_t iter = 0; iter < options.iterations; ++iter) {
    // Anytime: `result` always holds the best plan seen, so a budget trip
    // ends the walk and returns it.
    if (meter != nullptr && !meter->charge()) break;
    if (iter % cool_every == cool_every - 1) {
      temperature *= options.cooling;
      jitter = std::max(0.5, jitter * options.cooling);
    }
    const std::size_t n = state.plan.stops.size();
    const auto move_kind = rng.below(n > 1 ? 5 : 2);
    switch (move_kind) {
      case 0: {  // move a stop position: random jitter or directed pull
        const std::size_t i = rng.below(n);
        Stop& stop = state.plan.stops[i];
        const Point2 old_pos = stop.position;
        const double old_cost = state.stop_cost_j[i];
        const double before = current_energy;
        if (rng.chance(0.5)) {
          stop.position =
              old_pos + Point2{rng.gaussian(0.0, jitter),
                               rng.gaussian(0.0, jitter)};
        } else {
          // Directed proposal: pull toward the chord between the tour
          // neighbours — the direction BC-OPT's Theorem-4 move exploits.
          const Point2 prev =
              i == 0 ? state.plan.depot : state.plan.stops[i - 1].position;
          const Point2 next = i + 1 == n ? state.plan.depot
                                         : state.plan.stops[i + 1].position;
          stop.position =
              geometry::lerp(old_pos, geometry::midpoint(prev, next),
                             rng.uniform(0.05, 0.6));
        }
        state.stop_cost_j[i] = state.charge_cost(stop);
        const double after = state.energy();
        if (!accept(after - before)) {
          stop.position = old_pos;
          state.stop_cost_j[i] = old_cost;
        } else {
          current_energy = after;
          ++result.accepted_moves;
        }
        break;
      }
      case 1: {  // snap a stop back to its members' SED centre
        const std::size_t i = rng.below(n);
        Stop& stop = state.plan.stops[i];
        const Point2 old_pos = stop.position;
        const double old_cost = state.stop_cost_j[i];
        const double before = current_energy;
        stop.position = sed_center(deployment, stop.members);
        state.stop_cost_j[i] = state.charge_cost(stop);
        const double after = state.energy();
        if (!accept(after - before)) {
          stop.position = old_pos;
          state.stop_cost_j[i] = old_cost;
        } else {
          current_energy = after;
          ++result.accepted_moves;
        }
        break;
      }
      case 2: {  // reassign one sensor to another stop
        const std::size_t from = rng.below(n);
        std::size_t to = rng.below(n);
        if (to == from || state.plan.stops[from].members.size() <= 1) break;
        auto& src = state.plan.stops[from].members;
        const std::size_t pick = rng.below(src.size());
        const net::SensorId sensor = src[pick];
        const double before = current_energy;
        const double old_from_cost = state.stop_cost_j[from];
        const double old_to_cost = state.stop_cost_j[to];
        src.erase(src.begin() + static_cast<std::ptrdiff_t>(pick));
        state.plan.stops[to].members.push_back(sensor);
        state.stop_cost_j[from] = state.charge_cost(state.plan.stops[from]);
        state.stop_cost_j[to] = state.charge_cost(state.plan.stops[to]);
        const double after = state.energy();
        if (!accept(after - before)) {
          state.plan.stops[to].members.pop_back();
          src.insert(src.begin() + static_cast<std::ptrdiff_t>(pick),
                     sensor);
          state.stop_cost_j[from] = old_from_cost;
          state.stop_cost_j[to] = old_to_cost;
        } else {
          current_energy = after;
          ++result.accepted_moves;
        }
        break;
      }
      case 3: {  // 2-opt: reverse a segment of the visit order
        const std::size_t i = rng.below(n);
        const std::size_t j = rng.below(n);
        const std::size_t lo = std::min(i, j);
        const std::size_t hi = std::max(i, j);
        if (hi - lo < 1) break;
        const double before = current_energy;
        std::reverse(state.plan.stops.begin() +
                         static_cast<std::ptrdiff_t>(lo),
                     state.plan.stops.begin() +
                         static_cast<std::ptrdiff_t>(hi) + 1);
        std::reverse(state.stop_cost_j.begin() +
                         static_cast<std::ptrdiff_t>(lo),
                     state.stop_cost_j.begin() +
                         static_cast<std::ptrdiff_t>(hi) + 1);
        const double after = state.energy();
        if (!accept(after - before)) {
          std::reverse(state.plan.stops.begin() +
                           static_cast<std::ptrdiff_t>(lo),
                       state.plan.stops.begin() +
                           static_cast<std::ptrdiff_t>(hi) + 1);
          std::reverse(state.stop_cost_j.begin() +
                           static_cast<std::ptrdiff_t>(lo),
                       state.stop_cost_j.begin() +
                           static_cast<std::ptrdiff_t>(hi) + 1);
        } else {
          current_energy = after;
          ++result.accepted_moves;
        }
        break;
      }
      default: {  // merge a singleton stop into the nearest other stop
        const std::size_t i = rng.below(n);
        if (state.plan.stops[i].members.size() != 1) break;
        std::size_t nearest = n;
        double best_d = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          if (k == i) continue;
          // metric-exempt: nearest-stop merge *proposal*; acceptance is
          // judged on the metric's energy objective.
          const double d = geometry::distance(
              state.plan.stops[i].position, state.plan.stops[k].position);
          if (nearest == n || d < best_d) {
            nearest = k;
            best_d = d;
          }
        }
        if (nearest == n) break;
        // Tentatively apply: remove stop i, push its sensor to `nearest`.
        State backup = state;  // simple & safe: this move is rare
        state.plan.stops[nearest].members.push_back(
            state.plan.stops[i].members[0]);
        state.plan.stops.erase(state.plan.stops.begin() +
                               static_cast<std::ptrdiff_t>(i));
        state.stop_cost_j.erase(state.stop_cost_j.begin() +
                                static_cast<std::ptrdiff_t>(i));
        const std::size_t target = nearest > i ? nearest - 1 : nearest;
        state.stop_cost_j[target] =
            state.charge_cost(state.plan.stops[target]);
        const double after = state.energy();
        if (!accept(after - current_energy)) {
          state = std::move(backup);
        } else {
          current_energy = after;
          ++result.accepted_moves;
        }
        break;
      }
    }

    if (current_energy < result.best_energy_j - 1e-9) {
      result.best_energy_j = current_energy;
      result.plan = state.plan;
    }
  }

  support::ensure(plan_is_partition(deployment, result.plan),
                  "anneal must preserve the sensor partition");
  support::ensure(result.best_energy_j <= result.initial_energy_j + 1e-6,
                  "anneal must never return a worse plan");
  return result;
}

}  // namespace bc::tour
