#include "tour/depots.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "support/require.h"
#include "tour/splice.h"

namespace bc::tour {

namespace {

using geometry::Point2;
using support::Expected;
using support::Fault;
using support::FaultKind;

constexpr double kInf = std::numeric_limits<double>::infinity();

// What every phase reads: the plan's stops, the depots and the cost
// models. Stop ranges are half-open [first, last) over the plan's stops.
struct Splitter {
  const net::Deployment& deployment;
  std::span<const Stop> stops;
  std::span<const Point2> depots;
  const charging::ChargingModel& charging;
  const charging::MovementModel& movement;
  const net::MetricSpace* metric;

  std::span<const Stop> slice(std::size_t first, std::size_t last) const {
    return stops.subspan(first, last - first);
  }

  // Mission time of stops[first, last) out of and back to depot `d`:
  // driving, then each isolated stop time folded in tour order.
  double route_time_s(std::size_t first, std::size_t last,
                      std::size_t d) const {
    double total = movement.move_time_s(
        trip_length_m(slice(first, last), depots[d], depots[d], metric));
    for (std::size_t i = first; i < last; ++i) {
      total += isolated_stop_time_s(deployment, stops[i], charging);
    }
    return total;
  }

  // route_time_s under the best depot; `home` receives that depot.
  double best_route_time_s(std::size_t first, std::size_t last,
                           std::size_t* home = nullptr) const {
    double best = kInf;
    for (std::size_t d = 0; d < depots.size(); ++d) {
      const double t = route_time_s(first, last, d);
      if (t < best) {
        best = t;
        if (home != nullptr) *home = d;
      }
    }
    return best;
  }

  double energy_j(std::size_t first, std::size_t last, std::size_t start,
                  std::size_t end) const {
    return trip_energy_j(deployment, slice(first, last), depots[start],
                         depots[end], charging, movement, metric);
  }

  // Cheapest out-and-back energy for stop `i` over all depots; `depot`
  // receives the winning depot.
  double best_out_and_back_j(std::size_t i,
                             std::size_t* depot = nullptr) const {
    double best = kInf;
    for (std::size_t d = 0; d < depots.size(); ++d) {
      const double e = energy_j(i, i + 1, d, d);
      if (e < best) {
        best = e;
        if (depot != nullptr) *depot = d;
      }
    }
    return best;
  }
};

// Greedy consecutive split: true iff the stops fit into at most `k`
// routes whose best-depot time is <= `deadline`. `ends` receives each
// route's exclusive end.
bool splits_within(const Splitter& s, double deadline, std::size_t k,
                   std::vector<std::size_t>& ends) {
  ends.clear();
  std::size_t first = 0;
  while (first < s.stops.size()) {
    if (ends.size() == k) return false;
    std::size_t last = first + 1;
    if (s.best_route_time_s(first, last) > deadline) {
      return false;  // a single stop alone misses the deadline
    }
    while (last < s.stops.size() &&
           s.best_route_time_s(first, last + 1) <= deadline) {
      ++last;
    }
    ends.push_back(last);
    first = last;
  }
  return true;
}

// Phase 1: cuts the stops into `k` consecutive routes minimising the
// largest best-depot route time. Binary search over the makespan between
// the slowest single-stop route and the whole tour, then a boundary-shift
// pass. Returns k + 1 bounds: route r is stops[bounds[r], bounds[r + 1]).
// Routes left empty are idle chargers.
std::vector<std::size_t> split_minimizing_makespan(const Splitter& s,
                                                   std::size_t k) {
  const std::size_t m = s.stops.size();
  std::vector<std::size_t> bounds{0};
  if (m == 0) {
    bounds.resize(k + 1, 0);
    return bounds;
  }
  double lo = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    lo = std::max(lo, s.best_route_time_s(i, i + 1));
  }
  double hi = s.best_route_time_s(0, m);
  std::vector<std::size_t> best_ends;
  std::vector<std::size_t> ends;
  support::ensure(splits_within(s, hi, k, best_ends),
                  "the whole tour must fit one charger at its own time");
  // One route: no bisection step can succeed below the whole tour's time
  // and there is no boundary to shift.
  if (k == 1) return {0, m};
  for (int iter = 0; iter < 48 && hi - lo > 1e-6 * hi; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (splits_within(s, mid, k, ends)) {
      hi = mid;
      std::swap(best_ends, ends);
    } else {
      lo = mid;
    }
  }
  bounds.insert(bounds.end(), best_ends.begin(), best_ends.end());
  bounds.resize(k + 1, m);

  // Boundary shift: move a boundary stop to the adjacent route when that
  // lowers the larger of the two route times.
  const auto slower = [&](std::size_t a, std::size_t b, std::size_t c) {
    return std::max(s.best_route_time_s(a, b), s.best_route_time_s(b, c));
  };
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t r = 0; r + 1 < k; ++r) {
      const std::size_t a = bounds[r];
      const std::size_t b = bounds[r + 1];
      const std::size_t c = bounds[r + 2];
      if (a == c) continue;
      const double before = slower(a, b, c);
      if (b > a && slower(a, b - 1, c) < before - 1e-9) {
        bounds[r + 1] = b - 1;  // left's tail joins the right route
        improved = true;
      } else if (c > b && slower(a, b + 1, c) < before - 1e-9) {
        bounds[r + 1] = b + 1;  // right's head joins the left route
        improved = true;
      }
    }
  }
  return bounds;
}

// A trip over stops[first, last) between two depots; first == last is a
// deadhead relocation.
struct Leg {
  std::size_t start_depot;
  std::size_t end_depot;
  std::size_t first;
  std::size_t last;
};

// Phase 3 boundary shift over one route's trips, depots held fixed: move
// the head of a trip onto its predecessor's tail, or that tail onto the
// head, when the receiving trip stays within the battery and the pair's
// summed energy drops by more than 1e-9. An emptied trip is dropped only
// when it starts and ends at the same depot; otherwise it stays as a
// deadhead so the depot chain holds.
void shift_trip_boundaries(const Splitter& s, double capacity,
                           std::vector<Leg>& legs) {
  const auto energy = [&](const Leg& leg) {
    return s.energy_j(leg.first, leg.last, leg.start_depot, leg.end_depot);
  };
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t t = 0; t + 1 < legs.size(); ++t) {
      Leg& left = legs[t];
      Leg& right = legs[t + 1];
      const double before = energy(left) + energy(right);
      if (right.first < right.last) {
        Leg new_left = left;
        Leg new_right = right;
        ++new_left.last;
        ++new_right.first;
        const double e_left = energy(new_left);
        const double e_right = energy(new_right);
        if (e_left <= capacity && e_left + e_right < before - 1e-9) {
          left = new_left;
          right = new_right;
          improved = true;
          continue;
        }
      }
      if (left.first < left.last) {
        Leg new_left = left;
        Leg new_right = right;
        --new_left.last;
        --new_right.first;
        const double e_left = energy(new_left);
        const double e_right = energy(new_right);
        if (e_right <= capacity && e_left + e_right < before - 1e-9) {
          left = new_left;
          right = new_right;
          improved = true;
        }
      }
    }
    std::erase_if(legs, [](const Leg& leg) {
      return leg.first == leg.last && leg.start_depot == leg.end_depot;
    });
  }
}

// Phase 3: cuts the route stops[begin, end) homed at `home` into
// battery-feasible trips. Greedy in tour order: grow the current trip
// while SOME end depot keeps it within the battery, then close it at the
// feasible depot whose insertion between the boundary stops detours least
// (cheapest insertion, lowest index on ties). Then shift_trip_boundaries.
Expected<std::vector<Leg>> cut_into_trips(const Splitter& s, std::size_t begin,
                                          std::size_t end, std::size_t home,
                                          double capacity) {
  const auto feasible_with_some_end = [&](std::size_t first, std::size_t last,
                                          std::size_t start) {
    for (std::size_t d = 0; d < s.depots.size(); ++d) {
      if (s.energy_j(first, last, start, d) <= capacity) return true;
    }
    return false;
  };

  std::vector<Leg> legs;
  std::size_t cur = home;
  std::size_t first = begin;
  while (first < end) {
    if (!feasible_with_some_end(first, first + 1, cur)) {
      // The chained start depot is too far for even one stop: deadhead
      // to the stop's best out-and-back depot (feasible by the precheck)
      // and retry. The relocation leg itself must fit the battery, else
      // the depot network is too sparse for this charger.
      std::size_t best_d = 0;
      s.best_out_and_back_j(first, &best_d);
      if (s.energy_j(first, first, cur, best_d) > capacity) {
        return Fault{FaultKind::kBatteryShortfall,
                     "relocating from depot " + std::to_string(cur) +
                         " to depot " + std::to_string(best_d) +
                         " to reach stop " + std::to_string(first) +
                         " exceeds the battery capacity",
                     first};
      }
      legs.push_back(Leg{cur, best_d, first, first});
      cur = best_d;
      continue;
    }
    std::size_t last = first + 1;
    while (last < end && feasible_with_some_end(first, last + 1, cur)) {
      ++last;
    }
    // Close the trip: the depot visit is inserted between stops[last-1]
    // and what follows (the next stop, or home when the route ends).
    const Point2 boundary_prev = s.stops[last - 1].position;
    const Point2 boundary_next =
        last < end ? s.stops[last].position : s.depots[home];
    std::size_t close = 0;
    double best_detour = kInf;
    for (std::size_t d = 0; d < s.depots.size(); ++d) {
      if (s.energy_j(first, last, cur, d) > capacity) continue;
      const double detour = insertion_detour(s.metric, boundary_prev,
                                             boundary_next, s.depots[d]);
      if (detour < best_detour) {
        best_detour = detour;
        close = d;
      }
    }
    support::ensure(best_detour < kInf,
                    "trip growth stopped at a feasible slice");
    legs.push_back(Leg{cur, close, first, last});
    cur = close;
    first = last;
  }
  // The route must end back home; deadhead if the last trip closed at a
  // different depot (battery resets there first).
  if (cur != home) {
    if (s.energy_j(end, end, cur, home) > capacity) {
      return Fault{FaultKind::kBatteryShortfall,
                   "returning home from depot " + std::to_string(cur) +
                       " to depot " + std::to_string(home) +
                       " exceeds the battery capacity",
                   support::kNoStop};
    }
    legs.push_back(Leg{cur, home, end, end});
  }
  shift_trip_boundaries(s, capacity, legs);
  return legs;
}

}  // namespace

double trip_length_m(std::span<const Stop> stops, Point2 start, Point2 end,
                     const net::MetricSpace* metric) {
  double total = 0.0;
  Point2 at = start;
  for (const Stop& stop : stops) {
    total += net::metric_distance(metric, at, stop.position);
    at = stop.position;
  }
  return total + net::metric_distance(metric, at, end);
}

double trip_energy_j(const net::Deployment& deployment,
                     std::span<const Stop> stops, Point2 start, Point2 end,
                     const charging::ChargingModel& charging,
                     const charging::MovementModel& movement,
                     const net::MetricSpace* metric) {
  double charge = 0.0;
  for (const Stop& stop : stops) {
    charge += charging.cost_of_stop_j(
        isolated_stop_time_s(deployment, stop, charging));
  }
  return movement.move_energy_j(trip_length_m(stops, start, end, metric)) +
         charge;
}

Expected<DepotFleetPlan> split_among_depot_fleet(
    const net::Deployment& deployment, const ChargingPlan& plan,
    const charging::ChargingModel& charging,
    const charging::MovementModel& movement,
    const DepotFleetOptions& options) {
  support::require(!options.depots.empty(),
                   "depot fleet needs at least one depot");
  support::require(options.num_chargers >= 1,
                   "depot fleet needs at least one charger");
  support::require(options.battery_capacity_j >= 0.0,
                   "battery capacity must be non-negative (0 = unlimited)");
  const std::span<const Point2> depots(options.depots);
  const net::MetricSpace* metric = options.metric;
  const Splitter s{deployment, plan.stops, depots, charging, movement, metric};
  const double capacity = options.battery_capacity_j;
  const std::vector<std::size_t> bounds =
      split_minimizing_makespan(s, options.num_chargers);

  // Battery precheck: every stop must fit an out-and-back trip from its
  // best depot, else no split can serve it — fault, never strand.
  if (capacity > 0.0) {
    for (std::size_t i = 0; i < plan.stops.size(); ++i) {
      if (s.best_out_and_back_j(i) > capacity) {
        return Fault{FaultKind::kBatteryShortfall,
                     "stop " + std::to_string(i) +
                         " exceeds the battery capacity out-and-back from "
                         "every depot; no trip split can serve it",
                     i};
      }
    }
  }

  DepotFleetPlan fleet;
  fleet.routes.resize(options.num_chargers);
  for (std::size_t r = 0; r < options.num_chargers; ++r) {
    const std::size_t begin = bounds[r];
    const std::size_t end = bounds[r + 1];
    DepotRoute& route = fleet.routes[r];
    // Phase 2: anchor the route at its best ("home") depot.
    s.best_route_time_s(begin, end, &route.home_depot);
    if (begin == end) continue;
    std::vector<Leg> legs{{route.home_depot, route.home_depot, begin, end}};
    if (capacity > 0.0) {
      auto cut = cut_into_trips(s, begin, end, route.home_depot, capacity);
      if (!cut.has_value()) return cut.fault();
      legs = std::move(cut.value());
    }
    for (const Leg& leg : legs) {
      const std::span<const Stop> stops = s.slice(leg.first, leg.last);
      route.trips.push_back(DepotTrip{leg.start_depot, leg.end_depot,
                                      {stops.begin(), stops.end()}});
    }
  }
  return fleet;
}

DepotFleetMetrics evaluate_depot_fleet(
    const net::Deployment& deployment, const DepotFleetPlan& fleet,
    const DepotFleetOptions& options, const charging::ChargingModel& charging,
    const charging::MovementModel& movement) {
  const std::span<const Point2> depots(options.depots);
  const net::MetricSpace* metric = options.metric;
  DepotFleetMetrics m;
  for (const DepotRoute& route : fleet.routes) {
    bool any_stops = false;
    double route_time = 0.0;
    for (const DepotTrip& trip : route.trips) {
      support::require(trip.start_depot < depots.size() &&
                           trip.end_depot < depots.size(),
                       "trip depot index out of range");
      const Point2 start = depots[trip.start_depot];
      const Point2 end = depots[trip.end_depot];
      const double length = trip_length_m(trip.stops, start, end, metric);
      const double energy = trip_energy_j(deployment, trip.stops, start, end,
                                          charging, movement, metric);
      if (trip.stops.empty()) {
        ++m.num_deadhead_trips;
      } else {
        ++m.num_trips;
        any_stops = true;
      }
      // Accumulation order matches the splitter's route time (move time,
      // then stop times folded in one at a time) so the single-depot
      // makespan is bit-identical through the metrics too.
      route_time += movement.move_time_s(length);
      for (const Stop& stop : trip.stops) {
        route_time += isolated_stop_time_s(deployment, stop, charging);
      }
      m.total_tour_length_m += length;
      m.total_energy_j += energy;
      m.max_trip_energy_j = std::max(m.max_trip_energy_j, energy);
    }
    if (any_stops) {
      ++m.num_routes;
      m.route_times_s.push_back(route_time);
      m.makespan_s = std::max(m.makespan_s, route_time);
    }
  }
  return m;
}

std::size_t minimum_fleet_size(const net::Deployment& deployment,
                               const ChargingPlan& plan,
                               const charging::ChargingModel& charging,
                               const charging::MovementModel& movement,
                               std::span<const Point2> depots,
                               double deadline_s,
                               const net::MetricSpace* metric) {
  support::require(!depots.empty(), "fleet sizing needs at least one depot");
  support::require(deadline_s > 0.0, "deadline must be positive");
  const Splitter s{deployment, plan.stops, depots, charging, movement, metric};
  for (std::size_t i = 0; i < plan.stops.size(); ++i) {
    support::require(
        s.best_route_time_s(i, i + 1) <= deadline_s,
        "a single stop alone misses the deadline; no fleet size can help");
  }
  // The greedy split is monotone in k, so the route count of the greedy
  // split with unlimited k is the answer.
  std::vector<std::size_t> ends;
  support::ensure(splits_within(s, deadline_s, plan.stops.size(), ends),
                  "per-stop feasibility implies a feasible split");
  return ends.size();
}

}  // namespace bc::tour
