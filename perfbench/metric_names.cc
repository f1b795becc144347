#include "metric_names.h"

#include <set>

namespace perfbench {

const std::vector<MetricName>& end_to_end_metrics() {
  static const std::vector<MetricName> names = {
      {"plan_ms", "ms"},      {"hit_p50_ms", "ms"},    {"incr_p50_ms", "ms"},
      {"replan_p50_ms", "ms"}, {"energy_mj", "MJ", true},    {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
  };
  return names;
}

const std::vector<MetricName>& per_layer_metrics() {
  static const std::vector<MetricName> names = {
      {"bundle.candidates_ms", "ms"},
      {"bundle.cover_ms", "ms"},
      {"bundle.tiles_ms", "ms"},
      {"bundle.stitch_ms", "ms"},
      {"bundle.candidates", "count", true},
      {"bundle.dominated_pruned", "count", true},
      {"bundle.stops", "count", true},
      {"bundle.stops_over_lb", "ratio", true},
      {"tsp.order_ms", "ms"},
      {"tsp.construct_ms", "ms"},
      {"tsp.two_opt_ms", "ms"},
      {"tsp.or_opt_ms", "ms"},
      {"tsp.two_opt.moves", "count", true},
      {"tsp.or_opt.moves", "count", true},
      {"tsp.tour_km", "km", true},
      {"tour.relocate_ms", "ms"},
      {"tour.anchors_moved", "count", true},
      {"anchor.calls", "count", true},
      {"anchor.bisection_iters", "count", true},
      {"net.distance_calls", "count", true},
      {"net.distance_ms", "ms"},
      {"net.row_misses", "count", true},
      {"net.point_misses", "count", true},
      {"net.row_hit_ratio", "ratio", true},
      {"sim.evaluate_ms", "ms"},
      {"io.plan_json_ms", "ms"},
      {"service.parse_ms", "ms"},
      {"service.fingerprint_ms", "ms"},
      {"service.decode_ms", "ms"},
      {"service.patch_ms", "ms"},
      {"service.cache_flush_ms", "ms"},
      {"service.cache_hits", "count", true},
      {"service.cache_misses", "count", true},
      {"service.incremental_hits", "count", true},
      {"service.incremental_fallbacks", "count", true},
      {"service.coalesced", "count"},
      {"service.shed", "count"},
      {"service.queue_depth_peak", "count"},
      {"service.req_p99_ms", "ms"},
      {"gen.late_p99_ms", "ms"},
      {"trace.plan_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.coverage_pct", "%"},
  };
  return names;
}

bool complete_metrics(RunResult& result, bool traced, std::ostream& err) {
  const std::vector<MetricName>& names =
      traced ? per_layer_metrics() : end_to_end_metrics();
  std::set<std::string> listed;
  for (const MetricName& m : names) listed.insert(m.name);
  bool ok = true;
  for (const Metric& m : result.metrics) {
    if (listed.count(m.name) == 0) {
      err << "perfbench: workload produced unlisted metric " << m.name << "\n";
      ok = false;
    }
  }
  std::vector<Metric> ordered;
  for (const MetricName& m : names) {
    if (const Metric* found = result.find(m.name)) {
      ordered.push_back(*found);
    } else if (traced) {
      ordered.push_back(Metric{m.name, 0.0, m.unit});
    } else {
      err << "perfbench: workload did not produce " << m.name << "\n";
      ok = false;
    }
  }
  result.metrics = std::move(ordered);
  return ok;
}

}  // namespace perfbench
