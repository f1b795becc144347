// The benchmark's metric sets, in output order. BENCHMARK.json lists the
// same names (the self-test compares them).

#ifndef PERFBENCH_METRIC_NAMES_H_
#define PERFBENCH_METRIC_NAMES_H_

#include <ostream>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct MetricName {
  const char* name;
  const char* unit;
  // The value is a function of the seed alone (work counts, plan quality),
  // so it must repeat exactly across runs; timings and load-dependent
  // gauges are not.
  bool repeats = false;
};

const std::vector<MetricName>& end_to_end_metrics();
const std::vector<MetricName>& per_layer_metrics();

// Orders `result.metrics` as the traced or untraced list, filling per-layer
// metrics a workload did not produce with 0 (the layer did no work there).
// False, with a message, when an end-to-end metric is missing or a metric
// is not in the list.
bool complete_metrics(RunResult& result, bool traced, std::ostream& err);

}  // namespace perfbench

#endif  // PERFBENCH_METRIC_NAMES_H_
