// perfbench: runs one workload and prints its result as the last
// line of standard output.
//
//   perfbench --workload paper|city|walls|service --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (BENCHMARK.json lists both). A layer that does no work on a workload
// reports 0. Exit code 2 on bad arguments, 1 when a workload produced an
// unexpected metric set; otherwise 0, with any failed check reported in
// the result's "correct" and "failed" fields.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "metric_names.h"
#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload paper|city|walls|service "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end == text.c_str() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage("malformed argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : args) {
    static const std::set<std::string> known = {"workload", "seed", "seconds",
                                                "trace", "work-dir"};
    if (known.count(key) == 0) return usage("unknown flag --" + key);
  }
  perfbench::RunOptions options;
  std::uint64_t seconds = 0;
  if (!parse_u64(args["seed"], options.seed)) return usage("bad --seed");
  if (!parse_u64(args["seconds"], seconds) || seconds == 0 || seconds > 600) {
    return usage("--seconds must be 1..600");
  }
  options.seconds = static_cast<double>(seconds);
  if (args["trace"] != "0" && args["trace"] != "1") {
    return usage("--trace must be 0 or 1");
  }
  options.trace = args["trace"] == "1";
  options.work_dir = args.count("work-dir") ? args["work-dir"] : ".";
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return usage("cannot create --work-dir " + options.work_dir);

  const std::string workload = args["workload"];
  perfbench::RunResult result;
  if (workload == "paper") {
    result = perfbench::run_library(perfbench::paper_spec(), options);
  } else if (workload == "city") {
    result = perfbench::run_library(perfbench::city_spec(), options);
  } else if (workload == "walls") {
    result = perfbench::run_library(perfbench::walls_spec(), options);
  } else if (workload == "service") {
    result = perfbench::run_service(perfbench::service_spec(), options);
  } else {
    return usage("unknown --workload '" + workload + "'");
  }
  if (!perfbench::complete_metrics(result, options.trace, std::cerr)) {
    return 1;
  }
  std::cout << result.to_json() << std::endl;
  return 0;
}
