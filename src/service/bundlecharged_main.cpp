// bundlecharged — the planning daemon. See src/service/server.h for the
// architecture and DESIGN.md §11 for the wire protocol.
//
//   bundlecharged [--port N] [--workers N] [--queue-capacity N]
//                 [--cache PATH] [--cache-max-entries N]
//                 [--default-deadline-ms N] [--io-timeout-ms N]
//                 [--watchdog-grace N] [--no-watchdog]
//                 [--no-incremental] [--no-batching]
//                 [--max-diff N] [--fallback-ratio-pct N]
//                 [--batch-max-waiters N] [--enable-test-hooks]
//                 [--trace-out PATH] [--metric-graph PATH]
//
// Prints "bundlecharged listening on 127.0.0.1:<port>" once serving (tools
// and tests parse this line to learn an ephemeral port), then runs until
// SIGINT/SIGTERM, which triggers an orderly drain-and-stop.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "service/server.h"
#include "support/cli.h"
#include "support/socket.h"

namespace {

std::atomic<bool> g_stop_requested{false};

void handle_stop_signal(int) { g_stop_requested.store(true); }

}  // namespace

int main(int argc, char** argv) {
  bc::service::ServerOptions options;
  bc::support::CliFlags flags(
      "bundlecharged — the planning daemon (DESIGN.md §11). Prints "
      "\"bundlecharged listening on 127.0.0.1:<port>\" once serving and "
      "runs until SIGINT/SIGTERM.");
  const auto count = [](std::size_t value) {
    return static_cast<std::int64_t>(value);
  };
  flags.define_int("port", options.port, "TCP port (0 = ephemeral)");
  flags.define_int("workers", count(options.workers),
                   "solver threads (= max concurrent solves)");
  flags.define_int("queue-capacity", count(options.queue_capacity),
                   "admission bound on queued requests");
  flags.define_string("cache", options.cache_path,
                      "plan-cache journal path (empty = in-memory only)");
  flags.define_int("cache-max-entries",
                   count(options.cache_limits.max_entries),
                   "max cached plans (0 = unbounded)");
  flags.define_int(
      "default-deadline-ms",
      static_cast<std::int64_t>(options.default_deadline_s * 1000.0),
      "deadline for requests that send none (0 = none)");
  flags.define_int("io-timeout-ms",
                   static_cast<std::int64_t>(options.io_timeout_s * 1000.0),
                   "per-socket read/write timeout");
  flags.define_int("watchdog-grace",
                   static_cast<std::int64_t>(options.watchdog_grace),
                   "kill a solve past this many times its deadline (> 0)");
  flags.define_bool("no-watchdog", false, "disable the hung-solve watchdog");
  flags.define_bool("no-incremental", false,
                    "cold-solve every near-duplicate request");
  flags.define_bool("no-batching", false,
                    "solve identical concurrent requests separately");
  flags.define_int("max-diff", count(options.incremental.max_diff_sensors),
                   "largest sensor diff the incremental engine patches");
  // Integer percent (125 = 1.25x) keeps the flag grammar integral.
  flags.define_int(
      "fallback-ratio-pct",
      static_cast<std::int64_t>(options.incremental.fallback_ratio * 100.0),
      "discard a patched plan above this percent of its base (>= 100)");
  flags.define_int("batch-max-waiters", count(options.batch_max_waiters),
                   "requests that may wait on one in-flight solve");
  flags.define_bool("enable-test-hooks", false,
                    "accept the stall/fault test hooks in requests");
  flags.define_string("trace-out", "",
                      "write a trace journal here on shutdown (empty = off)");
  flags.define_string("metric-graph", options.metric_graph_path,
                      "waypoint graph CSV for a graph-world metric");
  if (!flags.parse(argc, argv, std::cerr)) return 2;
  if (flags.help_requested()) return 0;

  // Every integer flag is a count or a duration, so negatives are
  // rejected along with the per-flag bounds.
  bool in_range = true;
  const auto ranged = [&](const std::string& name, std::int64_t min,
                          std::int64_t max =
                              std::numeric_limits<std::int64_t>::max()) {
    const std::int64_t value = flags.get_int(name);
    if (value < min || value > max) {
      std::cerr << "bundlecharged: --" << name << " must be in [" << min
                << ", " << max << "], got " << value << "\n";
      in_range = false;
    }
    return value;
  };
  options.port = static_cast<std::uint16_t>(ranged("port", 0, 65535));
  options.workers = static_cast<std::size_t>(ranged("workers", 0));
  options.queue_capacity =
      static_cast<std::size_t>(ranged("queue-capacity", 0));
  options.cache_path = flags.get_string("cache");
  options.cache_limits.max_entries =
      static_cast<std::size_t>(ranged("cache-max-entries", 0));
  options.default_deadline_s =
      static_cast<double>(ranged("default-deadline-ms", 0)) / 1000.0;
  options.io_timeout_s =
      static_cast<double>(ranged("io-timeout-ms", 0)) / 1000.0;
  // Zero would kill every deadlined solve; --no-watchdog disables it.
  options.watchdog_grace = static_cast<double>(ranged("watchdog-grace", 1));
  options.enable_watchdog = !flags.get_bool("no-watchdog");
  options.enable_incremental = !flags.get_bool("no-incremental");
  options.enable_batching = !flags.get_bool("no-batching");
  options.incremental.max_diff_sensors =
      static_cast<std::size_t>(ranged("max-diff", 0));
  options.incremental.fallback_ratio =
      static_cast<double>(ranged("fallback-ratio-pct", 100)) / 100.0;
  options.batch_max_waiters =
      static_cast<std::size_t>(ranged("batch-max-waiters", 0));
  options.enable_test_hooks = flags.get_bool("enable-test-hooks");
  options.metric_graph_path = flags.get_string("metric-graph");
  if (!in_range) return 2;
  const std::string trace_path = flags.get_string("trace-out");

  bc::support::ignore_sigpipe();

  // Install the journal before the workers exist and keep it until after
  // stop(): service spans fire from worker threads, and the journal's
  // appends are mutex-protected. Written once on orderly shutdown —
  // tools/trace_summary.py renders the service-layer funnel from it.
  std::optional<bc::obs::TraceJournal> trace_journal;
  std::optional<bc::obs::ScopedTraceJournal> trace_scope;
  if (!trace_path.empty()) {
    trace_journal.emplace();
    trace_scope.emplace(trace_journal.value());
  }

  auto server = bc::service::Server::start(options);
  if (!server.has_value()) {
    std::fprintf(stderr, "bundlecharged: %s\n",
                 server.fault().message.c_str());
    return 1;
  }

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  std::printf("bundlecharged listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.value()->port()));
  std::fflush(stdout);

  while (!g_stop_requested.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("bundlecharged: stopping\n");
  server.value()->stop();

  if (trace_journal.has_value()) {
    trace_scope.reset();  // uninstall before serialising
    auto written = trace_journal->write(trace_path);
    if (!written.has_value()) {
      std::fprintf(stderr, "bundlecharged: trace write failed: %s\n",
                   written.fault().message.c_str());
      return 1;
    }
  }
  return 0;
}
