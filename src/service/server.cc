#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sstream>

#include "core/request_mapping.h"
#include "io/deployment_io.h"
#include "io/graph_io.h"
#include "io/plan_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/evaluate.h"
#include "support/parallel.h"
#include "tour/plan.h"
#include "tour/replan.h"

namespace bc::service {

namespace {

using support::Expected;
using support::Fault;
using support::FaultKind;

HttpResponse json_response(int status, const std::string& reason,
                           std::string body) {
  HttpResponse response;
  response.status = status;
  response.reason = reason;
  response.headers.emplace_back("Content-Type", "application/json");
  response.body = std::move(body);
  return response;
}

HttpResponse error_response(int status, const std::string& reason,
                            std::string_view error, std::string_view detail) {
  std::string body = "{\n  \"error\": ";
  body += obs::json_quote(error);
  body += ",\n  \"detail\": ";
  body += obs::json_quote(detail);
  body += "\n}\n";
  return json_response(status, reason, std::move(body));
}

// Compact stop list for replan responses, which cannot go through
// io::plan_to_json (evaluate_plan requires a full-deployment partition;
// a replan covers only the remaining sensors).
std::string replan_plan_json(const tour::ChargingPlan& plan,
                             const net::MetricSpace* metric) {
  using obs::format_double;
  std::string out = "{\n    \"algorithm\": ";
  out += obs::json_quote(plan.algorithm);
  out += ",\n    \"depot\": [" + format_double(plan.depot.x) + ", " +
         format_double(plan.depot.y) + "],\n    \"tour_length_m\": " +
         format_double(tour::plan_tour_length(plan, metric)) +
         ",\n    \"stops\": [";
  for (std::size_t i = 0; i < plan.stops.size(); ++i) {
    const tour::Stop& stop = plan.stops[i];
    out += i == 0 ? "\n" : ",\n";
    out += "      {\"position\": [" + format_double(stop.position.x) +
           ", " + format_double(stop.position.y) + "], \"members\": [";
    for (std::size_t m = 0; m < stop.members.size(); ++m) {
      if (m != 0) out += ", ";
      out += std::to_string(stop.members[m]);
    }
    out += "]}";
  }
  out += plan.stops.empty() ? "]\n  }" : "\n    ]\n  }";
  return out;
}

}  // namespace

struct Server::Job {
  PlanRequest request;
  bool replan = false;
  // Non-empty on a batch leader: the fingerprint under which waiters are
  // parked in BatchState until this job completes.
  std::string batch_key;
  std::promise<HttpResponse> result;
};

struct Server::BatchState {
  std::mutex mutex;
  // Fingerprint of an in-flight /v1/plan leader -> jobs that coalesced
  // onto it. The leader's worker drains the vector after the leader's
  // response (and cache insert) lands, so every waiter re-runs the normal
  // path as a cache hit — byte-identical to a serial arrival order.
  std::unordered_map<std::string, std::vector<Job>> inflight;
};

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Expected<std::unique_ptr<Server>> Server::start(ServerOptions options) {
  support::ignore_sigpipe();
  if (options.workers == 0) options.workers = 1;
  if (options.queue_capacity == 0) options.queue_capacity = 1;

  auto cache = PlanCache::open(options.cache_path, options.cache_limits);
  if (!cache.has_value()) return cache.fault();

  // Graph world: load the waypoint graph once, salt cache keys with its
  // canonical serialisation so journals cannot leak plans across metric
  // configurations. An unloadable graph is a startup fault, not a
  // degraded mode — serving Euclidean plans for a graph world silently
  // would be worse than refusing to start.
  std::shared_ptr<const net::GraphMetric> metric;
  std::string metric_salt;
  if (!options.metric_graph_path.empty()) {
    auto graph = io::read_waypoint_graph_csv_file(options.metric_graph_path);
    if (!graph.has_value()) return graph.fault();
    std::ostringstream canonical;
    io::write_waypoint_graph_csv(graph.value(), canonical);
    metric_salt = "|metric=graph:" + hash_fingerprint(canonical.str());
    metric = std::make_shared<net::GraphMetric>(std::move(graph.value()));
  }

  auto listener = support::listen_loopback(options.port);
  if (!listener.has_value()) return listener.fault();

  std::unique_ptr<Server> server(new Server(std::move(options)));
  server->metric_ = std::move(metric);
  server->metric_salt_ = std::move(metric_salt);
  server->cache_ = std::make_unique<PlanCache>(std::move(cache.value()));
  server->bases_ = std::make_unique<BaseStore>(server->options_.incremental);
  server->batch_ = std::make_unique<BatchState>();
  server->listener_ = listener.value();
  server->port_ = server->listener_.port;
  server->queue_ =
      std::make_unique<BoundedQueue<Job>>(server->options_.queue_capacity);
  server->watchdog_slots_.resize(server->options_.workers);
  server->watchdog_thread_ = std::thread([raw = server.get()] {
    raw->watchdog_loop();
  });
  for (std::size_t i = 0; i < server->options_.workers; ++i) {
    server->worker_threads_.emplace_back([raw = server.get(), i] {
      raw->worker_loop(i);
    });
  }
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->accept_loop();
  });
  return server;
}

Server::~Server() { stop(); }

void Server::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  // Unblock the accept loop, stop admission, and cut in-flight solves
  // short through their per-request tokens (arm_watchdog pre-cancels any
  // token armed after this point, so there is no race window). Queued
  // jobs still drain. shutdown(2), not close(2), wakes the accept
  // thread: closing the fd from this thread leaves it sleeping in
  // accept(2) forever on Linux. The fd itself is closed only after the
  // join, so the accept thread never races the teardown (or a reused
  // descriptor number).
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    for (WatchdogSlot& slot : watchdog_slots_) {
      if (slot.armed) slot.token.request_cancel();
    }
  }
  support::shutdown_socket(listener_.fd);
  if (accept_thread_.joinable()) accept_thread_.join();
  support::close_fd(listener_.fd);
  listener_.fd = -1;
  queue_->close();
  for (std::thread& worker : worker_threads_) {
    if (worker.joinable()) worker.join();
  }
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  std::unique_lock<std::mutex> lock(handlers_mutex_);
  handlers_idle_.wait(lock, [this] { return active_handlers_ == 0; });
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

support::CancelToken Server::arm_watchdog(std::size_t worker,
                                          double deadline_s) {
  std::lock_guard<std::mutex> lock(watchdog_mutex_);
  WatchdogSlot& slot = watchdog_slots_[worker];
  slot.token = support::CancelToken{};  // fresh shared flag per request
  slot.killed = false;
  slot.armed = true;
  slot.kill_at = std::chrono::steady_clock::time_point::max();
  if (options_.enable_watchdog && deadline_s > 0.0) {
    const double window = std::max(deadline_s * options_.watchdog_grace,
                                   options_.watchdog_min_window_s);
    slot.kill_at = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(window));
    watchdog_cv_.notify_all();  // the monitor recomputes its next wake
  }
  // A request armed during shutdown is cancelled immediately — stop()
  // already swept the slots, so this closes the set-flag/arm race.
  if (stopping_.load(std::memory_order_relaxed)) slot.token.request_cancel();
  return slot.token;
}

bool Server::disarm_watchdog(std::size_t worker) {
  std::lock_guard<std::mutex> lock(watchdog_mutex_);
  WatchdogSlot& slot = watchdog_slots_[worker];
  slot.armed = false;
  return slot.killed;
}

void Server::watchdog_loop() {
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    const auto now = std::chrono::steady_clock::now();
    auto wake = now + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(
                              options_.watchdog_poll_s));
    std::uint64_t kills = 0;
    for (WatchdogSlot& slot : watchdog_slots_) {
      if (!slot.armed || slot.killed) continue;
      if (slot.kill_at <= now) {
        // The solve overran deadline * grace: fire its token. The
        // budget's cancel check turns this into a prompt return; the
        // worker survives and the request becomes a 504.
        slot.token.request_cancel();
        slot.killed = true;
        ++kills;
      } else if (slot.kill_at < wake) {
        wake = slot.kill_at;
      }
    }
    if (kills > 0) {
      lock.unlock();
      static const obs::Counter kill_counter("service.watchdog.kills");
      kill_counter.add(kills);
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        stats_.watchdog_kills += kills;
      }
      lock.lock();
      continue;
    }
    watchdog_cv_.wait_until(lock, wake);
  }
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    auto fd = support::accept_connection(listener_.fd);
    if (!fd.has_value()) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      continue;  // transient accept failure (e.g. ECONNABORTED)
    }
    {
      std::lock_guard<std::mutex> lock(handlers_mutex_);
      ++active_handlers_;
    }
    std::thread([this, connection = fd.value()] {
      handle_connection(connection);
      std::lock_guard<std::mutex> lock(handlers_mutex_);
      if (--active_handlers_ == 0) handlers_idle_.notify_all();
    }).detach();
  }
}

void Server::handle_connection(int fd) {
  support::set_io_timeout(fd, options_.io_timeout_s);
  auto request = read_http_request(fd, options_.limits);
  HttpResponse response;
  if (!request.has_value()) {
    response = error_response(400, "Bad Request", "malformed_request",
                              request.fault().message);
  } else {
    response = process_request(request.value());
  }
  if (cache_degraded()) {
    // Every response advertises the degraded persistence mode: plans are
    // still served (and solved) normally, but cache inserts are not
    // reaching disk until the journal heals.
    response.headers.emplace_back("X-BC-Cache-Degraded", "journal");
  }
  support::write_all(fd, serialize_response(response));
  support::close_fd(fd);
}

HttpResponse Server::process_request(const HttpRequest& http) {
  if (http.method == "GET" && http.path == "/healthz") {
    return json_response(200, "OK", "{\n  \"status\": \"ok\"\n}\n");
  }
  if (http.method == "GET" && http.path == "/statsz") {
    return stats_response();
  }
  const bool replan = http.path == "/v1/replan";
  if (http.method != "POST" || (!replan && http.path != "/v1/plan")) {
    return error_response(404, "Not Found", "unknown_route",
                          http.method + " " + http.path);
  }

  auto parsed = parse_plan_request(http.body, options_.limits);
  if (!parsed.has_value()) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.failed;
    return error_response(400, "Bad Request", "invalid_request",
                          parsed.fault().message);
  }
  if (parsed.value().stall_ms > 0.0 && !options_.enable_test_hooks) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.failed;
    return error_response(400, "Bad Request", "invalid_request",
                          "stall_ms requires --enable-test-hooks");
  }

  // Admission control: a full queue sheds *now* with advisory backoff —
  // the one response a saturated server can still afford to send.
  Job job;
  job.request = std::move(parsed.value());
  job.replan = replan;
  std::future<HttpResponse> result = job.result.get_future();

  // Cross-request batching: a /v1/plan whose fingerprint is already being
  // solved parks as a waiter on the in-flight leader instead of taking a
  // queue slot; the leader's worker serves it from the fresh cache entry
  // once the leader completes. stall_ms requests are excluded — the chaos
  // tests rely on each of them occupying a worker. Waiters count toward
  // accepted/coalesced only when served (or shed, if their leader sheds).
  std::string batch_key;
  bool leads = false;
  if (options_.enable_batching && !replan && job.request.stall_ms <= 0.0) {
    batch_key = request_key(job.request);
    bool parked = false;
    {
      std::lock_guard<std::mutex> lock(batch_->mutex);
      auto it = batch_->inflight.find(batch_key);
      if (it != batch_->inflight.end()) {
        if (it->second.size() < options_.batch_max_waiters) {
          it->second.push_back(std::move(job));
          parked = true;
        }
        // A full waiter list falls through to the queue as an ordinary
        // request (it will be a cache hit by the time a worker gets it).
      } else {
        job.batch_key = batch_key;
        batch_->inflight.emplace(batch_key, std::vector<Job>{});
        leads = true;
      }
    }
    if (parked) return result.get();
  }

  if (!queue_->try_push(std::move(job))) {
    // A shed leader sheds its waiters: nobody is coming to drain them.
    std::vector<Job> orphans;
    if (leads) {
      std::lock_guard<std::mutex> lock(batch_->mutex);
      auto it = batch_->inflight.find(batch_key);
      if (it != batch_->inflight.end()) {
        orphans = std::move(it->second);
        batch_->inflight.erase(it);
      }
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.shed += 1 + orphans.size();
    }
    const long retry_after_s = static_cast<long>(
        (options_.retry_after_ms + 999.0) / 1000.0);
    HttpResponse response = error_response(
        503, "Service Unavailable", "overloaded",
        "queue full; retry after " +
            std::to_string(static_cast<long>(options_.retry_after_ms)) +
            " ms");
    response.headers.emplace_back("Retry-After",
                                  std::to_string(retry_after_s));
    for (Job& orphan : orphans) {
      orphan.result.set_value(response);
    }
    return response;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.accepted;
  }
  return result.get();
}

void Server::worker_loop(std::size_t worker) {
  while (true) {
    std::optional<Job> job = queue_->pop();
    if (!job.has_value()) return;
    finish_job(*job, worker);
    if (job->batch_key.empty()) continue;
    // The leader's response (and, on success, its cache insert) landed:
    // drain the waiters that coalesced onto it. Each re-runs the normal
    // path — a cache hit now — so its response is byte-identical to the
    // one a serial arrival after the leader would have received.
    std::vector<Job> waiters;
    {
      std::lock_guard<std::mutex> lock(batch_->mutex);
      auto it = batch_->inflight.find(job->batch_key);
      if (it != batch_->inflight.end()) {
        waiters = std::move(it->second);
        batch_->inflight.erase(it);
      }
    }
    for (Job& waiter : waiters) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.accepted;
        ++stats_.coalesced;
      }
      finish_job(waiter, worker);
    }
  }
}

void Server::finish_job(Job& job, std::size_t worker) {
  HttpResponse response = process_plan(job.request, job.replan, worker);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (response.status == 200) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
    }
  }
  job.result.set_value(std::move(response));
}

HttpResponse Server::process_plan(const PlanRequest& request, bool replan,
                                  std::size_t worker) {
  const double deadline_s = request.deadline_ms > 0.0
                                ? request.deadline_ms / 1000.0
                                : options_.default_deadline_s;
  // Arm before any work — including the stall_ms test hook, which is
  // exactly the kind of wedged solve the watchdog exists to kill.
  const support::CancelToken cancel = arm_watchdog(worker, deadline_s);
  if (request.stall_ms > 0.0) {
    // Test hook (gated at admission): deterministic worker occupancy for
    // the overload and watchdog chaos tests.
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(request.stall_ms));
  }
  HttpResponse response = solve_plan(request, replan, deadline_s, cancel);
  if (disarm_watchdog(worker)) {
    return error_response(
        504, "Gateway Timeout", "watchdog_timeout",
        "request overran its deadline by more than the grace factor (" +
            std::to_string(options_.watchdog_grace) +
            "x) and was cancelled by the watchdog");
  }
  return response;
}

std::string Server::request_key(const PlanRequest& request) const {
  // The metric salt is empty for Euclidean servers, so pre-metric cache
  // files keep their exact keys.
  return hash_fingerprint(canonical_fingerprint(request) + metric_salt_);
}

HttpResponse Server::solve_plan(const PlanRequest& request, bool replan,
                                double deadline_s,
                                const support::CancelToken& cancel) {
  auto resolved = core::resolve_plan_request(request.profile,
                                             request.algorithm,
                                             request.radius_m, deadline_s);
  if (!resolved.has_value()) {
    return error_response(400, "Bad Request", "invalid_request",
                          resolved.fault().message);
  }
  core::Profile& profile = resolved.value().profile;
  const tour::Algorithm algorithm = resolved.value().algorithm;
  // The per-request token: fired by the watchdog past the grace window
  // and by stop() at shutdown; the anytime contract turns either into a
  // fast degraded/budget-exhausted return instead of a wedged worker.
  profile.planner.budget.cancel = cancel;
  if (metric_ != nullptr) {
    // Graph world: planners and the evaluator judge tour legs under the
    // same metric, so response tour lengths match what the plan optimised.
    profile.planner.metric = metric_;
    profile.evaluation.metric = metric_.get();
  }

  for (const net::SensorId id : request.remaining) {
    if (id >= request.positions.size()) {
      return error_response(400, "Bad Request", "invalid_request",
                            "remaining: sensor id " + std::to_string(id) +
                                " out of range");
    }
  }

  net::Deployment deployment = io::deployment_from_positions(
      request.positions, request.depot, request.demand_j);

  // Per-request isolation: a fresh registry installed for this thread
  // only, with solver parallel sections forced inline so every metric this
  // request records lands in — and only in — its own registry. This is
  // what makes concurrent snapshots identical to serial ones.
  obs::MetricsRegistry request_metrics;
  obs::ScopedThreadMetrics scoped_metrics(request_metrics);
  support::ScopedInlineExecution inline_execution;
  // The inline scope flags this thread as a worker, which by default
  // suppresses spans; opt back in so a daemon run under --trace-out
  // journals its service.* spans (the request runs serially here).
  obs::ScopedWorkerTracing worker_tracing;
  support::BudgetMeter meter(profile.planner.budget);

  std::string body = "{\n  \"mode\": \"";
  body += replan ? "replan" : "plan";
  body += "\",\n  \"algorithm\": ";
  body += obs::json_quote(tour::to_string(algorithm));
  body += ",\n";

  if (replan) {
    obs::TraceSpan replan_span("service.replan");
    tour::ReplanRequest replan_request;
    replan_request.current_position = request.current;
    replan_request.remaining = request.remaining;
    replan_request.deficits_j = request.deficits_j;
    if (replan_request.remaining.empty()) {
      // Empty `remaining` = everything still owed at full demand.
      replan_request.remaining.reserve(request.positions.size());
      replan_request.deficits_j.assign(request.positions.size(),
                                       request.demand_j);
      for (std::size_t i = 0; i < request.positions.size(); ++i) {
        replan_request.remaining.push_back(static_cast<net::SensorId>(i));
      }
    }
    RetryOutcome outcome;
    auto result = with_retry(
        options_.retry, &meter,
        [&] {
          return tour::replan_tour(deployment, replan_request,
                                   profile.planner, tour::ReplanOptions{},
                                   &meter);
        },
        &outcome);
    if (outcome.attempts > 1) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.retry_attempts +=
          static_cast<std::uint64_t>(outcome.attempts - 1);
    }
    if (!result.has_value()) {
      const Fault& fault = result.fault();
      if (fault.kind == FaultKind::kInvalidInput) {
        return error_response(400, "Bad Request", "invalid_request",
                              fault.message);
      }
      if (fault.kind == FaultKind::kBudgetExhausted) {
        return error_response(504, "Gateway Timeout", "deadline_exceeded",
                              fault.message);
      }
      return error_response(
          500, "Internal Server Error", "replan_failed",
          std::string(support::to_string(fault.kind)) + ": " + fault.message +
              " (after " + std::to_string(outcome.attempts) + " attempts)");
    }
    const bool degraded = meter.exhausted();
    if (degraded) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.degraded;
    }
    body += "  \"degraded\": ";
    body += degraded ? "true" : "false";
    body += ",\n  \"attempts\": " + std::to_string(outcome.attempts);
    body += ",\n  \"plan\": " +
            replan_plan_json(result.value(), profile.planner.metric.get());
  } else {
    obs::TraceSpan plan_span("service.plan");
    const std::string key = request_key(request);
    tour::ChargingPlan plan;
    bool cached = false;
    bool degraded = false;
    bool incremental = false;
    {
      obs::TraceSpan cache_span("service.cache.lookup");
      std::lock_guard<std::mutex> lock(cache_mutex_);
      if (const std::string* payload = cache_->lookup(key)) {
        auto decoded = decode_plan(*payload);
        // An undecodable payload cannot happen through this code path
        // (records are CRC-checked); treat it as a miss out of caution.
        if (decoded.has_value()) {
          plan = std::move(decoded.value());
          cached = true;
        }
      }
      cache_span.attr("hit", cached);
    }
    if (cached) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.cache_hits;
    } else {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.cache_misses;
      }
      // Incremental fast path: a miss whose deployment is within a small,
      // local diff of a remembered cold solve is repaired instead of
      // re-solved. The sketch cell tracks the patch radius, so two
      // deployments that could share bundles share cells.
      std::vector<std::uint64_t> sketch;
      if (options_.enable_incremental) {
        const double cell =
            std::max(options_.incremental.patch_radius_factor *
                         profile.planner.bundle_radius,
                     1e-6);
        sketch = position_sketch(request.positions, cell,
                                 options_.incremental.sketch_hashes);
        BaseEntry base;
        bool have_base = false;
        {
          std::lock_guard<std::mutex> lock(bases_mutex_);
          if (const BaseEntry* found = bases_->nearest(request, sketch)) {
            base = *found;
            have_base = true;
          }
        }
        if (have_base) {
          {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.incremental_attempts;
          }
          PatchResult patch = patch_plan(deployment, request, base, profile,
                                         options_.incremental, nullptr);
          if (patch.verdict == PatchVerdict::kPatched) {
            plan = std::move(patch.plan);
            incremental = true;
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.incremental_hits;
          } else {
            {
              std::lock_guard<std::mutex> lock(stats_mutex_);
              ++stats_.incremental_fallbacks;
            }
            // Discard the attempt's metrics: whether a near base existed
            // depends on request arrival order, so the cold solve below
            // must snapshot identically either way.
            request_metrics.reset();
          }
        }
      }
      if (!incremental) {
        plan = tour::plan_charging_tour(deployment, algorithm,
                                        profile.planner, &meter);
        degraded = meter.exhausted();
        if (degraded) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.degraded;
        }
      }
      if (!incremental && !degraded) {
        // Only deterministic results are cacheable: a degraded plan
        // depends on wall-clock timing, and caching it would break the
        // cache-hit == cold-solve bit-identity guarantee.
        Expected<bool> flushed = true;
        {
          std::lock_guard<std::mutex> lock(cache_mutex_);
          cache_->put(key, encode_plan(plan));
          // Journal every insert (O(new entries): fsynced append, with
          // self-healing compaction underneath). A failing journal —
          // disk full, dead disk — must never take the daemon down:
          // the entry stays in memory, the flush is retried on the next
          // insert, and the daemon flags itself cache-degraded until a
          // retry lands.
          flushed = cache_->flush();
        }
        if (!flushed.has_value()) {
          const bool entered = !cache_degraded_.exchange(
              true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.cache_flush_failures;
          if (entered) ++stats_.degraded_mode_entries;
        } else if (cache_degraded_.exchange(false,
                                            std::memory_order_relaxed)) {
          // A flush landed again: the journal healed itself (pending
          // entries were retried through a compacting rewrite).
          static const obs::Counter recoveries(
              "service.plan_cache.fault_recoveries");
          recoveries.add(1);
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.fault_recoveries;
        }
        if (options_.enable_incremental) {
          // Only cold solves become diff bases — never patched plans, so
          // repair error cannot compound across a drifting stream. The
          // objective anchors the fallback guard for future patches.
          BaseEntry entry;
          entry.key = key;
          entry.request = request;
          entry.plan = plan;
          entry.objective_j =
              sim::evaluate_plan(deployment, plan, profile.evaluation)
                  .total_energy_j;
          entry.radius_m = profile.planner.bundle_radius;
          entry.sketch = std::move(sketch);
          std::lock_guard<std::mutex> lock(bases_mutex_);
          bases_->insert(std::move(entry));
        }
      }
    }
    plan_span.attr("cached", cached)
        .attr("incremental", incremental)
        .attr("degraded", degraded);
    body += "  \"cached\": ";
    body += cached ? "true" : "false";
    body += ",\n  \"incremental\": ";
    body += incremental ? "true" : "false";
    body += ",\n  \"degraded\": ";
    body += degraded ? "true" : "false";
    body += ",\n  \"cache_key\": \"" + key + "\"";
    body += ",\n  \"plan\": " +
            io::plan_to_json(deployment, plan, profile.evaluation);
  }

  body += ",\n  \"metrics\": " + request_metrics.snapshot().to_json("  ");
  body += "\n}\n";
  return json_response(200, "OK", std::move(body));
}

HttpResponse Server::stats_response() const {
  const ServerStats snapshot = stats();
  const std::size_t queue_depth = queue_->size();
  const std::size_t queue_depth_peak = queue_->peak();
  std::size_t base_entries = 0;
  {
    std::lock_guard<std::mutex> lock(bases_mutex_);
    base_entries = bases_->size();
  }
  std::size_t cache_entries = 0;
  std::uint64_t cache_compactions = 0;
  std::uint64_t cache_evictions = 0;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    cache_entries = cache_->size();
    cache_compactions = cache_->compactions();
    cache_evictions = cache_->evictions();
  }
  std::string body = "{\n";
  const auto field = [&body](std::string_view name, std::uint64_t value,
                             bool last = false) {
    body += "  \"";
    body += name;
    body += "\": " + std::to_string(value) + (last ? "\n" : ",\n");
  };
  field("accepted", snapshot.accepted);
  field("shed", snapshot.shed);
  field("completed", snapshot.completed);
  field("failed", snapshot.failed);
  field("degraded", snapshot.degraded);
  field("cache_hits", snapshot.cache_hits);
  field("cache_misses", snapshot.cache_misses);
  field("incremental_attempts", snapshot.incremental_attempts);
  field("incremental_hits", snapshot.incremental_hits);
  field("incremental_fallbacks", snapshot.incremental_fallbacks);
  field("coalesced", snapshot.coalesced);
  field("retry_attempts", snapshot.retry_attempts);
  field("watchdog_kills", snapshot.watchdog_kills);
  field("cache_flush_failures", snapshot.cache_flush_failures);
  field("degraded_mode_entries", snapshot.degraded_mode_entries);
  field("fault_recoveries", snapshot.fault_recoveries);
  field("cache_degraded", cache_degraded() ? 1 : 0);
  field("cache_compactions", cache_compactions);
  field("cache_evictions", cache_evictions);
  field("queue_depth", queue_depth);
  field("queue_depth_peak", queue_depth_peak);
  field("cache_entries", cache_entries);
  field("base_entries", base_entries);
  field("workers", options_.workers);
  field("queue_capacity", options_.queue_capacity, /*last=*/true);
  body += "}\n";
  return json_response(200, "OK", std::move(body));
}

}  // namespace bc::service
