// service: an open loop against an in-process bundlecharged on loopback.
//
// Requests follow a seeded Poisson schedule at a fixed rate and are sent
// by a few sender threads, each holding one connection at a time (the
// daemon answers one request per connection). Latency runs from the
// request's due time, so a stalled daemon or a late generator shows up in
// every later request; how late the generator ran is reported, and a run
// whose generator fell behind is invalid.
//
// Every deployment ("site") has its own depot, so the daemon's
// incremental path can only pair an `incr` body with the base it was
// derived from.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <set>
#include <thread>
#include <unistd.h>

#include "core/request_mapping.h"
#include "io/deployment_io.h"
#include "io/plan_io.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/incremental.h"
#include "service/plan_cache.h"
#include "service/server.h"
#include "service/wire.h"
#include "sim/schedule.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

enum class Kind { kHit, kIncr, kCold, kReplan };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kHit:
      return "hit";
    case Kind::kIncr:
      return "incr";
    case Kind::kCold:
      return "cold";
    case Kind::kReplan:
      return "replan";
  }
  return "?";
}

struct Body {
  std::string text;
  std::vector<bc::geometry::Point2> positions;
  bc::geometry::Point2 depot;
};

struct Request {
  double due_s = 0.0;
  Kind kind = Kind::kHit;
  std::size_t body = 0;  // index into the body list of its kind
};

struct Outcome {
  int status = 0;
  double latency_ms = 0.0;
  double late_ms = 0.0;
  std::string body;  // kept for cold and incr audits
  std::string error;
};

std::string fmt2(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

// Positions are emitted with two decimals; the benchmark keeps the values
// the daemon will parse, so its own audit sees the same deployment.
double centi(double v) { return std::round(v * 100.0) / 100.0; }

std::string plan_text(const Body& b, double radius) {
  std::string out = "algorithm=BC\nradius=" + fmt2(radius) + "\ndepot=" +
                    fmt2(b.depot.x) + "," + fmt2(b.depot.y) + "\npositions=";
  for (std::size_t i = 0; i < b.positions.size(); ++i) {
    if (i != 0) out += ";";
    out += fmt2(b.positions[i].x) + "," + fmt2(b.positions[i].y);
  }
  return out + "\n";
}

class BodyFactory {
 public:
  BodyFactory(const ServiceSpec& spec, std::uint64_t seed)
      : spec_(spec), rng_(seed), side_(paper_field_side_m(spec.sensors)) {}

  // A fresh site: uniform sensors at paper density and a depot no other
  // site shares.
  Body site() {
    Body b;
    do {
      b.depot = {centi(rng_.uniform(0.0, side_)),
                 centi(rng_.uniform(0.0, side_))};
    } while (!depots_.insert({b.depot.x, b.depot.y}).second);
    b.positions.reserve(spec_.sensors);
    for (std::size_t i = 0; i < spec_.sensors; ++i) {
      b.positions.push_back(
          {centi(rng_.uniform(0.0, side_)), centi(rng_.uniform(0.0, side_))});
    }
    b.text = plan_text(b, spec_.radius_m);
    return b;
  }

  // `base` with K distinct sensors moved by up to 10 m each.
  Body near(const Body& base) {
    Body b = base;
    std::set<std::size_t> moved;
    while (moved.size() < spec_.incr_moves) {
      moved.insert(rng_.below(b.positions.size()));
    }
    for (const std::size_t id : moved) {
      bc::geometry::Point2& p = b.positions[id];
      p = {centi(std::clamp(p.x + rng_.uniform(-10.0, 10.0), 0.0, side_)),
           centi(std::clamp(p.y + rng_.uniform(-10.0, 10.0), 0.0, side_))};
    }
    b.text = plan_text(b, spec_.radius_m);
    return b;
  }

  // A mid-tour replan: the charger at a random point, a third of the
  // sensors still owed part of their demand.
  Body replan(const Body& base) {
    Body b = base;
    b.text += "current=" + fmt2(centi(rng_.uniform(0.0, side_))) + "," +
              fmt2(centi(rng_.uniform(0.0, side_))) + "\nremaining=";
    bool first = true;
    for (std::size_t i = 0; i < b.positions.size(); ++i) {
      if (rng_.below(3) != 0) continue;
      if (!first) b.text += ";";
      first = false;
      b.text += std::to_string(i) + ":" + fmt2(0.5 + rng_.uniform(0.0, 1.5));
    }
    b.text += "\n";
    return b;
  }

  bc::support::Rng& rng() { return rng_; }

 private:
  const ServiceSpec& spec_;
  bc::support::Rng rng_;
  double side_;
  std::set<std::pair<double, double>> depots_;
};

// Syntax check of a JSON document (the daemon's response bodies).
class JsonCheck {
 public:
  explicit JsonCheck(const std::string& s) : s_(s) {}
  bool ok() {
    ws();
    if (!value(0)) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool lit(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (s_.compare(i_, n, word) != 0) return false;
    i_ += n;
    return true;
  }
  bool str() {
    if (s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') {
        ++i_;
      } else if (s_[i_] == '"') {
        ++i_;
        return true;
      }
    }
    return false;
  }
  bool num() {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            std::strchr("+-.eE", s_[i_]) != nullptr)) {
      ++i_;
    }
    if (i_ == start) return false;
    char* end = nullptr;
    const std::string token = s_.substr(start, i_ - start);
    std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }
  bool value(int depth) {
    if (depth > 64 || i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i_;
      ws();
      if (i_ < s_.size() && s_[i_] == close) {
        ++i_;
        return true;
      }
      for (;;) {
        if (c == '{') {
          if (!str()) return false;
          ws();
          if (i_ >= s_.size() || s_[i_] != ':') return false;
          ++i_;
          ws();
        }
        if (!value(depth + 1)) return false;
        ws();
        if (i_ >= s_.size()) return false;
        if (s_[i_] == ',') {
          ++i_;
          ws();
          continue;
        }
        if (s_[i_] != close) return false;
        ++i_;
        return true;
      }
    }
    if (c == '"') return str();
    if (lit("true") || lit("false") || lit("null")) return true;
    return num();
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// The "plan" member of a /v1/plan response body.
std::optional<std::string> plan_member(const std::string& body) {
  const std::string open = "\"plan\": ";
  const std::string close = ",\n  \"metrics\": ";
  const std::size_t a = body.find(open);
  const std::size_t b = body.rfind(close);
  if (a == std::string::npos || b == std::string::npos || b < a) {
    return std::nullopt;
  }
  return body.substr(a + open.size(), b - a - open.size());
}

std::uint64_t statsz_field(std::uint16_t port, const std::string& name) {
  auto response = bc::service::http_roundtrip(port, "GET", "/statsz", "");
  if (!response.has_value() || response.value().status != 200) return 0;
  const std::string needle = "\"" + name + "\": ";
  const std::size_t at = response.value().body.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(response.value().body.c_str() + at + needle.size(),
                       nullptr, 10);
}

bc::net::Deployment deployment_of(const Body& b) {
  return bc::io::deployment_from_positions(b.positions, b.depot, 2.0);
}

// All the bodies and the schedule a run sends, built from the seed.
struct Workload {
  std::vector<Body> hits, bases, colds, incrs, replans;
  // Incr body i derives from base_of(w, incr_base[i]).
  std::vector<std::size_t> incr_base;
  std::vector<Request> schedule;
};

// Bases an incr body may derive from: the pre-warmed ones, then the cold
// bodies in schedule order. Incr request i picks the base `incr_bases`
// positions behind the newest cold body, so its base was sent several
// cold requests earlier (solved by now) and stays among the daemon's 64
// most recent cold solves.
const Body& base_of(const Workload& w, std::size_t index) {
  return index < w.bases.size() ? w.bases[index]
                                : w.colds[index - w.bases.size()];
}

Workload make_workload(const ServiceSpec& spec, const RunOptions& options) {
  BodyFactory f(spec, options.seed * 0x2545f4914f6cdd1dULL + 11);
  Workload w;
  for (std::size_t i = 0; i < spec.hit_bodies; ++i) w.hits.push_back(f.site());
  for (std::size_t i = 0; i < spec.incr_bases; ++i) w.bases.push_back(f.site());
  for (std::size_t i = 0; i < spec.replan_bodies; ++i) {
    w.replans.push_back(f.replan(f.site()));
  }
  bc::support::Rng& rng = f.rng();
  // rate x seconds requests with exponential gaps, the mix in exact
  // shares shuffled into a seeded order: a fixed count per class, so the
  // request set (and energy_mj) depends on the seed alone.
  const auto count = static_cast<std::size_t>(
      std::ceil(spec.rate_per_s * options.seconds));
  std::vector<Kind> kinds(count, Kind::kHit);
  const auto share = [count](double fraction) {
    return static_cast<std::size_t>(std::llround(fraction * count));
  };
  std::fill_n(kinds.begin(), share(0.15), Kind::kIncr);
  std::fill_n(kinds.begin() + share(0.15), share(0.15), Kind::kCold);
  std::fill_n(kinds.begin() + share(0.30), share(0.10), Kind::kReplan);
  rng.shuffle(kinds.begin(), kinds.end());
  double t = 0.0;
  std::size_t colds = 0;
  for (std::size_t k = 0; k < count; ++k) {
    t += -std::log(1.0 - rng.uniform()) / spec.rate_per_s;
    Request r;
    r.due_s = t;
    r.kind = kinds[k];
    if (r.kind == Kind::kHit) {
      r.body = rng.below(w.hits.size());
    } else if (r.kind == Kind::kIncr) {
      r.body = w.incrs.size();
      w.incr_base.push_back(colds);
      w.incrs.push_back(f.near(base_of(w, colds)));
    } else if (r.kind == Kind::kCold) {
      r.body = w.colds.size();
      w.colds.push_back(f.site());
      ++colds;
    } else {
      r.body = rng.below(w.replans.size());
    }
    w.schedule.push_back(r);
  }
  return w;
}

const Body& body_of(const Workload& w, const Request& r) {
  switch (r.kind) {
    case Kind::kHit:
      return w.hits[r.body];
    case Kind::kIncr:
      return w.incrs[r.body];
    case Kind::kCold:
      return w.colds[r.body];
    case Kind::kReplan:
      return w.replans[r.body];
  }
  return w.hits[r.body];
}

std::string roundtrip(std::uint16_t port, const std::string& path,
                      const std::string& body, int* status) {
  auto response = bc::service::http_roundtrip(port, "POST", path, body, 30.0);
  if (!response.has_value()) {
    *status = 0;
    return response.fault().message;
  }
  *status = response.value().status;
  return std::move(response.value().body);
}

struct Live {
  std::unique_ptr<bc::service::Server> server;
  std::string dir;
  std::vector<std::string> hit_reference;  // first cache-hit body per hit
};

// Fresh daemon with its journal in a new directory, the hit bodies warmed
// (cold solve, then the first hit, whose bytes every later hit must
// repeat) and the incr bases solved.
std::optional<Live> start_daemon(const Workload& w, const RunOptions& options,
                                 std::size_t attempt, RunResult& result) {
  Live live;
  live.dir = options.work_dir + "/service_" + std::to_string(::getpid()) +
             "_" + std::to_string(attempt);
  std::filesystem::remove_all(live.dir);
  std::filesystem::create_directories(live.dir);
  bc::service::ServerOptions server_options;
  server_options.cache_path = live.dir + "/plan_cache.journal";
  auto started = bc::service::Server::start(server_options);
  if (!started.has_value()) {
    result.fail("daemon start: " + started.fault().message, true);
    return std::nullopt;
  }
  live.server = std::move(started.value());
  const std::uint16_t port = live.server->port();
  int status = 0;
  for (const Body& b : w.hits) {
    roundtrip(port, "/v1/plan", b.text, &status);
    std::string hit = roundtrip(port, "/v1/plan", b.text, &status);
    if (status != 200 || !JsonCheck(hit).ok()) {
      result.fail("warming a hit body: status " + std::to_string(status), true);
      return std::nullopt;
    }
    live.hit_reference.push_back(std::move(hit));
  }
  for (const Body& b : w.bases) {
    roundtrip(port, "/v1/plan", b.text, &status);
    if (status != 200) {
      result.fail("warming an incr base: status " + std::to_string(status),
                  true);
      return std::nullopt;
    }
  }
  return live;
}

void stop_daemon(Live& live) {
  if (live.server) live.server->stop();
  live.server.reset();
  std::error_code ignored;
  std::filesystem::remove_all(live.dir, ignored);
}

// Sends the schedule open-loop; fills one outcome per request.
std::vector<Outcome> run_open_loop(const ServiceSpec& spec, const Workload& w,
                                   const Live& live) {
  std::vector<Outcome> out(w.schedule.size());
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t senders =
      std::max<std::size_t>(1, std::min(spec.senders, hw));
  std::atomic<std::size_t> next{0};
  const std::uint16_t port = live.server->port();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto sender = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= w.schedule.size()) return;
      const Request& r = w.schedule[i];
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(r.due_s));
      std::this_thread::sleep_until(due);
      Outcome& o = out[i];
      o.late_ms = std::max(0.0, ms_between(due, Clock::now()));
      std::string body = roundtrip(
          port, r.kind == Kind::kReplan ? "/v1/replan" : "/v1/plan",
          body_of(w, r).text, &o.status);
      o.latency_ms = ms_between(due, Clock::now());
      if (o.status != 200) {
        o.error = "status " + std::to_string(o.status) + ": " +
                  body.substr(0, 200);
      } else if (r.kind == Kind::kHit) {
        if (body != live.hit_reference[r.body]) {
          o.error = "hit body differs from the first hit for that body";
        }
      } else if (!JsonCheck(body).ok()) {
        o.error = "response body is not valid JSON";
      } else if (r.kind == Kind::kIncr &&
                 body.find("\"incremental\": true") == std::string::npos) {
        o.error = "incr answer did not take the incremental path";
      } else if (r.kind != Kind::kReplan) {
        o.body = std::move(body);
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < senders; ++s) threads.emplace_back(sender);
  for (std::thread& t : threads) t.join();
  return out;
}

// Times the service-layer library calls on the run's own bodies.
void time_service_layers(const ServiceSpec& spec, const Workload& w,
                         const RunOptions& options, RunResult& result) {
  auto resolved = bc::core::resolve_plan_request("", "BC", spec.radius_m, 0.0);
  const bc::core::Profile& profile = resolved.value().profile;
  const bc::service::WireLimits limits;
  std::vector<double> parse_ms, fingerprint_ms, decode_ms, patch_ms,
      flush_ms, json_ms, evaluate_ms, plain_ms, root_ms;
  double covered_ms = 0.0;

  std::vector<const Body*> all;
  for (const auto* list : {&w.hits, &w.colds, &w.incrs}) {
    for (const Body& b : *list) all.push_back(&b);
  }
  for (const Body* b : all) {
    Clock::time_point t0 = Clock::now();
    auto req = bc::service::parse_plan_request(b->text, limits);
    parse_ms.push_back(ms_between(t0, Clock::now()));
    if (!req.has_value()) {
      result.fail("own body does not parse: " + req.fault().message);
      continue;
    }
    t0 = Clock::now();
    const std::string key = bc::service::hash_fingerprint(
        bc::service::canonical_fingerprint(req.value()));
    fingerprint_ms.push_back(ms_between(t0, Clock::now()));
  }

  // Layer replay of the first cold solves, then encode/decode, plan JSON,
  // evaluation and a journaled cache put on their plans.
  const std::string dir = options.work_dir + "/service_layers_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    auto cache = bc::service::PlanCache::open(dir + "/cache.journal");
    Recorder rec;
    LayerTimes layers;
    bc::obs::MetricsRegistry counts;
    PlanTotals totals;
    const std::size_t replays = std::min(spec.traced_replays, w.colds.size());
    for (std::size_t i = 0; i < replays; ++i) {
      const Body& b = w.colds[i];
      const bc::net::Deployment dep = deployment_of(b);
      Clock::time_point t0 = Clock::now();
      const bc::tour::ChargingPlan reference = bc::tour::plan_charging_tour(
          dep, bc::tour::Algorithm::kBc, profile.planner);
      plain_ms.push_back(ms_between(t0, Clock::now()));
      const std::size_t root = rec.spans().size();
      bc::tour::ChargingPlan replayed;
      {
        bc::obs::ScopedMetricsRegistry scope(counts);
        replayed = replay_plan(dep, bc::tour::Algorithm::kBc, profile.planner,
                               &rec, i + 1);
      }
      layers.add(rec, root);
      root_ms.push_back(rec.spans()[root].ms());
      covered_ms += rec.children_ms(root);
      if (!same_plan(replayed, reference)) {
        result.fail("service replay differs from plan_charging_tour", true);
      }
      t0 = Clock::now();
      const std::string payload = bc::service::encode_plan(reference);
      auto decoded = bc::service::decode_plan(payload);
      decode_ms.push_back(ms_between(t0, Clock::now()));
      if (!decoded.has_value() || !same_plan(decoded.value(), reference)) {
        result.fail("decode_plan(encode_plan(plan)) is not the plan");
      }
      t0 = Clock::now();
      const std::string json =
          bc::io::plan_to_json(dep, reference, profile.evaluation);
      json_ms.push_back(ms_between(t0, Clock::now()));
      t0 = Clock::now();
      const bc::sim::PlanMetrics m =
          bc::sim::evaluate_plan(dep, reference, profile.evaluation);
      evaluate_ms.push_back(ms_between(t0, Clock::now()));
      totals.stops += reference.stops.size();
      totals.stop_lower_bound += stop_lower_bound(dep, spec.radius_m);
      totals.tour_m += m.tour_length_m;
      if (cache.has_value()) {
        t0 = Clock::now();
        cache.value().put("k" + std::to_string(i), payload);
        const auto flushed = cache.value().flush();
        flush_ms.push_back(ms_between(t0, Clock::now()));
        if (!flushed.has_value()) result.fail("plan cache flush failed");
      }
    }
    if (!cache.has_value()) result.fail("plan cache open failed");
    add_layer_metrics(layers, counts.snapshot(), totals, result);
    const std::string path =
        options.work_dir + "/trace_" + spec.name + ".jsonl";
    if (!rec.write_jsonl(path)) result.fail("cannot write " + path, true);
  }
  std::filesystem::remove_all(dir);

  // patch_plan against the pre-warmed bases, as the daemon's fast path
  // runs it.
  const bc::service::IncrementalOptions incremental;
  for (std::size_t i = 0; i < w.incrs.size(); ++i) {
    if (w.incr_base[i] >= w.bases.size()) continue;
    const Body& base_body = w.bases[w.incr_base[i]];
    auto base_req = bc::service::parse_plan_request(base_body.text, limits);
    auto req = bc::service::parse_plan_request(w.incrs[i].text, limits);
    if (!base_req.has_value() || !req.has_value()) continue;
    const bc::net::Deployment base_dep = deployment_of(base_body);
    bc::service::BaseEntry base;
    base.request = base_req.value();
    base.key = bc::service::hash_fingerprint(
        bc::service::canonical_fingerprint(base.request));
    base.plan = bc::tour::plan_charging_tour(base_dep, bc::tour::Algorithm::kBc,
                                             profile.planner);
    base.objective_j =
        bc::sim::evaluate_plan(base_dep, base.plan, profile.evaluation)
            .total_energy_j;
    base.radius_m = spec.radius_m;
    base.sketch = bc::service::position_sketch(
        base.request.positions,
        incremental.patch_radius_factor * spec.radius_m,
        incremental.sketch_hashes);
    const bc::net::Deployment dep = deployment_of(w.incrs[i]);
    const Clock::time_point t0 = Clock::now();
    const bc::service::PatchResult patch = bc::service::patch_plan(
        dep, req.value(), base, profile, incremental);
    patch_ms.push_back(ms_between(t0, Clock::now()));
    if (patch.verdict != bc::service::PatchVerdict::kPatched) {
      result.fail(std::string("patch_plan verdict ") +
                  std::string(bc::service::to_string(patch.verdict)));
    }
  }

  result.add("service.parse_ms", median(parse_ms), "ms");
  result.add("service.fingerprint_ms", median(fingerprint_ms), "ms");
  result.add("service.decode_ms", median(decode_ms), "ms");
  result.add("service.patch_ms", median(patch_ms), "ms");
  result.add("service.cache_flush_ms", median(flush_ms), "ms");
  result.add("io.plan_json_ms", median(json_ms), "ms");
  result.add("sim.evaluate_ms", median(evaluate_ms), "ms");
  double root_total = 0.0;
  for (const double ms : root_ms) root_total += ms;
  result.add("trace.plan_ms", median(root_ms), "ms");
  result.add("trace.overhead_pct",
             plain_ms.empty() ? 0.0
                              : 100.0 * (median(root_ms) - median(plain_ms)) /
                                    median(plain_ms),
             "%");
  result.add("trace.coverage_pct",
             root_total > 0.0 ? 100.0 * covered_ms / root_total : 0.0, "%");
}

// Plan documents print coordinates with six significant digits, so an
// emitted stop sits up to half a millimetre from the planned one.
constexpr double kEmittedSlackM = 0.01;

}  // namespace

std::optional<double> audit_plan_response(
    const bc::net::Deployment& deployment, const std::string& body,
    const bc::sim::EvaluationConfig& evaluation, double range_m,
    std::string* why) {
  const std::optional<std::string> plan = plan_member(body);
  if (!plan) {
    *why = "no plan member in the response";
    return std::nullopt;
  }
  auto loaded = bc::io::read_plan_json(*plan, deployment.size());
  if (!loaded.has_value()) {
    *why = "plan does not parse: " + loaded.fault().message;
    return std::nullopt;
  }
  const bc::tour::ChargingPlan& emitted = loaded.value().plan;
  const Audit audit =
      audit_plan(deployment, emitted, evaluation, range_m + kEmittedSlackM);
  if (!audit.ok) {
    *why = audit.why;
    return std::nullopt;
  }
  const std::vector<double> received = bc::sim::received_energy_j(
      deployment, emitted, evaluation.charging, loaded.value().stop_times_s);
  for (const bc::net::Sensor& s : deployment.sensors()) {
    if (received[s.id] < s.demand_j * (1.0 - 1e-4)) {
      *why = "the emitted schedule leaves sensor " + std::to_string(s.id) +
             " short of its demand";
      return std::nullopt;
    }
  }
  return audit.metrics.total_energy_j;
}

ServiceSpec service_spec() { return ServiceSpec{}; }

RunResult run_service(const ServiceSpec& spec, const RunOptions& options) {
  RunResult result;
  const Workload w = make_workload(spec, options);
  if (w.schedule.empty()) {
    result.fail("the schedule is empty; raise --seconds", true);
    return result;
  }

  // Set-up: daemon start plus warming the hit and incr bases, repeated;
  // the last daemon serves the run.
  std::optional<Live> live;
  std::size_t attempt = 0;
  const double setup_s = median_setup_s(spec.setups, [&] {
    if (live) stop_daemon(*live);
    live = start_daemon(w, options, attempt++, result);
  });
  if (!live) return result;

  const bc::service::ServerStats before = live->server->stats();
  const std::vector<Outcome> outcomes = run_open_loop(spec, w, *live);
  const bc::service::ServerStats after = live->server->stats();
  const std::uint64_t queue_peak =
      statsz_field(live->server->port(), "queue_depth_peak");

  // Checks, then the energy of every cold and incr answer recomputed from
  // the emitted plan.
  const bc::core::Profile profile =
      bc::core::resolve_plan_request("", "BC", spec.radius_m, 0.0)
          .value()
          .profile;
  std::vector<double> latency[4], all_latency, late;
  double energy_j = 0.0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Request& r = w.schedule[i];
    const Outcome& o = outcomes[i];
    ++result.attempted;
    latency[static_cast<int>(r.kind)].push_back(o.latency_ms);
    all_latency.push_back(o.latency_ms);
    late.push_back(o.late_ms);
    std::string why = o.error;
    if (why.empty() && (r.kind == Kind::kCold || r.kind == Kind::kIncr)) {
      const std::optional<double> e = audit_plan_response(
          deployment_of(body_of(w, r)), o.body, profile.evaluation,
          profile.planner.bundle_radius, &why);
      if (e) energy_j += *e;
    }
    if (!why.empty()) {
      result.fail(std::string(kind_name(r.kind)) + " request " +
                  std::to_string(i) + ": " + why);
    }
  }

  // Determinism: the daemon's first cold answers must carry exactly the
  // plan document the library produces for the same deployment.
  for (std::size_t i = 0, checked = 0; i < outcomes.size() && checked < 4;
       ++i) {
    const Request& r = w.schedule[i];
    if (r.kind != Kind::kCold || outcomes[i].body.empty()) continue;
    ++checked;
    const bc::net::Deployment dep = deployment_of(body_of(w, r));
    const std::string local = bc::io::plan_to_json(
        dep,
        bc::tour::plan_charging_tour(dep, bc::tour::Algorithm::kBc,
                                     profile.planner),
        profile.evaluation);
    if (plan_member(outcomes[i].body) != local) {
      result.fail("cold answer differs from the library's plan "
                  "(determinism contract)",
                  /*fatal=*/true);
    }
  }

  // Bursts that keep every sender busy make single requests late, and that
  // wait is in their latency already. A generator that fell behind shows
  // as a lasting backlog: some tenth of the schedule goes out late as a
  // rule, so its median lateness is high.
  const double late_p99 = quantile(late, 0.99);
  double worst_tenth = 0.0;
  for (std::size_t d = 0; d < 10; ++d) {
    const std::vector<double> tenth(
        late.begin() + static_cast<std::ptrdiff_t>(d * late.size() / 10),
        late.begin() + static_cast<std::ptrdiff_t>((d + 1) * late.size() / 10));
    if (!tenth.empty()) worst_tenth = std::max(worst_tenth, median(tenth));
  }
  if (worst_tenth > spec.max_late_ms) {
    result.fail("generator fell behind its schedule (median lateness " +
                    std::to_string(worst_tenth) +
                    " ms over a tenth of the run); run is invalid",
                /*fatal=*/true);
  }
  std::cerr << "perfbench: service sent " << outcomes.size() << " requests ("
            << latency[0].size() << " hit, " << latency[1].size() << " incr, "
            << latency[2].size() << " cold, " << latency[3].size()
            << " replan), generator late p50/p90/p99/max "
            << quantile(late, 0.5)
            << "/" << quantile(late, 0.9) << "/" << late_p99 << "/"
            << quantile(late, 1.0) << " ms\n";

  if (options.trace) {
    result.add("service.cache_hits",
               static_cast<double>(after.cache_hits - before.cache_hits),
               "count");
    result.add("service.cache_misses",
               static_cast<double>(after.cache_misses - before.cache_misses),
               "count");
    result.add("service.incremental_hits",
               static_cast<double>(after.incremental_hits -
                                   before.incremental_hits),
               "count");
    result.add("service.incremental_fallbacks",
               static_cast<double>(after.incremental_fallbacks -
                                   before.incremental_fallbacks),
               "count");
    result.add("service.coalesced",
               static_cast<double>(after.coalesced - before.coalesced),
               "count");
    result.add("service.shed", static_cast<double>(after.shed - before.shed),
               "count");
    result.add("service.queue_depth_peak", static_cast<double>(queue_peak),
               "count");
    result.add("service.req_p99_ms", quantile(all_latency, 0.99), "ms");
    result.add("gen.late_p99_ms", late_p99, "ms");
    stop_daemon(*live);
    time_service_layers(spec, w, options, result);
  } else {
    result.add("plan_ms", median(latency[static_cast<int>(Kind::kCold)]), "ms");
    result.add("hit_p50_ms", median(latency[static_cast<int>(Kind::kHit)]),
               "ms");
    result.add("incr_p50_ms", median(latency[static_cast<int>(Kind::kIncr)]),
               "ms");
    result.add("replan_p50_ms",
               median(latency[static_cast<int>(Kind::kReplan)]), "ms");
    result.add("energy_mj", energy_j / 1e6, "MJ");
    result.add("setup_s", setup_s, "s");
    result.add("peak_rss_mib", peak_rss_mib(), "MiB");
    stop_daemon(*live);
  }
  return result;
}

}  // namespace perfbench
