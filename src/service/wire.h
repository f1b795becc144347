// Wire protocol of the bundlecharged planning daemon.
//
// Hand-rolled HTTP/1.1 over localhost — no third-party networking or JSON
// dependency. The subset is deliberately small and strict: one request per
// connection, Content-Length bodies only (no chunked encoding), bounded
// header and body sizes, and every malformed byte mapped to a structured
// fault instead of undefined parser state. Requests are treated as hostile
// input; responses are generated, never parsed back by the server.
//
// Plan request bodies use a line-oriented `key=value` form (schema in
// DESIGN.md §11) rather than JSON: it is trivially canonicalisable for
// cache fingerprinting and keeps the hardened-parsing surface small.
// Responses are JSON, embedding io::plan_to_json documents unchanged.

#ifndef BUNDLECHARGE_SERVICE_WIRE_H_
#define BUNDLECHARGE_SERVICE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "net/sensor.h"
#include "support/expected.h"

namespace bc::service {

// Parser bounds. A localhost planning service still reads untrusted
// bytes: a runaway header block or a multi-gigabyte body must fail fast
// instead of buffering without bound.
struct WireLimits {
  std::size_t max_header_bytes = 64 * 1024;
  std::size_t max_body_bytes = 8 * 1024 * 1024;
  std::size_t max_positions = 200000;
};

struct HttpRequest {
  std::string method;
  std::string path;
  // Header names lower-cased at parse time; values trimmed.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  // First value for `name` (already lower-case), or "" when absent.
  std::string_view header(std::string_view name) const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  // First value for `name` (lower-case after parsing), or "" when absent.
  std::string_view header(std::string_view name) const;
};

// Reads one HTTP request from `fd` (EINTR-safe, bounded by the socket's
// receive timeout and `limits`). Faults are kInvalidInput: torn/oversized
// header block, missing/invalid Content-Length on bodied methods,
// unsupported Transfer-Encoding, EOF mid-body.
support::Expected<HttpRequest> read_http_request(int fd,
                                                 const WireLimits& limits);

// Serialises a response with Content-Length and Connection: close
// appended (one request per connection keeps lifetime reasoning trivial).
std::string serialize_response(const HttpResponse& response);

// Client-side helpers (tests, the throughput bench, tools).
std::string serialize_request(const std::string& method,
                              const std::string& path,
                              const std::string& body);
support::Expected<HttpResponse> read_http_response(int fd,
                                                   const WireLimits& limits);

// --- Plan request schema ---------------------------------------------------

// What arrives in a POST /v1/plan or /v1/replan body. The endpoint picks
// the mode; the body carries the same `key=value` lines for both, with the
// replan-only keys ignored by /v1/plan. See DESIGN.md §11 for the schema.
struct PlanRequest {
  std::string profile;    // "" = icdcs2019
  std::string algorithm;  // "" = BC
  double radius_m = 0.0;  // <= 0 = profile default
  double deadline_ms = 0.0;  // <= 0 = server default (possibly none)
  double demand_j = 2.0;
  geometry::Point2 depot{0.0, 0.0};
  std::vector<geometry::Point2> positions;

  // Replan-only: where the charger currently is, and which sensors are
  // still owed energy (ids into `positions`, strictly ascending, with
  // positive deficits). Empty `remaining` means every sensor at full
  // demand.
  geometry::Point2 current{0.0, 0.0};
  std::vector<net::SensorId> remaining;
  std::vector<double> deficits_j;

  // Test hook: the worker sleeps this long before solving. Only honoured
  // when the server runs with enable_test_hooks (chaos tests use it to
  // make overload scenarios deterministic); rejected otherwise.
  double stall_ms = 0.0;
};

// Parses a request body. Hardened: unknown keys, duplicate keys,
// non-finite or out-of-range numbers, malformed coordinate pairs,
// unsorted/duplicate remaining ids, and position counts beyond
// `limits.max_positions` are all kInvalidInput faults naming the key.
support::Expected<PlanRequest> parse_plan_request(std::string_view body,
                                                  const WireLimits& limits);

// Canonical fingerprint of everything that affects a /v1/plan result:
// profile, algorithm, radius, demand, depot, and every position, all
// doubles rendered as C99 hexfloats (bit-exact). Two requests with equal
// fingerprints are guaranteed to produce byte-identical plans (planning
// is deterministic), which is what makes the plan cache sound.
std::string canonical_fingerprint(const PlanRequest& request);

}  // namespace bc::service

#endif  // BUNDLECHARGE_SERVICE_WIRE_H_
