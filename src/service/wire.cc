#include "service/wire.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "support/socket.h"

namespace bc::service {

namespace {

using support::Expected;
using support::Fault;
using support::FaultKind;

Fault wire_fault(std::string message) {
  return Fault{FaultKind::kInvalidInput, std::move(message)};
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

// Reads from `fd` until the header terminator appears, then exactly the
// declared body. Shared by the request and response readers.
struct HeadBody {
  std::string head;  // up to and excluding "\r\n\r\n"
  std::string rest;  // bytes read past the terminator (body prefix)
};

Expected<HeadBody> read_head(int fd, const WireLimits& limits) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const std::size_t terminator = buffer.find("\r\n\r\n");
    if (terminator != std::string::npos) {
      HeadBody out;
      out.head = buffer.substr(0, terminator);
      out.rest = buffer.substr(terminator + 4);
      return out;
    }
    if (buffer.size() > limits.max_header_bytes) {
      return wire_fault("header block exceeds " +
                        std::to_string(limits.max_header_bytes) + " bytes");
    }
    auto got = support::read_some(fd, chunk, sizeof(chunk));
    if (!got.has_value()) return got.fault();
    if (got.value() == 0) {
      return wire_fault("connection closed before the header block ended");
    }
    buffer.append(chunk, got.value());
  }
}

Expected<bool> read_body(int fd, std::size_t content_length,
                         std::string& body) {
  char chunk[1 << 14];
  while (body.size() < content_length) {
    const std::size_t want =
        std::min(sizeof(chunk), content_length - body.size());
    auto got = support::read_some(fd, chunk, want);
    if (!got.has_value()) return got.fault();
    if (got.value() == 0) {
      return wire_fault("connection closed mid-body (" +
                        std::to_string(body.size()) + " of " +
                        std::to_string(content_length) + " bytes)");
    }
    body.append(chunk, got.value());
  }
  return true;
}

// Parses "Name: value" header lines (already split off the start line).
Expected<std::vector<std::pair<std::string, std::string>>> parse_headers(
    std::string_view block) {
  std::vector<std::pair<std::string, std::string>> headers;
  std::size_t at = 0;
  while (at < block.size()) {
    std::size_t eol = block.find("\r\n", at);
    if (eol == std::string_view::npos) eol = block.size();
    const std::string_view line = block.substr(at, eol - at);
    at = eol + (eol < block.size() ? 2 : 0);
    if (line.empty()) continue;
    if (line.front() == ' ' || line.front() == '\t') {
      return wire_fault("folded headers are not supported");
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return wire_fault("malformed header line (no colon)");
    }
    headers.emplace_back(to_lower(trim(line.substr(0, colon))),
                         std::string(trim(line.substr(colon + 1))));
  }
  return headers;
}

Expected<std::size_t> parse_content_length(std::string_view value) {
  if (value.empty() || value.size() > 12 ||
      !std::all_of(value.begin(), value.end(),
                   [](unsigned char c) { return std::isdigit(c); })) {
    return wire_fault("invalid Content-Length '" + std::string(value) + "'");
  }
  return static_cast<std::size_t>(std::strtoull(
      std::string(value).c_str(), nullptr, 10));
}

std::string_view find_header(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return {};
}

// Strict full-token finite double parse; "1e999" (overflow to Inf) and
// trailing garbage are rejected.
Expected<double> parse_double(std::string_view key, std::string_view text) {
  const std::string token(trim(text));
  if (token.empty()) return wire_fault(std::string(key) + ": empty number");
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    return wire_fault(std::string(key) + ": invalid number '" + token + "'");
  }
  return value;
}

Expected<geometry::Point2> parse_point(std::string_view key,
                                       std::string_view text) {
  const std::size_t comma = text.find(',');
  if (comma == std::string_view::npos ||
      text.find(',', comma + 1) != std::string_view::npos) {
    return wire_fault(std::string(key) + ": expected 'x,y', got '" +
                      std::string(text) + "'");
  }
  auto x = parse_double(key, text.substr(0, comma));
  if (!x.has_value()) return x.fault();
  auto y = parse_double(key, text.substr(comma + 1));
  if (!y.has_value()) return y.fault();
  return geometry::Point2{x.value(), y.value()};
}

// Splits `text` on `sep`, invoking fn(token) per non-empty token; an empty
// token anywhere is a fault (it always indicates a malformed list).
template <typename Fn>
Expected<bool> for_each_token(std::string_view key, std::string_view text,
                              char sep, Fn&& fn) {
  std::size_t at = 0;
  while (at <= text.size()) {
    std::size_t end = text.find(sep, at);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view token = text.substr(at, end - at);
    if (token.empty()) {
      return wire_fault(std::string(key) + ": empty element in list");
    }
    auto result = fn(token);
    if (!result.has_value()) return result.fault();
    if (end == text.size()) break;
    at = end + 1;
  }
  return true;
}

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

std::string_view HttpRequest::header(std::string_view name) const {
  return find_header(headers, name);
}

std::string_view HttpResponse::header(std::string_view name) const {
  return find_header(headers, name);
}

support::Expected<HttpRequest> read_http_request(int fd,
                                                 const WireLimits& limits) {
  auto head = read_head(fd, limits);
  if (!head.has_value()) return head.fault();

  std::string_view block = head.value().head;
  std::size_t eol = block.find("\r\n");
  if (eol == std::string_view::npos) eol = block.size();
  const std::string_view start_line = block.substr(0, eol);
  const std::string_view header_block =
      eol < block.size() ? block.substr(eol + 2) : std::string_view{};

  HttpRequest request;
  const std::size_t sp1 = start_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : start_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return wire_fault("malformed request line");
  }
  request.method = std::string(start_line.substr(0, sp1));
  request.path = std::string(start_line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = start_line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) {
    return wire_fault("unsupported protocol version '" +
                      std::string(version) + "'");
  }
  if (request.method.empty() || request.path.empty() ||
      request.path.front() != '/') {
    return wire_fault("malformed request target");
  }

  auto headers = parse_headers(header_block);
  if (!headers.has_value()) return headers.fault();
  request.headers = std::move(headers.value());

  if (!find_header(request.headers, "transfer-encoding").empty()) {
    return wire_fault("Transfer-Encoding is not supported");
  }
  const std::string_view length_text =
      find_header(request.headers, "content-length");
  std::size_t content_length = 0;
  if (!length_text.empty()) {
    auto parsed = parse_content_length(length_text);
    if (!parsed.has_value()) return parsed.fault();
    content_length = parsed.value();
  } else if (request.method == "POST" || request.method == "PUT") {
    return wire_fault("bodied request without Content-Length");
  }
  if (content_length > limits.max_body_bytes) {
    return wire_fault("body of " + std::to_string(content_length) +
                      " bytes exceeds the " +
                      std::to_string(limits.max_body_bytes) + "-byte limit");
  }
  request.body = std::move(head.value().rest);
  if (request.body.size() > content_length) {
    return wire_fault("more body bytes than Content-Length declares");
  }
  auto body_read = read_body(fd, content_length, request.body);
  if (!body_read.has_value()) return body_read.fault();
  return request;
}

std::string serialize_response(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    response.reason + "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

std::string serialize_request(const std::string& method,
                              const std::string& path,
                              const std::string& body) {
  std::string out = method + " " + path + " HTTP/1.1\r\n";
  out += "Host: 127.0.0.1\r\n";
  if (!body.empty() || method == "POST" || method == "PUT") {
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

support::Expected<HttpResponse> read_http_response(int fd,
                                                   const WireLimits& limits) {
  auto head = read_head(fd, limits);
  if (!head.has_value()) return head.fault();

  std::string_view block = head.value().head;
  std::size_t eol = block.find("\r\n");
  if (eol == std::string_view::npos) eol = block.size();
  const std::string_view status_line = block.substr(0, eol);
  const std::string_view header_block =
      eol < block.size() ? block.substr(eol + 2) : std::string_view{};

  if (status_line.rfind("HTTP/1.", 0) != 0 || status_line.size() < 12) {
    return wire_fault("malformed status line");
  }
  HttpResponse response;
  response.status =
      static_cast<int>(std::strtol(status_line.substr(9, 3).data(), nullptr,
                                   10));
  if (response.status < 100 || response.status > 599) {
    return wire_fault("malformed status code");
  }
  response.reason = std::string(status_line.substr(13 <= status_line.size()
                                                       ? 13
                                                       : status_line.size()));

  auto headers = parse_headers(header_block);
  if (!headers.has_value()) return headers.fault();
  response.headers = std::move(headers.value());

  const std::string_view length_text =
      find_header(response.headers, "content-length");
  if (length_text.empty()) return wire_fault("response lacks Content-Length");
  auto content_length = parse_content_length(length_text);
  if (!content_length.has_value()) return content_length.fault();
  if (content_length.value() > limits.max_body_bytes) {
    return wire_fault("response body exceeds the byte limit");
  }
  response.body = std::move(head.value().rest);
  auto body_read = read_body(fd, content_length.value(), response.body);
  if (!body_read.has_value()) return body_read.fault();
  return response;
}

support::Expected<PlanRequest> parse_plan_request(std::string_view body,
                                                  const WireLimits& limits) {
  PlanRequest request;
  std::set<std::string, std::less<>> seen;
  std::size_t at = 0;
  while (at <= body.size()) {
    std::size_t eol = body.find('\n', at);
    if (eol == std::string_view::npos) eol = body.size();
    std::string_view line = body.substr(at, eol - at);
    const bool last = eol == body.size();
    at = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) {
      if (last) break;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return wire_fault("malformed request line (no '='): '" +
                        std::string(line.substr(0, 64)) + "'");
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    if (!seen.insert(std::string(key)).second) {
      return wire_fault("duplicate key '" + std::string(key) + "'");
    }

    if (key == "profile") {
      request.profile = std::string(value);
    } else if (key == "algorithm") {
      request.algorithm = std::string(value);
    } else if (key == "radius") {
      auto parsed = parse_double(key, value);
      if (!parsed.has_value()) return parsed.fault();
      if (parsed.value() < 0.0) return wire_fault("radius: must be >= 0");
      request.radius_m = parsed.value();
    } else if (key == "deadline_ms") {
      auto parsed = parse_double(key, value);
      if (!parsed.has_value()) return parsed.fault();
      if (parsed.value() < 0.0) return wire_fault("deadline_ms: must be >= 0");
      request.deadline_ms = parsed.value();
    } else if (key == "demand") {
      auto parsed = parse_double(key, value);
      if (!parsed.has_value()) return parsed.fault();
      if (parsed.value() <= 0.0) return wire_fault("demand: must be > 0");
      request.demand_j = parsed.value();
    } else if (key == "depot") {
      auto parsed = parse_point(key, value);
      if (!parsed.has_value()) return parsed.fault();
      request.depot = parsed.value();
    } else if (key == "current") {
      auto parsed = parse_point(key, value);
      if (!parsed.has_value()) return parsed.fault();
      request.current = parsed.value();
    } else if (key == "positions") {
      auto walked = for_each_token(
          key, value, ';',
          [&](std::string_view token) -> Expected<bool> {
            if (request.positions.size() >= limits.max_positions) {
              return wire_fault("positions: more than " +
                                std::to_string(limits.max_positions) +
                                " sensors");
            }
            auto point = parse_point(key, token);
            if (!point.has_value()) return point.fault();
            request.positions.push_back(point.value());
            return true;
          });
      if (!walked.has_value()) return walked.fault();
    } else if (key == "remaining") {
      // id:deficit pairs, ids strictly ascending.
      auto walked = for_each_token(
          key, value, ';',
          [&](std::string_view token) -> Expected<bool> {
            const std::size_t colon = token.find(':');
            if (colon == std::string_view::npos) {
              return wire_fault("remaining: expected 'id:deficit'");
            }
            auto id = parse_double(key, token.substr(0, colon));
            if (!id.has_value()) return id.fault();
            if (id.value() < 0.0 || id.value() != std::floor(id.value())) {
              return wire_fault("remaining: ids must be non-negative "
                                "integers");
            }
            auto deficit = parse_double(key, token.substr(colon + 1));
            if (!deficit.has_value()) return deficit.fault();
            if (deficit.value() <= 0.0) {
              return wire_fault("remaining: deficits must be > 0");
            }
            const auto sensor = static_cast<net::SensorId>(id.value());
            if (!request.remaining.empty() &&
                sensor <= request.remaining.back()) {
              return wire_fault("remaining: ids must be strictly ascending");
            }
            request.remaining.push_back(sensor);
            request.deficits_j.push_back(deficit.value());
            return true;
          });
      if (!walked.has_value()) return walked.fault();
    } else if (key == "stall_ms") {
      auto parsed = parse_double(key, value);
      if (!parsed.has_value()) return parsed.fault();
      if (parsed.value() < 0.0) return wire_fault("stall_ms: must be >= 0");
      request.stall_ms = parsed.value();
    } else {
      return wire_fault("unknown key '" + std::string(key) + "'");
    }
    if (last) break;
  }

  if (request.positions.empty()) {
    return wire_fault("positions: at least one sensor is required");
  }
  for (const net::SensorId id : request.remaining) {
    if (id >= request.positions.size()) {
      return wire_fault("remaining: id " + std::to_string(id) +
                        " out of range for " +
                        std::to_string(request.positions.size()) +
                        " positions");
    }
  }
  return request;
}

std::string canonical_fingerprint(const PlanRequest& request) {
  std::string out = "v1|profile=";
  out += request.profile.empty() ? "icdcs2019" : request.profile;
  out += "|alg=";
  out += request.algorithm.empty() ? "BC" : request.algorithm;
  out += "|r=" + hexfloat(request.radius_m);
  out += "|demand=" + hexfloat(request.demand_j);
  out += "|depot=" + hexfloat(request.depot.x) + "," +
         hexfloat(request.depot.y);
  out += "|n=" + std::to_string(request.positions.size());
  for (const geometry::Point2& p : request.positions) {
    out += "|" + hexfloat(p.x) + "," + hexfloat(p.y);
  }
  return out;
}

}  // namespace bc::service
