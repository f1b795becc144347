// Wire-protocol hardening tests: the HTTP subset and the plan-request
// schema both read hostile bytes, so every malformed input must map to a
// structured fault, and the canonical fingerprint must be exactly as
// sensitive as the planner (every result-affecting field, nothing else).

#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "obs/trace.h"
#include "service/wire.h"
#include "support/socket.h"

namespace bc {
namespace {

using service::HttpRequest;
using service::HttpResponse;
using service::PlanRequest;
using service::WireLimits;

// Feeds `bytes` to the request/response readers through a pipe (read_some
// works on any fd).
struct Feed {
  int read_fd = -1;
  explicit Feed(const std::string& bytes) {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
      ADD_FAILURE() << "pipe() failed";
      return;
    }
    read_fd = fds[0];
    EXPECT_TRUE(support::write_all(fds[1], bytes).has_value());
    ::close(fds[1]);
  }
  ~Feed() { ::close(read_fd); }
};

const std::string kBody =
    "algorithm=BC\npositions=10,10;20,20\ndepot=0,0\n";

TEST(WireHttpTest, RequestRoundTripsThroughSerializeAndParse) {
  Feed feed(service::serialize_request("POST", "/v1/plan", kBody));
  auto request = service::read_http_request(feed.read_fd, WireLimits{});
  ASSERT_TRUE(request.has_value()) << request.fault().message;
  EXPECT_EQ(request.value().method, "POST");
  EXPECT_EQ(request.value().path, "/v1/plan");
  EXPECT_EQ(request.value().body, kBody);
  EXPECT_EQ(request.value().header("connection"), "close");
}

TEST(WireHttpTest, ResponseRoundTripsThroughSerializeAndParse) {
  HttpResponse out;
  out.status = 503;
  out.reason = "Service Unavailable";
  out.headers.emplace_back("Retry-After", "1");
  out.body = "{\"error\": \"overloaded\"}";
  Feed feed(service::serialize_response(out));
  auto response = service::read_http_response(feed.read_fd, WireLimits{});
  ASSERT_TRUE(response.has_value()) << response.fault().message;
  EXPECT_EQ(response.value().status, 503);
  EXPECT_EQ(response.value().body, out.body);
  EXPECT_EQ(response.value().header("retry-after"), "1");
}

TEST(WireHttpTest, PostWithoutContentLengthIsRejected) {
  Feed feed("POST /v1/plan HTTP/1.1\r\nHost: x\r\n\r\n");
  auto request = service::read_http_request(feed.read_fd, WireLimits{});
  ASSERT_FALSE(request.has_value());
  EXPECT_NE(request.fault().message.find("Content-Length"),
            std::string::npos);
}

TEST(WireHttpTest, TransferEncodingIsRejected) {
  Feed feed(
      "POST /v1/plan HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_FALSE(
      service::read_http_request(feed.read_fd, WireLimits{}).has_value());
}

TEST(WireHttpTest, OversizedHeaderBlockIsRejected) {
  WireLimits limits;
  limits.max_header_bytes = 128;
  Feed feed("GET / HTTP/1.1\r\nX-Pad: " + std::string(4096, 'a') +
            "\r\n\r\n");
  EXPECT_FALSE(service::read_http_request(feed.read_fd, limits).has_value());
}

TEST(WireHttpTest, BodyBeyondLimitIsRejected) {
  WireLimits limits;
  limits.max_body_bytes = 8;
  Feed feed("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789");
  EXPECT_FALSE(service::read_http_request(feed.read_fd, limits).has_value());
}

TEST(WireHttpTest, TruncatedBodyIsRejected) {
  Feed feed("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
  auto request = service::read_http_request(feed.read_fd, WireLimits{});
  ASSERT_FALSE(request.has_value());
  EXPECT_NE(request.fault().message.find("mid-body"), std::string::npos);
}

TEST(WirePlanRequestTest, FullBodyParses) {
  const std::string body =
      "profile=icdcs2019\n"
      "algorithm=BC-OPT\n"
      "radius=25\n"
      "deadline_ms=1500\n"
      "demand=3.5\n"
      "depot=1,2\n"
      "positions=10,10;20,20;30,30\n"
      "current=5,5\n"
      "remaining=0:1.5;2:0.25\n";
  auto parsed = service::parse_plan_request(body, WireLimits{});
  ASSERT_TRUE(parsed.has_value()) << parsed.fault().message;
  const PlanRequest& request = parsed.value();
  EXPECT_EQ(request.algorithm, "BC-OPT");
  EXPECT_DOUBLE_EQ(request.radius_m, 25.0);
  EXPECT_DOUBLE_EQ(request.deadline_ms, 1500.0);
  EXPECT_DOUBLE_EQ(request.demand_j, 3.5);
  EXPECT_EQ(request.positions.size(), 3u);
  ASSERT_EQ(request.remaining.size(), 2u);
  EXPECT_EQ(request.remaining[1], 2u);
  EXPECT_DOUBLE_EQ(request.deficits_j[1], 0.25);
}

TEST(WirePlanRequestTest, HostileBodiesAreStructuredFaults) {
  const char* bad[] = {
      "",                                     // no positions
      "positions=10,10\npositions=20,20\n",   // duplicate key
      "positions=10,10\nwarp_factor=9\n",     // unknown key
      "positions=10,nan\n",                   // non-finite
      "positions=10,1e999\n",                 // overflow to inf
      "positions=10\n",                       // not a pair
      "positions=10,10;;20,20\n",             // empty list element
      "positions=10,10\ndemand=0\n",          // demand must be > 0
      "positions=10,10\nradius=-1\n",         // negative radius
      "positions=10,10;20,20\nremaining=1:1;0:1\n",  // ids not ascending
      "positions=10,10\nremaining=5:1\n",     // id out of range
      "positions=10,10\nremaining=0:-2\n",    // non-positive deficit
      "positions=10,10\nremaining=0.5:1\n",   // non-integer id
      "no_equals_sign\n",                     // malformed line
  };
  for (const char* body : bad) {
    auto parsed = service::parse_plan_request(body, WireLimits{});
    EXPECT_FALSE(parsed.has_value()) << "accepted: " << body;
  }
}

TEST(WirePlanRequestTest, PositionCountIsBounded) {
  WireLimits limits;
  limits.max_positions = 2;
  EXPECT_FALSE(
      service::parse_plan_request("positions=1,1;2,2;3,3\n", limits)
          .has_value());
}

TEST(WireFingerprintTest, CoversEveryResultAffectingField) {
  const auto parse = [](const std::string& body) {
    auto parsed = service::parse_plan_request(body, WireLimits{});
    EXPECT_TRUE(parsed.has_value()) << parsed.fault().message;
    return parsed.value();
  };
  const PlanRequest base = parse(kBody);
  // Defaults are canonicalised: spelling the defaults out changes nothing.
  EXPECT_EQ(service::canonical_fingerprint(base),
            service::canonical_fingerprint(
                parse("profile=icdcs2019\n" + kBody)));
  // Every solver-visible field moves the fingerprint.
  const char* variants[] = {
      "algorithm=SC\npositions=10,10;20,20\ndepot=0,0\n",
      "algorithm=BC\npositions=10,10;20,21\ndepot=0,0\n",
      "algorithm=BC\npositions=10,10;20,20\ndepot=0,1\n",
      "algorithm=BC\npositions=10,10;20,20\ndepot=0,0\nradius=30\n",
      "algorithm=BC\npositions=10,10;20,20\ndepot=0,0\ndemand=1\n",
      "algorithm=BC\npositions=10,10;20,20;30,30\ndepot=0,0\n",
  };
  for (const char* body : variants) {
    EXPECT_NE(service::canonical_fingerprint(base),
              service::canonical_fingerprint(parse(body)))
        << "fingerprint blind to: " << body;
  }
  // The deadline is a *cutoff*, not an input: two requests differing only
  // in deadline must share a cache entry (non-degraded results are
  // deadline-invariant by the determinism contract).
  EXPECT_EQ(service::canonical_fingerprint(base),
            service::canonical_fingerprint(
                parse(kBody + std::string("deadline_ms=1000\n"))));
}

TEST(WireJsonEscapeTest, EscapesControlAndQuoteBytes) {
  EXPECT_EQ(obs::json_quote("a\"b\\c\nd\x01"),
            "\"a\\\"b\\\\c\\nd\\u0001\"");
}

}  // namespace
}  // namespace bc
