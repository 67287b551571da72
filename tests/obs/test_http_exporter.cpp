// The scrape endpoint: ephemeral-port binding, routing, error statuses,
// bounded request parsing, whole-value integer query parameters,
// live-registry scrapes from a second thread, and clean shutdown.
#include "obs/http_exporter.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/expose.hpp"
#include "obs/metrics.hpp"

namespace botmeter::obs {
namespace {

/// Minimal raw-socket HTTP client: send `request` verbatim, read to EOF.
std::string raw_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return raw_request(port,
                     "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

TEST(HttpExporter, ServesRoutesOnEphemeralPort) {
  HttpExporterConfig config;  // port 0
  std::map<std::string, HttpExporter::Handler> routes;
  routes["/metrics"] = [](const HttpRequest&) {
    return HttpResponse{200, kPrometheusContentType, "up 1\n"};
  };
  routes["/healthz"] = [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "status: ok\n"};
  };
  HttpExporter exporter(config, std::move(routes));
  ASSERT_NE(exporter.port(), 0);

  const std::string metrics = http_get(exporter.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_EQ(body_of(metrics), "up 1\n");

  const std::string health = http_get(exporter.port(), "/healthz");
  EXPECT_EQ(body_of(health), "status: ok\n");
  EXPECT_GE(exporter.requests_served(), 2u);
}

TEST(HttpExporter, UnknownPathIs404AndNonGetIs405) {
  HttpExporter exporter(HttpExporterConfig{},
                        {{"/metrics", [](const HttpRequest&) { return HttpResponse{}; }}});
  EXPECT_NE(http_get(exporter.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(raw_request(exporter.port(), "POST /metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
}

TEST(HttpExporter, NotFoundListsKnownRoutesAsPlainText) {
  // Golden 404: explicit plain-text Content-Type and a sorted route listing,
  // so a mistyped scrape config diagnoses itself.
  HttpExporter exporter(
      HttpExporterConfig{},
      {{"/metrics", [](const HttpRequest&) { return HttpResponse{}; }},
       {"/healthz", [](const HttpRequest&) { return HttpResponse{}; }},
       {"/events", [](const HttpRequest&) { return HttpResponse{}; }}});
  const std::string response = http_get(exporter.port(), "/metricz");
  EXPECT_NE(response.find("HTTP/1.1 404 Not Found"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; charset=utf-8"),
            std::string::npos);
  EXPECT_EQ(body_of(response),
            "not found; routes:\n"
            "/events\n"
            "/healthz\n"
            "/metrics\n");
}

TEST(HttpExporter, ErrorResponsesCarryExplicitPlainTextContentType) {
  HttpExporter exporter(HttpExporterConfig{},
                        {{"/metrics", [](const HttpRequest&) { return HttpResponse{}; }}});
  const std::string content_type = "Content-Type: text/plain; charset=utf-8";

  const std::string bad = raw_request(exporter.port(), "NONSENSE\r\n\r\n");
  EXPECT_NE(bad.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(bad.find(content_type), std::string::npos);
  EXPECT_EQ(body_of(bad), "bad request\n");

  const std::string post =
      raw_request(exporter.port(), "POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_NE(post.find(content_type), std::string::npos);
  EXPECT_EQ(body_of(post), "only GET is supported\n");
}

TEST(HttpExporter, QueryStringsResolveToTheBarePath) {
  HttpExporter exporter(
      HttpExporterConfig{},
      {{"/metrics", [](const HttpRequest&) { return HttpResponse{200, "text/plain", "ok"}; }}});
  EXPECT_NE(http_get(exporter.port(), "/metrics?format=prometheus")
                .find("HTTP/1.1 200"),
            std::string::npos);
}

TEST(HttpExporter, HandlersReceiveDecodedQueryParameters) {
  HttpExporter exporter(
      HttpExporterConfig{},
      {{"/echo", [](const HttpRequest& request) {
          std::string body = request.path + "\n";
          body += "from=" + request.param("from").value_or("<absent>") + "\n";
          body += "family=" + request.param("family").value_or("<absent>") + "\n";
          body += std::string("bare=") +
                  (request.param("bare") ? "<set>" : "<absent>") + "\n";
          body += "nope=" + request.param("nope").value_or("<absent>") + "\n";
          return HttpResponse{200, "text/plain", body};
        }}});
  const std::string response = http_get(
      exporter.port(), "/echo?from=-3&family=new%47oZ%20x&bare&=orphan");
  EXPECT_EQ(body_of(response),
            "/echo\n"
            "from=-3\n"
            "family=newGoZ x\n"  // %47 -> 'G', %20 -> ' '
            "bare=<set>\n"       // bare key: present with empty value
            "nope=<absent>\n");
}

TEST(HttpExporter, IntegerParametersParseWholeAndInRange) {
  const auto request = [](std::string query) {
    return HttpRequest{"/q", std::move(query)};
  };
  // Absent or empty: no value. Whole values in range: parsed exactly.
  EXPECT_EQ(request("").int_param<std::uint32_t>("server"), std::nullopt);
  EXPECT_EQ(request("server=").int_param<std::uint32_t>("server"),
            std::nullopt);
  EXPECT_EQ(request("server=1").int_param<std::uint32_t>("server"), 1u);
  EXPECT_EQ(request("server=4294967295").int_param<std::uint32_t>("server"),
            4294967295u);
  EXPECT_EQ(request("shard=-1").int_param<std::int32_t>("shard"), -1);
  EXPECT_EQ(request("from=-9223372036854775808").int_param<std::int64_t>("from"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(
      request("from=18446744073709551615").int_param<std::uint64_t>("from"),
      std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(request("shard=%31").int_param<std::int32_t>("shard"), 1);

  // A prefix, a wrapped value or a foreign sign is refused, naming the key.
  const auto refused = [&request](std::string query, auto type_tag) {
    using Int = decltype(type_tag);
    const std::string key = query.substr(0, query.find('='));
    try {
      (void)request(query).int_param<Int>(key);
    } catch (const DataError& e) {
      return std::string(e.what()).find("'" + key + "'") != std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(refused("server=4294967296", std::uint32_t{}));
  EXPECT_TRUE(refused("server=1e3", std::uint32_t{}));
  EXPECT_TRUE(refused("server=-1", std::uint32_t{}));
  EXPECT_TRUE(refused("server=+1", std::uint32_t{}));
  EXPECT_TRUE(refused("server=%201", std::uint32_t{}));
  EXPECT_TRUE(refused("shard=4294967295", std::int32_t{}));
  EXPECT_TRUE(refused("shard=4294967297", std::int32_t{}));
  EXPECT_TRUE(refused("shard=x", std::int32_t{}));
  EXPECT_TRUE(refused("to=9223372036854775808", std::int64_t{}));
  EXPECT_TRUE(refused("from=-1", std::uint64_t{}));
  EXPECT_TRUE(refused("from=18446744073709551616", std::uint64_t{}));
}

TEST(HttpExporter, MalformedAndOversizedRequestsAre400) {
  HttpExporter exporter(HttpExporterConfig{},
                        {{"/metrics", [](const HttpRequest&) { return HttpResponse{}; }}});
  EXPECT_NE(raw_request(exporter.port(), "NONSENSE\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  // 64 KiB of garbage blows the request bound (8 KiB) without ever
  // completing a head; the exporter must answer 400, not buffer it all.
  const std::string big(64 * 1024, 'a');
  EXPECT_NE(raw_request(exporter.port(), big).find("HTTP/1.1 400"),
            std::string::npos);
}

TEST(HttpExporter, UnhealthyStatusPassesThrough) {
  HttpExporter exporter(
      HttpExporterConfig{},
      {{"/healthz", [](const HttpRequest&) {
          return HttpResponse{503, "text/plain", "status: unhealthy\n"};
        }}});
  const std::string response = http_get(exporter.port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos);
  EXPECT_EQ(body_of(response), "status: unhealthy\n");
}

TEST(HttpExporter, ScrapesLiveRegistryWhileInstrumentedThreadWrites) {
  // The exporter thread snapshots the registry while a writer hammers it —
  // the exact live-scrape interleaving the synchronization contract covers.
  // Run under TSan to make the claim mechanical.
  MetricsRegistry registry;
  Counter& tuples = registry.counter("tuples");
  const std::array<double, 3> bounds{1.0, 10.0, 100.0};
  Histogram& lat = registry.histogram("lat", bounds);

  HttpExporter exporter(
      HttpExporterConfig{},
      {{"/metrics", [&registry](const HttpRequest&) {
          return HttpResponse{200, kPrometheusContentType,
                              expose_prometheus(registry.snapshot())};
        }}});

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; !done.load(std::memory_order_relaxed); ++i) {
      tuples.add(1);
      lat.observe(static_cast<double>(i % 200));
    }
  });

  for (int scrape = 0; scrape < 20; ++scrape) {
    const std::string text = body_of(http_get(exporter.port(), "/metrics"));
    // Every scrape must parse, and every histogram must be whole: the +Inf
    // cumulative bucket equals the count line exactly.
    const std::vector<ExpositionSample> samples = parse_exposition(text);
    double inf_bucket = -1.0, count = -1.0;
    for (const ExpositionSample& s : samples) {
      if (s.name == "lat_bucket" && s.labels == "le=\"+Inf\"") {
        inf_bucket = s.value;
      }
      if (s.name == "lat_count") count = s.value;
    }
    EXPECT_EQ(inf_bucket, count) << "torn histogram in scrape " << scrape;
  }
  done.store(true);
  writer.join();
}

TEST(HttpExporter, StopIsIdempotentAndReleasesThePort) {
  HttpExporterConfig config;
  auto exporter = std::make_unique<HttpExporter>(
      config, std::map<std::string, HttpExporter::Handler>{
                  {"/metrics", [](const HttpRequest&) { return HttpResponse{}; }}});
  const std::uint16_t port = exporter->port();
  exporter->stop();
  exporter->stop();  // second stop: no-op
  exporter.reset();

  // The port must be rebindable immediately after shutdown.
  config.port = port;
  HttpExporter rebound(config, {{"/metrics", [](const HttpRequest&) { return HttpResponse{}; }}});
  EXPECT_EQ(rebound.port(), port);
}

}  // namespace
}  // namespace botmeter::obs
