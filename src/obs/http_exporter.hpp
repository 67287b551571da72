// Dependency-free HTTP scrape endpoint for live telemetry.
//
// A `HttpExporter` owns one background thread that accepts loopback TCP
// connections and answers `GET` requests from a fixed route table — in
// practice `/metrics` (Prometheus text exposition of a MetricsRegistry
// snapshot) and `/healthz` (the stream health state). It is deliberately
// tiny: blocking HTTP/1.1 over POSIX sockets, one connection at a time,
// `Connection: close` on every response, request parsing bounded to a few
// KiB so a misbehaving client cannot balloon memory.
//
// Observability invariants (the PR 2 contract):
//   - The exporter thread only *reads*: route handlers take registry
//     snapshots / monitor states, never mutate pipeline state, so attaching
//     an exporter can never change simulation or analysis results.
//   - Handlers run on the exporter thread. Anything they touch must be
//     thread-safe against the instrumented threads (MetricsRegistry
//     snapshots and StreamHealthMonitor reads are; raw engine accessors are
//     not — sample them from the ingest thread instead).
//   - `port = 0` binds an ephemeral port (reported by `port()`), so tests
//     and CI never collide on a fixed number.
//
// Shutdown is prompt and clean: `stop()` (or the destructor) wakes the
// accept loop through a self-pipe, the thread finishes any in-flight
// response, and the listening socket closes before `stop()` returns.
#pragma once

#include <atomic>
#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>

#include "common/error.hpp"

namespace botmeter::obs {

struct HttpExporterConfig {
  /// TCP port to listen on; 0 binds an ephemeral port.
  std::uint16_t port = 0;
  /// Address to bind. Defaults to loopback: telemetry is unauthenticated,
  /// so exposing it beyond the host is an explicit operator decision.
  std::string bind_address = "127.0.0.1";
};

/// One parsed GET request as handlers see it. Routing matches `path`
/// exactly; anything after '?' lands in `query` so handlers can take
/// parameters (`/landscape/history?from=3&to=9`) without the route table
/// caring.
struct HttpRequest {
  std::string path;
  /// Raw query string (without the '?'); empty when the request had none.
  std::string query;

  /// Value of the query parameter `key` ("a=1&b=2" → param("b") == "2"),
  /// percent-decoded with '+' as space; nullopt when absent. A bare key
  /// with no '=' yields an empty string.
  [[nodiscard]] std::optional<std::string> param(std::string_view key) const;

  /// The integer query parameter `key`, parsed whole as a decimal `Int`;
  /// nullopt when absent or empty. Throws DataError naming the key when the
  /// value carries anything else (`1e3`, ` 1`, `+1`) or lies outside Int's
  /// range, so a handler never serves a prefix or a wrapped value.
  template <typename Int>
  [[nodiscard]] std::optional<Int> int_param(std::string_view key) const {
    const std::optional<std::string> text = param(key);
    if (!text || text->empty()) return std::nullopt;
    Int value{};
    const char* end = text->data() + text->size();
    const auto [ptr, ec] = std::from_chars(text->data(), end, value);
    if (ec != std::errc{} || ptr != end) {
      throw DataError("query parameter '" + std::string(key) + "': '" +
                      *text + "' is not an integer in [" +
                      std::to_string(std::numeric_limits<Int>::min()) + ", " +
                      std::to_string(std::numeric_limits<Int>::max()) + "]");
    }
    return value;
  }
};

/// One HTTP response. Handlers fill status/content_type/body; the exporter
/// adds the status line, Content-Type, Content-Length, and Connection
/// headers.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpExporter {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Bind, listen, and start the serving thread. Routes map exact request
  /// paths ("/metrics") to handlers; unknown paths answer 404, non-GET
  /// methods 405, malformed or oversized requests 400. Throws DataError
  /// when the socket cannot be created or bound.
  HttpExporter(const HttpExporterConfig& config,
               std::map<std::string, Handler> routes);

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  ~HttpExporter();

  /// The actually bound port (resolves port 0 to the ephemeral choice).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Requests served so far (including error responses). Monotonic;
  /// readable from any thread.
  [[nodiscard]] std::uint64_t requests_served() const noexcept;

  /// Stop accepting, join the serving thread, close the socket. Idempotent.
  void stop();

 private:
  void serve_loop();
  void handle_connection(int client_fd);

  std::map<std::string, Handler> routes_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: stop() wakes the poll()
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::thread thread_;
};

}  // namespace botmeter::obs
