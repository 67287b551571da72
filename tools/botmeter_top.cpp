// botmeter_top — live terminal dashboard over a landscape time-series.
//
// Polls a running botmeter_cluster exporter (`--listen <port>`) for its
// /landscape/history document — or replays a saved
// botmeter.landscape_series.v1 file — and redraws a sparkline dashboard in
// place: total population on top, one heat row per local DNS server, the
// stream health state in the header. This is the "charting" half of the
// paper's deliverable made live: watch a Murofet wave crest server by server
// while the stream engine is still ingesting.
//
// Usage:
//   botmeter_top --port 9090 [--host 127.0.0.1] [--interval-ms 1000]
//                [--frames n] [--window n] [--width n] [--once] [--no-clear]
//   botmeter_top --history series.json [--window n] [--width n] [--once]
#include <arpa/inet.h>
#include <netdb.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/landscape_history.hpp"
#include "viz/landscape.hpp"

namespace {

constexpr const char* kUsage =
    "usage: botmeter_top (--port n | --history <series.json>)\n"
    "         [--host addr] [--interval-ms n] [--frames n] [--window n]\n"
    "         [--width n] [--once] [--no-clear]\n"
    "live terminal dashboard over a botmeter.landscape_series.v1 feed.\n"
    "--port polls http://<host>:<port>/landscape/history (a botmeter_cluster\n"
    "run started with --listen); --history replays a saved series file\n"
    "(e.g. a --history-out artifact). --window shows the last n epochs\n"
    "(default 60); --width caps the rendered columns (default: the terminal\n"
    "width when stdout is a tty, otherwise unlimited; 0 = unlimited);\n"
    "--interval-ms sets the refresh period (default 1000); --frames stops\n"
    "after n redraws (0 = until interrupted); --once is shorthand for\n"
    "--frames 1 --no-clear, the CI/scripting mode. In --port mode a\n"
    "pipeline-lag pane (slowest stage/shard, recent stragglers) is appended\n"
    "when the endpoint also serves /debug/lag (botmeter_cluster --listen).\n";

/// Blocking GET against host:port, returning the response body. Raw POSIX
/// sockets — the tool must not owe its build to anything beyond libc.
std::string http_get_body(const std::string& host, std::uint16_t port,
                          const std::string& path) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &resolved);
  if (rc != 0) {
    throw botmeter::DataError("cannot resolve " + host + ": " +
                              gai_strerror(rc));
  }
  int fd = -1;
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  if (fd < 0) {
    throw botmeter::DataError("cannot connect to " + host + ":" +
                              std::to_string(port));
  }

  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      throw botmeter::DataError("send failed to " + host);
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  if (response.rfind("HTTP/1.1 200", 0) != 0) {
    const std::size_t eol = response.find("\r\n");
    throw botmeter::DataError(
        "GET " + path + " failed: " +
        (eol == std::string::npos ? response : response.substr(0, eol)));
  }
  const std::size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos) {
    throw botmeter::DataError("malformed response to GET " + path);
  }
  return response.substr(split + 4);
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw botmeter::DataError("cannot open " + path);
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

/// Terminal width in columns when stdout is a tty, 0 (unlimited) otherwise.
std::size_t detect_terminal_width() {
  if (::isatty(STDOUT_FILENO) == 0) return 0;
  winsize ws{};
  if (::ioctl(STDOUT_FILENO, TIOCGWINSZ, &ws) != 0 || ws.ws_col == 0) return 0;
  return ws.ws_col;
}

/// Render the pipeline-lag pane from a parsed botmeter.lag.v1 document:
/// the attributed slowest stage/shard plus the most recent straggler rows.
std::string render_lag_pane(const botmeter::json::Value& lag) {
  std::string out = "pipeline lag: ";
  const botmeter::json::Value& attribution = lag.at("attribution");
  const botmeter::json::Value* stage = attribution.find("slowest_stage");
  if (stage == nullptr) {
    out += "no samples yet\n";
    return out;
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "slowest stage %s (%.1f ms total), slowest shard %lld "
                "(%.1f ms total)\n",
                stage->as_string().c_str(),
                attribution.at("slowest_stage_total_ms").as_double(),
                static_cast<long long>(
                    attribution.at("slowest_shard").as_int()),
                attribution.at("slowest_shard_total_ms").as_double());
  out += line;

  const botmeter::json::Array& rows = lag.at("stragglers").as_array();
  if (rows.empty()) return out;
  out += "recent stragglers:\n";
  const std::size_t first = rows.size() > 3 ? rows.size() - 3 : 0;
  for (std::size_t i = first; i < rows.size(); ++i) {
    const botmeter::json::Value& row = rows[i];
    std::snprintf(line, sizeof(line),
                  "  epoch %lld  shard %lld  straggle %.1f ms  merge +%.1f "
                  "ms\n",
                  static_cast<long long>(row.at("epoch").as_int()),
                  static_cast<long long>(
                      row.at("straggler_shard").as_int()),
                  row.at("straggle_ms").as_double(),
                  row.at("merge_ms").as_double() -
                      row.at("last_close_ms").as_double());
    out += line;
  }
  return out;
}

/// Shape the last `window` snapshots of a parsed series into one frame.
botmeter::viz::TopFrame frame_of(const botmeter::obs::LandscapeSeries& series,
                                 std::size_t window) {
  botmeter::viz::TopFrame frame;
  frame.family = series.family;
  frame.estimator = series.estimator;

  const std::size_t total = series.snapshots.size();
  const std::size_t first = total > window ? total - window : 0;
  frame.epochs.reserve(total - first);
  frame.server_labels.reserve(series.server_count);
  frame.populations.assign(series.server_count,
                           std::vector<double>(total - first, 0.0));
  for (std::uint32_t s = 0; s < series.server_count; ++s) {
    frame.server_labels.push_back("server-" + std::to_string(s));
  }
  for (std::size_t i = first; i < total; ++i) {
    const botmeter::obs::LandscapeSnapshot& snap = series.snapshots[i];
    frame.epochs.push_back(snap.epoch);
    for (std::size_t s = 0; s < snap.servers.size(); ++s) {
      frame.populations[s][i - first] = snap.servers[s].population;
    }
  }
  if (!series.snapshots.empty()) {
    frame.health = series.snapshots.back().health;
  }
  return frame;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace botmeter;
  try {
    tools::CliArgs args(argc, argv,
                        {"--port", "--host", "--history", "--interval-ms",
                         "--frames", "--window", "--width"},
                        {"--help", "--once", "--no-clear"});
    if (args.flag("--help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    const auto port_arg = args.value("--port");
    const auto history_path = args.value("--history");
    if (port_arg.has_value() == history_path.has_value()) {
      throw tools::UsageError("exactly one of --port / --history is required");
    }
    const std::string host = args.value_or("--host", "127.0.0.1");
    const auto interval =
        std::chrono::milliseconds(args.int_or("--interval-ms", 1000));
    const std::size_t window = args.count_or("--window", 60);
    if (window == 0) throw tools::UsageError("--window must be > 0");
    const std::size_t width = args.count_or("--width", detect_terminal_width());
    const bool once = args.flag("--once");
    const std::int64_t frames = once ? 1 : args.int_or("--frames", 0);
    const bool clear = !once && !args.flag("--no-clear");

    const auto port = static_cast<std::uint16_t>(
        args.count_or("--port", 0, std::numeric_limits<std::uint16_t>::max()));

    for (std::int64_t frame_index = 0; frames == 0 || frame_index < frames;
         ++frame_index) {
      const std::string text =
          history_path ? read_file(*history_path)
                       : http_get_body(host, port, "/landscape/history");
      const obs::LandscapeSeries series =
          obs::parse_landscape_series(json::parse(text));

      viz::TopFrame frame = frame_of(series, window);
      frame.max_width = width;
      std::string screen = viz::render_top(frame);

      // Lag pane: botmeter_cluster serves /debug/lag at every shard count;
      // an endpoint that 404s it simply skips the pane.
      if (port_arg) {
        try {
          const json::Value lag =
              json::parse(http_get_body(host, port, "/debug/lag"));
          screen += render_lag_pane(lag);
        } catch (const DataError&) {
          // endpoint absent or malformed; the dashboard stays useful
        }
      }
      if (clear) std::fputs("\x1b[H\x1b[2J", stdout);
      std::fputs(screen.c_str(), stdout);
      std::fflush(stdout);

      if (frames != 0 && frame_index + 1 >= frames) break;
      std::this_thread::sleep_for(interval);
    }
    return 0;
  } catch (const Error& e) {
    return tools::report_error(e, kUsage);
  }
}
