// Minimal command-line parsing and output wiring shared by the BotMeter
// tools.
//
// Flags are "--name value" pairs (plus bare "--name" booleans); anything the
// tool did not declare is an error, so typos fail loudly instead of being
// silently ignored. Command-line mistakes throw UsageError, and only those
// are answered with the tool's usage text (report_error).
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "dga/config.hpp"
#include "dga/config_io.hpp"
#include "dga/families.hpp"
#include "obs/event_journal.hpp"
#include "obs/lag_tracker.hpp"
#include "obs/landscape_history.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace botmeter::tools {

/// A mistake on the command line itself: an unknown flag, a missing value, a
/// malformed or out-of-range number, the --family / --config choice, or a
/// flag value the tool rejects. Errors the run meets later (files, traces,
/// checkpoints, the pipeline's own configuration checks) are not.
class UsageError : public ConfigError {
 public:
  using ConfigError::ConfigError;
};

/// The most threads a command line may start (shards, or shards × workers):
/// pools honour counts above the cores, so `--threads 100000` would start
/// 10^5 threads.
inline constexpr std::int64_t kMaxThreads = 1024;

/// Report a failed run on stderr and return the tool's exit status (1): one
/// "error:" line, followed by the usage text only for a UsageError.
inline int report_error(const Error& error, const char* usage) {
  std::fprintf(stderr, "error: %s\n", error.what());
  if (dynamic_cast<const UsageError*>(&error) != nullptr) {
    std::fputs(usage, stderr);
  }
  return 1;
}

class CliArgs {
 public:
  /// Parse argv against the declared flag names. `value_flags` take one
  /// argument; `bool_flags` take none.
  CliArgs(int argc, char** argv, std::set<std::string> value_flags,
          std::set<std::string> bool_flags) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (bool_flags.contains(arg)) {
        bools_.insert(arg);
        continue;
      }
      if (value_flags.contains(arg)) {
        if (i + 1 >= argc) {
          throw UsageError("missing value for " + arg);
        }
        values_[arg] = argv[++i];
        continue;
      }
      throw UsageError("unknown argument '" + arg + "'");
    }
  }

  [[nodiscard]] bool flag(const std::string& name) const {
    return bools_.contains(name);
  }

  [[nodiscard]] std::optional<std::string> value(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::string value_or(const std::string& name,
                                     std::string fallback) const {
    return value(name).value_or(std::move(fallback));
  }

  /// The whole value must be a number: "4x" or "0.1.5" is a UsageError,
  /// never a silently truncated prefix.
  [[nodiscard]] std::int64_t int_or(const std::string& name,
                                    std::int64_t fallback) const {
    auto v = value(name);
    if (!v) return fallback;
    try {
      std::size_t used = 0;
      const std::int64_t parsed = std::stoll(*v, &used);
      if (used == v->size()) return parsed;
    } catch (const std::exception&) {
    }
    throw UsageError("argument " + name + " expects an integer, got '" + *v +
                     "'");
  }

  /// A count (servers, shards, threads, tuples, a port): an integer in
  /// [0, max]. Out-of-range values are a UsageError, never wrapped into
  /// the narrower type the caller stores them in.
  [[nodiscard]] std::size_t count_or(
      const std::string& name, std::size_t fallback,
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const {
    const std::int64_t parsed =
        int_or(name, static_cast<std::int64_t>(fallback));
    if (parsed < 0 || parsed > max) {
      throw UsageError("argument " + name + " expects an integer in [0, " +
                       std::to_string(max) + "], got '" + *value(name) + "'");
    }
    return static_cast<std::size_t>(parsed);
  }

  /// A worker count (0: one per hardware thread) for each of `copies`
  /// pipelines; more than kMaxThreads in all is a UsageError.
  [[nodiscard]] std::size_t threads_or(const std::string& name,
                                       std::size_t fallback,
                                       std::size_t copies = 1) const {
    const std::size_t threads = count_or(name, fallback, kMaxThreads);
    const std::size_t total =
        copies * (threads != 0 ? threads : std::thread::hardware_concurrency());
    if (total > static_cast<std::size_t>(kMaxThreads)) {
      throw UsageError("argument " + name + " would start " +
                       std::to_string(total) + " threads; at most " +
                       std::to_string(kMaxThreads) + " are allowed");
    }
    return threads;
  }

  [[nodiscard]] double double_or(const std::string& name, double fallback) const {
    auto v = value(name);
    if (!v) return fallback;
    try {
      std::size_t used = 0;
      const double parsed = std::stod(*v, &used);
      if (used == v->size()) return parsed;
    } catch (const std::exception&) {
    }
    throw UsageError("argument " + name + " expects a number, got '" + *v +
                     "'");
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> bools_;
};

/// The target DGA from exactly one of `--family <name>` (the built-in
/// registry) or `--config <file.json>` (a DGA config document). The choice
/// and an unknown family name are UsageErrors; an unreadable or invalid
/// config file is not.
[[nodiscard]] inline dga::DgaConfig dga_config_from(const CliArgs& args) {
  const auto family = args.value("--family");
  const auto config_path = args.value("--config");
  if (family.has_value() == config_path.has_value()) {
    throw UsageError("exactly one of --family / --config is required");
  }
  if (family) {
    try {
      return dga::family_config(*family);
    } catch (const ConfigError& e) {
      throw UsageError(e.what());
    }
  }
  std::ifstream file(*config_path);
  if (!file) throw DataError("cannot open " + *config_path);
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  return dga::config_from_json_text(text);
}

/// The observability sinks one tool run attaches, built from the tool's
/// output flags, and the one place their outputs are written at exit.
/// `--metrics-out` attaches the registry and the trace session (the run
/// report carries the phase summary); the phase-table flag and `--trace-out`
/// attach the trace session; `--history-out` the landscape history (ring
/// bounded by `--history-retain`); `--journal-out` the event journal (also
/// its unhealthy auto-dump target) and the lag tracker. A `live` run — one
/// serving the sinks over HTTP — attaches registry, history, journal and
/// lag tracker regardless. Flags a tool does not declare read as absent.
class TelemetrySinks {
 public:
  TelemetrySinks(const CliArgs& args, bool phase_table, bool live = false,
                 std::size_t shards = 1)
      : metrics_out_(args.value("--metrics-out")),
        trace_out_(args.value("--trace-out")),
        history_out_(args.value("--history-out")),
        journal_out_(args.value("--journal-out")),
        phase_table_(phase_table),
        live_(live) {
    if (history_out_ || live) {
      obs::LandscapeHistoryConfig config;
      config.retain_recent =
          args.count_or("--history-retain", config.retain_recent);
      history.emplace(config);
    }
    if (journal_out_ || live) {
      journal.emplace();
      if (journal_out_) journal->set_dump_path(*journal_out_);
      lag.emplace(shards);
    }
  }

  /// The bundle a pipeline config carries: the attached sinks.
  [[nodiscard]] obs::Telemetry bundle() {
    obs::Telemetry telemetry;
    if (metrics_out_ || live_) telemetry.metrics = &metrics;
    if (metrics_out_ || phase_table_ || trace_out_) telemetry.trace = &trace;
    if (history) telemetry.history = &*history;
    if (journal) telemetry.journal = &*journal;
    if (lag) telemetry.lag = &*lag;
    return telemetry;
  }

  /// Write every requested output: the history and journal documents, the
  /// run report (schema botmeter.run_report.v1, with `config` as its echo),
  /// the phase table on stderr, and the Chrome trace.
  void write_outputs(const std::string& tool, json::Value config) const {
    if (history_out_) {
      std::ofstream file(*history_out_);
      if (!file) throw DataError("cannot open " + *history_out_);
      file << json::write_pretty(history->to_json());
      std::fprintf(stderr, "landscape history written to %s\n",
                   history_out_->c_str());
    }
    if (journal_out_) {
      journal->dump(*journal_out_);
      std::fprintf(stderr, "event journal written to %s\n",
                   journal_out_->c_str());
    }
    if (metrics_out_) {
      obs::RunReport report;
      report.tool = tool;
      report.config = std::move(config);
      report.metrics = &metrics;
      report.trace = &trace;
      obs::write_report_file(report, *metrics_out_);
    }
    if (phase_table_) {
      std::fputs(obs::format_phase_table(trace).c_str(), stderr);
    }
    if (trace_out_) {
      obs::write_chrome_trace_file(trace, *trace_out_);
      std::fprintf(stderr, "span trace written to %s (open in Perfetto)\n",
                   trace_out_->c_str());
    }
  }

  obs::MetricsRegistry metrics;
  obs::TraceSession trace;
  std::optional<obs::LandscapeHistory> history;
  std::optional<obs::EventJournal> journal;
  std::optional<obs::LagTracker> lag;

 private:
  std::optional<std::string> metrics_out_;
  std::optional<std::string> trace_out_;
  std::optional<std::string> history_out_;
  std::optional<std::string> journal_out_;
  bool phase_table_;
  bool live_;
};

}  // namespace botmeter::tools
