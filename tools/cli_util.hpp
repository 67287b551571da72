// Minimal command-line parsing shared by the BotMeter tools.
//
// Flags are "--name value" pairs (plus bare "--name" booleans); anything the
// tool did not declare is an error, so typos fail loudly instead of being
// silently ignored.
#pragma once

#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dga/config.hpp"
#include "dga/config_io.hpp"
#include "dga/families.hpp"

namespace botmeter::tools {

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
          throw ConfigError("missing value for " + arg);
        }
        values_[arg] = argv[++i];
        continue;
      }
      throw ConfigError("unknown argument '" + arg + "'");
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

  /// The whole value must be a number: "4x" or "0.1.5" is a ConfigError,
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
    throw ConfigError("argument " + name + " expects an integer, got '" + *v +
                      "'");
  }

  /// A count (servers, shards, threads, tuples): an integer >= 0.
  [[nodiscard]] std::size_t count_or(const std::string& name,
                                     std::size_t fallback) const {
    const std::int64_t parsed =
        int_or(name, static_cast<std::int64_t>(fallback));
    if (parsed < 0) {
      throw ConfigError("argument " + name + " expects a count >= 0, got '" +
                        *value(name) + "'");
    }
    return static_cast<std::size_t>(parsed);
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
    throw ConfigError("argument " + name + " expects a number, got '" + *v +
                      "'");
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> bools_;
};

/// The target DGA from exactly one of `--family <name>` (the built-in
/// registry) or `--config <file.json>` (a DGA config document).
[[nodiscard]] inline dga::DgaConfig dga_config_from(const CliArgs& args) {
  const auto family = args.value("--family");
  const auto config_path = args.value("--config");
  if (family.has_value() == config_path.has_value()) {
    throw ConfigError("exactly one of --family / --config is required");
  }
  if (family) return dga::family_config(*family);
  std::ifstream file(*config_path);
  if (!file) throw DataError("cannot open " + *config_path);
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  return dga::config_from_json_text(text);
}

}  // namespace botmeter::tools
