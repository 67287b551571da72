#include "obs/landscape_history.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace botmeter::obs {
namespace {

constexpr std::string_view kSeriesSchema = "botmeter.landscape_series.v1";
constexpr std::string_view kSummarySchema = "botmeter.landscape_summary.v1";

const LandscapeCell kDefaultCell{};

json::Value cell_to_json(std::uint32_t server, const LandscapeCell& cell) {
  json::Object o;
  o.emplace("server", json::Value(static_cast<double>(server)));
  o.emplace("population", json::Value(cell.population));
  o.emplace("matched", json::Value(static_cast<double>(cell.matched)));
  if (cell.interval90.has_value()) {
    o.emplace("lo", json::Value(cell.interval90->first));
    o.emplace("hi", json::Value(cell.interval90->second));
  }
  if (cell.approximate) {
    o.emplace("approximate", json::Value(true));
    o.emplace("sketch_rse", json::Value(cell.sketch_rse));
  }
  return json::Value(std::move(o));
}

json::Value entry_to_json(
    std::int64_t epoch, std::string_view tier, std::string_view encoding,
    const std::vector<std::pair<std::uint32_t, LandscapeCell>>& cells,
    const std::optional<std::string>& health) {
  json::Object o;
  json::Array cell_array;
  cell_array.reserve(cells.size());
  for (const auto& [id, cell] : cells) {
    cell_array.push_back(cell_to_json(id, cell));
  }
  o.emplace("cells", json::Value(std::move(cell_array)));
  o.emplace("encoding", json::Value(std::string(encoding)));
  o.emplace("epoch", json::Value(static_cast<double>(epoch)));
  if (health.has_value()) {
    o.emplace("health", json::Value(*health));
  }
  o.emplace("tier", json::Value(std::string(tier)));
  return json::Value(std::move(o));
}

/// The non-default cells of a full row — the lossless sparse encoding.
std::vector<std::pair<std::uint32_t, LandscapeCell>> sparse_of(
    const std::vector<LandscapeCell>& row) {
  std::vector<std::pair<std::uint32_t, LandscapeCell>> cells;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (!(row[i] == kDefaultCell)) {
      cells.emplace_back(static_cast<std::uint32_t>(i), row[i]);
    }
  }
  return cells;
}

void apply_cells(
    const std::vector<std::pair<std::uint32_t, LandscapeCell>>& cells,
    std::vector<LandscapeCell>& row) {
  for (const auto& [id, cell] : cells) {
    row[id] = cell;
  }
}

/// Server `id`'s cell in an ascending sparse list, or null when absent.
const LandscapeCell* cell_of(
    const std::vector<std::pair<std::uint32_t, LandscapeCell>>& cells,
    std::uint32_t id) {
  const auto it = std::lower_bound(
      cells.begin(), cells.end(), id,
      [](const auto& entry, std::uint32_t key) { return entry.first < key; });
  return it != cells.end() && it->first == id ? &it->second : nullptr;
}

}  // namespace

void LandscapeHistoryConfig::validate() const {
  if (retain_recent < 1) {
    throw ConfigError("landscape history retain_recent must be >= 1");
  }
}

LandscapeHistory::LandscapeHistory(LandscapeHistoryConfig config)
    : config_(config) {
  config_.validate();
}

void LandscapeHistory::record(const LandscapeEpochRecord& row) {
  std::lock_guard lock(mu_);
  if (epochs_recorded_ == 0) {
    if (row.servers.empty()) {
      throw ConfigError("landscape history: first record has zero servers");
    }
    family_ = row.family;
    estimator_ = row.estimator;
    server_count_ = row.servers.size();
    base_.assign(server_count_, kDefaultCell);
    last_ = base_;
  } else {
    if (row.family != family_ || row.estimator != estimator_) {
      throw ConfigError("landscape history: series identity changed (" +
                        family_ + "/" + estimator_ + " -> " + row.family +
                        "/" + row.estimator + ")");
    }
    if (row.servers.size() != server_count_) {
      throw ConfigError("landscape history: server width changed (" +
                        std::to_string(server_count_) + " -> " +
                        std::to_string(row.servers.size()) + ")");
    }
    if (row.epoch <= recent_.back().epoch) {
      throw ConfigError("landscape history: epochs must be strictly "
                        "increasing (got " + std::to_string(row.epoch) +
                        " after " + std::to_string(recent_.back().epoch) + ")");
    }
  }

  Entry entry;
  entry.epoch = row.epoch;
  entry.health = row.health;
  for (std::size_t i = 0; i < server_count_; ++i) {
    if (!(row.servers[i] == last_[i])) {
      entry.cells.emplace_back(static_cast<std::uint32_t>(i), row.servers[i]);
      last_[i] = row.servers[i];
    }
  }
  last_health_ = row.health;
  recent_.push_back(std::move(entry));
  ++epochs_recorded_;
  evict_locked();
}

void LandscapeHistory::evict_locked() {
  while (recent_.size() > config_.retain_recent) {
    Entry& front = recent_.front();
    apply_cells(front.cells, base_);
    if (front.epoch % kCoarseStride == 0) {
      Entry coarse;
      coarse.epoch = front.epoch;
      coarse.health = std::move(front.health);
      coarse.cells = sparse_of(base_);
      coarse_.push_back(std::move(coarse));
      while (coarse_.size() > kRetainCoarse) {
        coarse_.pop_front();
      }
    }
    recent_.pop_front();
  }
}

std::uint64_t LandscapeHistory::epochs_recorded() const {
  std::lock_guard lock(mu_);
  return epochs_recorded_;
}

json::Value LandscapeHistory::series_header_locked() const {
  json::Object doc;
  doc.emplace("schema", json::Value(std::string(kSeriesSchema)));
  doc.emplace("family", json::Value(family_));
  doc.emplace("estimator", json::Value(estimator_));
  doc.emplace("server_count",
              json::Value(static_cast<double>(server_count_)));
  doc.emplace("epochs_recorded",
              json::Value(static_cast<double>(epochs_recorded_)));
  json::Object retention;
  retention.emplace("coarse_stride",
                    json::Value(static_cast<double>(kCoarseStride)));
  retention.emplace("retain_coarse",
                    json::Value(static_cast<double>(kRetainCoarse)));
  retention.emplace("retain_recent",
                    json::Value(static_cast<double>(config_.retain_recent)));
  doc.emplace("retention", json::Value(std::move(retention)));
  return json::Value(std::move(doc));
}

json::Value LandscapeHistory::to_json() const {
  std::lock_guard lock(mu_);
  json::Object doc = series_header_locked().as_object();
  json::Array entries;
  for (const Entry& entry : coarse_) {
    entries.push_back(
        entry_to_json(entry.epoch, "coarse", "full", entry.cells,
                      entry.health));
  }
  std::vector<LandscapeCell> rolling = base_;
  bool first = true;
  for (const Entry& entry : recent_) {
    apply_cells(entry.cells, rolling);
    if (first) {
      // The ring's first entry anchors reconstruction: materialized as a
      // sparse full row so the document never depends on evicted state.
      entries.push_back(entry_to_json(entry.epoch, "recent", "full",
                                      sparse_of(rolling), entry.health));
      first = false;
    } else {
      entries.push_back(entry_to_json(entry.epoch, "recent", "delta",
                                      entry.cells, entry.health));
    }
  }
  doc.emplace("entries", json::Value(std::move(entries)));
  return json::Value(std::move(doc));
}

json::Value LandscapeHistory::latest_json() const {
  std::lock_guard lock(mu_);
  json::Object doc = series_header_locked().as_object();
  json::Array entries;
  if (epochs_recorded_ > 0) {
    entries.push_back(entry_to_json(recent_.back().epoch, "recent", "full",
                                    sparse_of(last_), last_health_));
  }
  doc.emplace("entries", json::Value(std::move(entries)));
  return json::Value(std::move(doc));
}

json::Value LandscapeHistory::window_json(std::optional<std::uint32_t> server,
                                          std::int64_t from,
                                          std::int64_t to) const {
  std::lock_guard lock(mu_);
  if (server.has_value() && epochs_recorded_ > 0 &&
      *server >= server_count_) {
    throw ConfigError("landscape history: server " + std::to_string(*server) +
                      " outside recorded width " +
                      std::to_string(server_count_));
  }
  json::Object doc = series_header_locked().as_object();
  if (server.has_value()) {
    doc.emplace("server", json::Value(static_cast<double>(*server)));
  }
  // One pass over the retained entries, coarse tier first (coarse epochs
  // always precede recent ones). A coarse entry is already a sparse full
  // row; a recent entry's row is rolled forward from base_ delta by delta.
  // A one-server query rolls that server's cell alone.
  const auto in_window = [&](const Entry& entry) {
    return entry.epoch >= from && entry.epoch <= to;
  };
  json::Array entries;
  if (server.has_value()) {
    const auto emit = [&](const Entry& entry, std::string_view tier,
                          const LandscapeCell& cell) {
      std::vector<std::pair<std::uint32_t, LandscapeCell>> cells;
      if (!(cell == kDefaultCell)) cells.emplace_back(*server, cell);
      entries.push_back(
          entry_to_json(entry.epoch, tier, "full", cells, entry.health));
    };
    for (const Entry& entry : coarse_) {
      if (!in_window(entry)) continue;
      const LandscapeCell* cell = cell_of(entry.cells, *server);
      emit(entry, "coarse", cell != nullptr ? *cell : kDefaultCell);
    }
    LandscapeCell rolling = recent_.empty() ? kDefaultCell : base_[*server];
    for (const Entry& entry : recent_) {
      if (const LandscapeCell* cell = cell_of(entry.cells, *server)) {
        rolling = *cell;
      }
      if (in_window(entry)) emit(entry, "recent", rolling);
    }
  } else {
    for (const Entry& entry : coarse_) {
      if (!in_window(entry)) continue;
      entries.push_back(entry_to_json(entry.epoch, "coarse", "full",
                                      entry.cells, entry.health));
    }
    std::vector<LandscapeCell> rolling = base_;
    for (const Entry& entry : recent_) {
      apply_cells(entry.cells, rolling);
      if (!in_window(entry)) continue;
      entries.push_back(entry_to_json(entry.epoch, "recent", "full",
                                      sparse_of(rolling), entry.health));
    }
  }
  doc.emplace("entries", json::Value(std::move(entries)));
  return json::Value(std::move(doc));
}

json::Value LandscapeHistory::summary_json() const {
  std::lock_guard lock(mu_);
  const std::size_t retained = recent_.size() + coarse_.size();
  const std::int64_t first_retained =
      !coarse_.empty() ? coarse_.front().epoch
                       : (!recent_.empty() ? recent_.front().epoch : 0);
  double total_population = 0.0;
  std::uint64_t total_matched = 0;
  std::size_t with_interval = 0;
  double width_sum = 0.0;
  for (const LandscapeCell& cell : last_) {
    total_population += cell.population;
    total_matched += cell.matched;
    if (cell.interval90.has_value()) {
      ++with_interval;
      width_sum += cell.interval90->second - cell.interval90->first;
    }
  }
  std::uint64_t stored_cells = 0;
  for (const Entry& entry : recent_) stored_cells += entry.cells.size();
  for (const Entry& entry : coarse_) stored_cells += entry.cells.size();

  json::Object doc;
  doc.emplace("schema", json::Value(std::string(kSummarySchema)));
  doc.emplace("family", json::Value(family_));
  doc.emplace("estimator", json::Value(estimator_));
  doc.emplace("server_count", json::Value(static_cast<double>(server_count_)));
  doc.emplace("epochs_recorded",
              json::Value(static_cast<double>(epochs_recorded_)));
  doc.emplace("epochs_retained", json::Value(static_cast<double>(retained)));
  doc.emplace("first_retained_epoch",
              json::Value(static_cast<double>(first_retained)));
  doc.emplace("last_epoch",
              json::Value(static_cast<double>(
                  !recent_.empty() ? recent_.back().epoch : 0)));
  doc.emplace("total_population", json::Value(total_population));
  doc.emplace("total_matched",
              json::Value(static_cast<double>(total_matched)));
  if (last_health_.has_value()) {
    doc.emplace("health", json::Value(*last_health_));
  }
  doc.emplace("interval_coverage",
              json::Value(server_count_ > 0
                              ? static_cast<double>(with_interval) /
                                    static_cast<double>(server_count_)
                              : 0.0));
  doc.emplace("mean_ci_width",
              json::Value(with_interval > 0
                              ? width_sum / static_cast<double>(with_interval)
                              : 0.0));
  doc.emplace("stored_cells", json::Value(static_cast<double>(stored_cells)));
  doc.emplace("dense_cells",
              json::Value(static_cast<double>(retained) *
                          static_cast<double>(server_count_)));
  return json::Value(std::move(doc));
}

LandscapeSeries parse_landscape_series(const json::Value& doc) {
  if (doc.at("schema").as_string() != kSeriesSchema) {
    throw DataError("landscape series: unexpected schema \"" +
                    doc.at("schema").as_string() + "\"");
  }
  LandscapeSeries series;
  series.family = doc.at("family").as_string();
  series.estimator = doc.at("estimator").as_string();
  const std::int64_t width = doc.at("server_count").as_int();
  if (width < 0) {
    throw DataError("landscape series: negative server_count");
  }
  series.server_count = static_cast<std::size_t>(width);
  series.epochs_recorded =
      static_cast<std::uint64_t>(doc.at("epochs_recorded").as_int());

  std::vector<LandscapeCell> rolling(series.server_count, LandscapeCell{});
  bool have_previous = false;
  for (const json::Value& entry : doc.at("entries").as_array()) {
    const std::string& encoding = entry.at("encoding").as_string();
    if (encoding == "full") {
      rolling.assign(series.server_count, LandscapeCell{});
    } else if (encoding == "delta") {
      if (!have_previous) {
        throw DataError("landscape series: delta entry with no predecessor");
      }
    } else {
      throw DataError("landscape series: unknown encoding \"" + encoding +
                      "\"");
    }
    for (const json::Value& cell_value : entry.at("cells").as_array()) {
      const std::int64_t id = cell_value.at("server").as_int();
      if (id < 0 || static_cast<std::size_t>(id) >= series.server_count) {
        throw DataError("landscape series: server " + std::to_string(id) +
                        " outside width " +
                        std::to_string(series.server_count));
      }
      LandscapeCell cell;
      cell.population = cell_value.at("population").as_double();
      cell.matched =
          static_cast<std::uint64_t>(cell_value.at("matched").as_int());
      const json::Value* lo = cell_value.find("lo");
      const json::Value* hi = cell_value.find("hi");
      if ((lo == nullptr) != (hi == nullptr)) {
        throw DataError("landscape series: cell with only one interval bound");
      }
      if (lo != nullptr) {
        cell.interval90 = {lo->as_double(), hi->as_double()};
      }
      if (const json::Value* approx = cell_value.find("approximate");
          approx != nullptr) {
        cell.approximate = approx->as_bool();
        cell.sketch_rse = cell_value.at("sketch_rse").as_double();
      }
      rolling[static_cast<std::size_t>(id)] = cell;
    }

    LandscapeSnapshot snap;
    snap.epoch = entry.at("epoch").as_int();
    snap.tier = entry.at("tier").as_string();
    if (snap.tier != "recent" && snap.tier != "coarse") {
      throw DataError("landscape series: unknown tier \"" + snap.tier + "\"");
    }
    if (have_previous && snap.epoch <= series.snapshots.back().epoch) {
      throw DataError("landscape series: epochs not strictly increasing at " +
                      std::to_string(snap.epoch));
    }
    snap.servers = rolling;
    if (const json::Value* health = entry.find("health")) {
      snap.health = health->as_string();
    }
    series.snapshots.push_back(std::move(snap));
    have_previous = true;
  }
  return series;
}

}  // namespace botmeter::obs
