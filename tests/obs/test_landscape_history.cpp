// LandscapeHistory: delta-encoded recording, two-tier retention, and the
// canonical documents it is read through — latest, window (whole or one
// server), summary and the full landscape_series.v1 record — plus the parse
// round trip.
#include "obs/landscape_history.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace botmeter::obs {
namespace {

constexpr std::int64_t kMinEpoch = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMaxEpoch = std::numeric_limits<std::int64_t>::max();

LandscapeCell cell(double population, std::uint64_t matched,
                   bool with_interval = true) {
  LandscapeCell c;
  c.population = population;
  c.matched = matched;
  if (with_interval) c.interval90 = {population - 1.0, population + 1.0};
  return c;
}

LandscapeEpochRecord row_of(std::int64_t epoch,
                            std::vector<LandscapeCell> servers,
                            std::optional<std::string> health = std::nullopt) {
  LandscapeEpochRecord row;
  row.epoch = epoch;
  row.family = "newGoZ";
  row.estimator = "bernoulli";
  row.servers = std::move(servers);
  row.health = std::move(health);
  return row;
}

/// The retained snapshots in [from, to], read through the window document.
std::vector<LandscapeSnapshot> window_of(const LandscapeHistory& history,
                                         std::int64_t from, std::int64_t to) {
  return parse_landscape_series(history.window_json(std::nullopt, from, to))
      .snapshots;
}

TEST(LandscapeHistory, RecordsAndExposesLatest) {
  LandscapeHistory history;
  // Before the first record: an entry-less latest document, an empty summary.
  EXPECT_TRUE(history.latest_json().at("entries").as_array().empty());
  const json::Value empty = history.summary_json();
  EXPECT_EQ(empty.at("epochs_recorded").as_int(), 0);
  EXPECT_EQ(empty.at("epochs_retained").as_int(), 0);
  EXPECT_EQ(empty.find("health"), nullptr);

  history.record(row_of(3, {cell(10.0, 100), cell(20.0, 200)}, "ok"));
  history.record(row_of(4, {cell(11.0, 110), cell(20.0, 200)}, "degraded"));

  EXPECT_EQ(history.epochs_recorded(), 2u);
  const LandscapeSeries latest = parse_landscape_series(history.latest_json());
  ASSERT_EQ(latest.snapshots.size(), 1u);
  const LandscapeSnapshot& snap = latest.snapshots[0];
  EXPECT_EQ(snap.epoch, 4);
  EXPECT_EQ(snap.tier, "recent");
  ASSERT_EQ(snap.servers.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.servers[0].population, 11.0);
  EXPECT_EQ(snap.health, std::optional<std::string>("degraded"));

  const json::Value summary = history.summary_json();
  EXPECT_DOUBLE_EQ(summary.at("total_population").as_double(), 31.0);
  EXPECT_EQ(summary.at("total_matched").as_int(), 310);
  EXPECT_EQ(summary.at("health").as_string(), "degraded");
  EXPECT_EQ(summary.at("last_epoch").as_int(), 4);
}

TEST(LandscapeHistory, DeltaEncodingStoresOnlyChangedCells) {
  LandscapeHistory history;
  history.record(row_of(0, {cell(10.0, 1), cell(20.0, 2), cell(30.0, 3)}));
  // Only server 1 moves: the entry should carry exactly one cell.
  auto next = row_of(1, {cell(10.0, 1), cell(21.0, 2), cell(30.0, 3)});
  history.record(next);

  const json::Value summary = history.summary_json();
  // 3 cells for the first (all-change vs default) row + 1 changed cell.
  EXPECT_EQ(summary.at("stored_cells").as_int(), 4);
  EXPECT_EQ(summary.at("dense_cells").as_int(), 6);
  EXPECT_EQ(summary.at("epochs_retained").as_int(), 2);
  EXPECT_DOUBLE_EQ(summary.at("total_population").as_double(), 61.0);
  EXPECT_DOUBLE_EQ(summary.at("interval_coverage").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(summary.at("mean_ci_width").as_double(), 2.0);

  // The delta entry of the full document carries that one cell.
  const json::Value doc = history.to_json();
  const json::Array& entries = doc.at("entries").as_array();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].at("encoding").as_string(), "delta");
  ASSERT_EQ(entries[1].at("cells").as_array().size(), 1u);
  EXPECT_EQ(entries[1].at("cells").as_array()[0].at("server").as_int(), 1);
}

TEST(LandscapeHistory, WindowAndSeriesFilterByEpoch) {
  LandscapeHistory history;
  for (std::int64_t e = 0; e < 6; ++e) {
    history.record(
        row_of(e, {cell(10.0 + static_cast<double>(e), 100), cell(5.0, 50)}));
  }

  const std::vector<LandscapeSnapshot> window = window_of(history, 2, 4);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window.front().epoch, 2);
  EXPECT_EQ(window.back().epoch, 4);
  EXPECT_DOUBLE_EQ(window[1].servers[0].population, 13.0);
  // Unchanged cells reconstruct through the deltas.
  EXPECT_DOUBLE_EQ(window[1].servers[1].population, 5.0);

  // One server's series: the window narrowed to its cell.
  const LandscapeSeries series =
      parse_landscape_series(history.window_json(0, 0, 99));
  ASSERT_EQ(series.snapshots.size(), 6u);
  EXPECT_DOUBLE_EQ(series.snapshots.back().servers[0].population, 15.0);
  EXPECT_DOUBLE_EQ(series.snapshots.back().servers[1].population, 0.0);
  EXPECT_THROW((void)history.window_json(2, 0, 99), ConfigError);
}

TEST(LandscapeHistory, EvictionCoarsensByStride) {
  LandscapeHistoryConfig config;
  config.retain_recent = 3;
  LandscapeHistory history(config);
  // Enough epochs for kRetainCoarse + 2 stride multiples to leave the
  // recent ring.
  constexpr std::int64_t kRecorded =
      (static_cast<std::int64_t>(kRetainCoarse) + 2) * kCoarseStride + 3;
  for (std::int64_t e = 0; e < kRecorded; ++e) {
    history.record(row_of(e, {cell(10.0 + static_cast<double>(e), 100)}));
  }

  // Epochs before the last 3 were evicted; only stride multiples survive,
  // bounded to the last kRetainCoarse of them (0 and kCoarseStride fell
  // off).
  const std::vector<LandscapeSnapshot> window =
      window_of(history, 0, kRecorded);
  ASSERT_EQ(window.size(), kRetainCoarse + 3);
  for (std::size_t i = 0; i < kRetainCoarse; ++i) {
    EXPECT_EQ(window[i].tier, "coarse");
    EXPECT_EQ(window[i].epoch,
              (static_cast<std::int64_t>(i) + 2) * kCoarseStride);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(window[kRetainCoarse + i].tier, "recent");
    EXPECT_EQ(window[kRetainCoarse + i].epoch,
              kRecorded - 3 + static_cast<std::int64_t>(i));
  }
  // Coarse rows are full reconstructions, not bare deltas.
  EXPECT_DOUBLE_EQ(window[0].servers[0].population,
                   10.0 + static_cast<double>(2 * kCoarseStride));

  const json::Value summary = history.summary_json();
  EXPECT_EQ(summary.at("epochs_recorded").as_int(), kRecorded);
  EXPECT_EQ(summary.at("epochs_retained").as_int(),
            static_cast<std::int64_t>(kRetainCoarse + 3));
  EXPECT_EQ(summary.at("first_retained_epoch").as_int(), 2 * kCoarseStride);
  EXPECT_EQ(summary.at("last_epoch").as_int(), kRecorded - 1);
}

TEST(LandscapeHistory, ToJsonParsesBackToTheRetainedWindow) {
  LandscapeHistoryConfig config;
  config.retain_recent = 4;
  LandscapeHistory history(config);
  for (std::int64_t e = 0; e < 9; ++e) {
    std::optional<std::string> health =
        e % 2 == 0 ? std::optional<std::string>("ok") : std::nullopt;
    const double fe = static_cast<double>(e);
    history.record(
        row_of(e,
               {cell(10.0 + fe, 100 + static_cast<std::uint64_t>(e)),
                cell(0.5 * fe, 7, /*with_interval=*/false)},
               health));
  }

  const json::Value doc = history.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "botmeter.landscape_series.v1");
  EXPECT_EQ(doc.at("family").as_string(), "newGoZ");
  EXPECT_EQ(doc.at("server_count").as_int(), 2);
  // Epochs 0..4 left the recent ring; epoch 0 survived coarsening.
  EXPECT_EQ(doc.at("entries").as_array().front().at("tier").as_string(),
            "coarse");
  // The retention object every landscape_series.v1 document carries.
  const json::Value& retention = doc.at("retention");
  EXPECT_EQ(retention.at("coarse_stride").as_int(), 16);
  EXPECT_EQ(retention.at("retain_coarse").as_int(), 512);
  EXPECT_EQ(retention.at("retain_recent").as_int(), 4);
  // Byte-stable writer: same state, same bytes.
  EXPECT_EQ(json::write(doc), json::write(history.to_json()));

  const LandscapeSeries series = parse_landscape_series(doc);
  EXPECT_EQ(series.family, "newGoZ");
  EXPECT_EQ(series.estimator, "bernoulli");
  EXPECT_EQ(series.server_count, 2u);
  EXPECT_EQ(series.epochs_recorded, 9u);
  // The delta-encoded document parses to exactly the retained window, which
  // the window document reconstructs independently (every row in full).
  const std::vector<LandscapeSnapshot> window =
      window_of(history, kMinEpoch, kMaxEpoch);
  ASSERT_EQ(series.snapshots.size(), window.size());
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(series.snapshots[i], window[i]) << "snapshot " << i;
  }
  // The first recent entry is materialized full, so the document is
  // self-contained even after eviction.
  const json::Array& entries = doc.at("entries").as_array();
  for (const json::Value& entry : entries) {
    if (entry.at("tier").as_string() == "recent") {
      EXPECT_EQ(entry.at("encoding").as_string(), "full");
      break;
    }
  }
}

TEST(LandscapeHistory, LatestAndWindowDocuments) {
  LandscapeHistory history;
  history.record(row_of(0, {cell(10.0, 1), cell(0.0, 0, false)}));
  history.record(row_of(1, {cell(12.0, 2), cell(3.0, 4)}));

  const json::Value latest = history.latest_json();
  ASSERT_EQ(latest.at("entries").as_array().size(), 1u);
  const LandscapeSeries latest_series = parse_landscape_series(latest);
  ASSERT_EQ(latest_series.snapshots.size(), 1u);
  EXPECT_EQ(latest_series.snapshots[0].epoch, 1);
  EXPECT_DOUBLE_EQ(latest_series.snapshots[0].servers[0].population, 12.0);
  EXPECT_DOUBLE_EQ(latest_series.snapshots[0].servers[1].population, 3.0);

  // Narrowed to one server: every entry carries at most that server's cell.
  const json::Value narrowed = history.window_json(1, 0, 99);
  EXPECT_EQ(narrowed.at("server").as_int(), 1);
  const LandscapeSeries narrowed_series = parse_landscape_series(narrowed);
  ASSERT_EQ(narrowed_series.snapshots.size(), 2u);
  EXPECT_DOUBLE_EQ(narrowed_series.snapshots[1].servers[1].population, 3.0);
  EXPECT_DOUBLE_EQ(narrowed_series.snapshots[1].servers[0].population, 0.0);
  EXPECT_THROW((void)history.window_json(9, 0, 99), ConfigError);

  const json::Value summary = history.summary_json();
  EXPECT_EQ(summary.at("schema").as_string(),
            "botmeter.landscape_summary.v1");
  EXPECT_DOUBLE_EQ(summary.at("total_population").as_double(), 15.0);
  EXPECT_EQ(summary.at("dense_cells").as_int(), 4);
}

TEST(LandscapeHistory, OneServerWindowIsTheWholeWindowNarrowed) {
  // Coarse and recent tiers after eviction: retain_recent 5 over epochs that
  // cross four kCoarseStride multiples. Sparse rows whose cells change,
  // vanish and come back, so the recent deltas roll a non-default base.
  LandscapeHistoryConfig config;
  config.retain_recent = 5;
  LandscapeHistory history(config);
  constexpr std::uint32_t kServers = 6;
  constexpr std::int64_t kEpochs = 4 * kCoarseStride + 9;
  for (std::int64_t e = 0; e < kEpochs; ++e) {
    std::vector<LandscapeCell> servers(kServers);
    for (std::uint32_t s = 0; s < kServers; ++s) {
      const std::int64_t phase = (e / (s + 1) + s) % 4;
      if (phase == 0) continue;  // default cell
      servers[s] = cell(static_cast<double>(phase + s), s + 1, phase != 2);
      if (phase == 3 && s % 2 == 0) {
        servers[s].approximate = true;
        servers[s].sketch_rse = 0.25;
      }
    }
    history.record(row_of(e, std::move(servers),
                          e % 3 == 0 ? std::optional<std::string>("ok")
                                     : std::nullopt));
  }
  // The last coarse epoch is 4 * kCoarseStride; the recent ring starts at
  // kEpochs - 5.
  const std::int64_t last_coarse = 4 * kCoarseStride;
  const std::int64_t first_recent = kEpochs - 5;
  ASSERT_LT(last_coarse, first_recent);
  const std::pair<std::int64_t, std::int64_t> windows[] = {
      {kMinEpoch, kMaxEpoch},                  // everything
      {0, last_coarse},                        // coarse only
      {first_recent, kEpochs - 1},             // recent only
      {last_coarse, first_recent},             // one of each side
      {2 * kCoarseStride, first_recent + 2},   // straddles the tiers
      {first_recent + 1, first_recent + 3},    // inside the recent ring
      {last_coarse + 1, first_recent - 1},     // the evicted gap: empty
      {5, 4},                                  // empty range
  };
  for (const auto& [from, to] : windows) {
    const json::Value whole = history.window_json(std::nullopt, from, to);
    const json::Array& whole_entries = whole.at("entries").as_array();
    for (std::uint32_t s = 0; s < kServers; ++s) {
      SCOPED_TRACE("window [" + std::to_string(from) + ", " +
                   std::to_string(to) + "] server " + std::to_string(s));
      const json::Value one = history.window_json(s, from, to);
      json::Object header = one.as_object();
      EXPECT_EQ(header.at("server").as_int(), s);
      header.erase("server");
      header.erase("entries");
      json::Object whole_header = whole.as_object();
      whole_header.erase("entries");
      EXPECT_EQ(json::write(json::Value(header)),
                json::write(json::Value(whole_header)));
      const json::Array& one_entries = one.at("entries").as_array();
      ASSERT_EQ(one_entries.size(), whole_entries.size());
      for (std::size_t i = 0; i < whole_entries.size(); ++i) {
        json::Object narrowed = whole_entries[i].as_object();
        json::Array cells;
        for (const json::Value& c : narrowed.at("cells").as_array()) {
          if (c.at("server").as_int() == s) cells.push_back(c);
        }
        narrowed.insert_or_assign("cells", json::Value(std::move(cells)));
        EXPECT_EQ(json::write(one_entries[i]),
                  json::write(json::Value(std::move(narrowed))))
            << "entry " << i;
      }
    }
  }
  // Straddling windows do hold both tiers.
  const json::Array straddle =
      history.window_json(2, last_coarse, first_recent).at("entries").as_array();
  ASSERT_EQ(straddle.size(), 2u);
  EXPECT_EQ(straddle[0].at("tier").as_string(), "coarse");
  EXPECT_EQ(straddle[1].at("tier").as_string(), "recent");
  // Before the first record any server reads an empty window.
  const LandscapeHistory empty;
  EXPECT_TRUE(empty.window_json(3, kMinEpoch, kMaxEpoch)
                  .at("entries").as_array().empty());
}

TEST(LandscapeHistory, RejectsIdentityAndOrderViolations) {
  LandscapeHistory history;
  EXPECT_THROW(history.record(row_of(0, {})), ConfigError);
  history.record(row_of(5, {cell(1.0, 1)}));

  auto other_family = row_of(6, {cell(1.0, 1)});
  other_family.family = "Ramnit";
  EXPECT_THROW(history.record(other_family), ConfigError);

  EXPECT_THROW(history.record(row_of(6, {cell(1.0, 1), cell(2.0, 2)})),
               ConfigError);
  EXPECT_THROW(history.record(row_of(5, {cell(1.0, 1)})), ConfigError);
  EXPECT_THROW(history.record(row_of(4, {cell(1.0, 1)})), ConfigError);

  LandscapeHistoryConfig bad;
  bad.retain_recent = 0;
  EXPECT_THROW(LandscapeHistory{bad}, ConfigError);
}

TEST(ParseLandscapeSeries, RejectsMalformedDocuments) {
  const auto doc_with = [](const std::string& entries) {
    return json::parse(
        "{\"schema\":\"botmeter.landscape_series.v1\",\"family\":\"f\","
        "\"estimator\":\"e\",\"server_count\":2,\"epochs_recorded\":1,"
        "\"entries\":[" + entries + "]}");
  };

  EXPECT_THROW((void)parse_landscape_series(json::parse(
                   "{\"schema\":\"botmeter.unknown.v9\"}")),
               DataError);
  // A delta entry with no predecessor cannot be reconstructed.
  EXPECT_THROW(
      (void)parse_landscape_series(doc_with(
          "{\"cells\":[],\"encoding\":\"delta\",\"epoch\":0,\"tier\":\"recent\"}")),
      DataError);
  EXPECT_THROW(
      (void)parse_landscape_series(doc_with(
          "{\"cells\":[],\"encoding\":\"rle\",\"epoch\":0,\"tier\":\"recent\"}")),
      DataError);
  EXPECT_THROW(
      (void)parse_landscape_series(doc_with(
          "{\"cells\":[],\"encoding\":\"full\",\"epoch\":0,\"tier\":\"hot\"}")),
      DataError);
  // Server id outside the declared width.
  EXPECT_THROW(
      (void)parse_landscape_series(doc_with(
          "{\"cells\":[{\"server\":2,\"population\":1,\"matched\":0}],"
          "\"encoding\":\"full\",\"epoch\":0,\"tier\":\"recent\"}")),
      DataError);
  // A lone interval bound.
  EXPECT_THROW(
      (void)parse_landscape_series(doc_with(
          "{\"cells\":[{\"server\":0,\"population\":1,\"matched\":0,"
          "\"lo\":0.5}],\"encoding\":\"full\",\"epoch\":0,\"tier\":\"recent\"}")),
      DataError);
  // Epochs must be strictly increasing.
  EXPECT_THROW(
      (void)parse_landscape_series(doc_with(
          "{\"cells\":[],\"encoding\":\"full\",\"epoch\":3,\"tier\":\"recent\"},"
          "{\"cells\":[],\"encoding\":\"full\",\"epoch\":3,\"tier\":\"recent\"}")),
      DataError);
}

}  // namespace
}  // namespace botmeter::obs
