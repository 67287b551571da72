// Bounded-memory streaming (DESIGN.md §13): the compact-state spill path of
// stream::StreamEngine. Unspilled cells must stay byte-identical to the
// exact engine, spilled state must checkpoint/restore bit-identically (also
// from checkpoints in the older key layout, and never by sizing a cell from
// a tampered document), and the byte accounting must show the bound the
// sketches buy.
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "botnet/simulator.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/botmeter.hpp"
#include "dga/families.hpp"
#include "stream/stream_engine.hpp"

namespace botmeter::stream {
namespace {

constexpr std::size_t kSmallThreshold = 64;

StreamEngineConfig base_config(std::int64_t epochs, std::size_t servers) {
  StreamEngineConfig config;
  config.meter.dga = dga::newgoz_config();
  config.first_epoch = 0;
  config.epoch_count = epochs;
  config.server_count = servers;
  return config;
}

StreamEngineConfig compact_config(std::int64_t epochs, std::size_t servers,
                                  std::size_t threshold = kSmallThreshold,
                                  std::uint32_t kmv_k = 64) {
  StreamEngineConfig config = base_config(epochs, servers);
  config.compact_state = true;
  config.compact_spill_threshold = threshold;
  config.compact.kmv_k = kmv_k;
  return config;
}

std::vector<dns::ForwardedLookup> simulate_stream(
    std::uint32_t bots, std::int64_t epochs, std::size_t servers,
    std::uint64_t seed, const dga::DgaConfig& family = dga::newgoz_config()) {
  botnet::SimulationConfig sim;
  sim.dga = family;
  sim.bot_count = bots;
  sim.server_count = servers;
  sim.epoch_count = epochs;
  sim.seed = seed;
  sim.record_raw = false;
  return botnet::simulate(sim).observable;
}

// Mid-feed checkpoints of two compact engines (2 servers, 2 epochs, spill
// threshold 32, kmv_k 16), cut after the first half of
// simulate_stream(24, 2, 2, seed, family), each with the landscape finish()
// gave on the rest of that feed. They were written while the compact
// fingerprint still carried compact_cms_depth, compact_cms_width,
// compact_max_time_slots and compact_position_counts, and every cell spec
// cms_depth and cms_width: restore must ignore those keys. The newGoZ
// (Bernoulli) engine holds spilled KMV cells, the Murofet (Poisson) one
// spilled slot-grid cells.
constexpr const char* kLegacyNewGoZCheckpoint =
    R"({"closed":[],"compact_spills":3,"config":{"compact_cms_depth":4,)"
    R"("compact_cms_width":256,"compact_kmv_k":16,)"
    R"("compact_max_time_slots":4096,"compact_position_counts":false,)"
    R"("compact_spill_threshold":32,"compact_state":true,)"
    R"("detection_miss_rate":0,"dga_seed":1196382770,"epoch_count":2,)"
    R"("estimator":"","family":"newGoZ","first_epoch":0,)"
    R"("neg_ttl_ms":7200000,"server_count":2,"window_seed":7},)"
    R"("finished":false,"ingested":10697,"late_dropped":0,"matched":10697,)"
    R"("open":[{"compact":{"first_ms":2773900,"kmv":{"k":16,)"
    R"("saturated":true,"values":[7326,8715,8485,7986,8569,7552,5110,196,)"
    R"(6871,6918,5335,6824,7801,8268,295,7432]},"last_ms":86372800,)"
    R"("matched":5328,"nxd":5327,"spec":{"cms_depth":0,"cms_width":0,)"
    R"("kmv_k":16,"slot_count":0,"window_ms":86400000,"window_start_ms":0},)"
    R"("valid":1},"epoch":0,"pos":[],"server":0,"t":[],"valid":[]},)"
    R"({"compact":{"first_ms":1323600,"kmv":{"k":16,"saturated":true,)"
    R"("values":[1048,6426,992,6384,1144,4303,1223,7986,9047,2317,6433,)"
    R"(5110,196,1035,472,8994]},"last_ms":80511200,"matched":4959,)"
    R"("nxd":4955,"spec":{"cms_depth":0,"cms_width":0,"kmv_k":16,)"
    R"("slot_count":0,"window_ms":86400000,"window_start_ms":0},"valid":4},)"
    R"("epoch":0,"pos":[],"server":1,"t":[],"valid":[]},)"
    R"({"compact":{"first_ms":86980600,"kmv":{"k":16,"saturated":true,)"
    R"("values":[6871,6918,6896,6892,6933,6997,7234,6843,7245,7165,7003,)"
    R"(7146,7225,6974,7129,7035]},"last_ms":87389600,"matched":410,)"
    R"("nxd":410,"spec":{"cms_depth":0,"cms_width":0,"kmv_k":16,)"
    R"("slot_count":0,"window_ms":86400000,"window_start_ms":86400000},)"
    R"("valid":0},"epoch":1,"pos":[],"server":1,"t":[],"valid":[]}],)"
    R"("peak_resident":10697,"schema":"botmeter.stream_checkpoint.v1",)"
    R"("unmatched":0,"watermark_ms":87389600})";

constexpr const char* kLegacyNewGoZLandscape =
    R"({"estimator":"bernoulli","servers":[{"approximate":true,)"
    R"("interval90_hi":10.386346098035574,)"
    R"("interval90_lo":2.6450824895873666,"matched_lookups":11328,)"
    R"("per_epoch":[[0,4.968602215871215],[1,7.317330161109567]],)"
    R"("population":6.142966188490391,"server":0,)"
    R"("sketch_rse":0.2672612419124244},{"approximate":true,)"
    R"("interval90_hi":21.423735013231635,)"
    R"("interval90_lo":4.9236450283788145,"matched_lookups":10067,)"
    R"("per_epoch":[[0,7.853325765579939],[1,14.855295088142157]],)"
    R"("population":11.354310426861048,"server":1,)"
    R"("sketch_rse":0.2672612419124244}]})";

constexpr const char* kLegacyMurofetCheckpoint =
    R"({"closed":[],"compact_spills":4,"config":{"compact_cms_depth":4,)"
    R"("compact_cms_width":256,"compact_kmv_k":16,)"
    R"("compact_max_time_slots":4096,"compact_position_counts":false,)"
    R"("compact_spill_threshold":32,"compact_state":true,)"
    R"("detection_miss_rate":0,"dga_seed":1297437263,"epoch_count":2,)"
    R"("estimator":"","family":"Murofet","first_epoch":0,)"
    R"("neg_ttl_ms":7200000,"server_count":2,"window_seed":7},)"
    R"("finished":false,"ingested":5282,"late_dropped":0,"matched":5282,)"
    R"("open":[{"compact":{"first_ms":10056300,"last_ms":82736500,)"
    R"("matched":2341,"nxd":2340,"slot_counts":[0,0,468,0,0,0,468,0,0,0,0,)"
    R"(0,0,0,0,468,0,0,0,468,0,0,0,468,0],"slot_min_ms":[0,0,10056300,0,0,)"
    R"(0,23255200,0,0,0,0,0,0,0,0,52811700,0,0,0,66950900,0,0,0,82503000,)"
    R"(0],"spec":{"cms_depth":0,"cms_width":0,"kmv_k":0,"slot_count":25,)"
    R"("window_ms":86400000,"window_start_ms":0},"valid":1},"epoch":0,)"
    R"("pos":[],"server":0,"t":[],"valid":[]},)"
    R"({"compact":{"first_ms":96593800,"last_ms":96647800,"matched":109,)"
    R"("nxd":109,"slot_counts":[0,0,109,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,)"
    R"(0,0,0,0,0],"slot_min_ms":[0,0,96593800,0,0,0,0,0,0,0,0,0,0,0,0,0,0,)"
    R"(0,0,0,0,0,0,0,0],"spec":{"cms_depth":0,"cms_width":0,"kmv_k":0,)"
    R"("slot_count":25,"window_ms":86400000,"window_start_ms":86400000},)"
    R"("valid":0},"epoch":1,"pos":[],"server":0,"t":[],"valid":[]},)"
    R"({"compact":{"first_ms":18461400,"last_ms":67209400,"matched":2341,)"
    R"("nxd":2340,"slot_counts":[0,0,0,0,0,468,0,468,0,0,468,0,0,0,468,0,0,)"
    R"(0,0,468,0,0,0,0,0],"slot_min_ms":[0,0,0,0,0,18461400,0,27351200,0,0,)"
    R"(35564300,0,0,0,48840900,0,0,0,0,66975900,0,0,0,0,0],)"
    R"("spec":{"cms_depth":0,"cms_width":0,"kmv_k":0,"slot_count":25,)"
    R"("window_ms":86400000,"window_start_ms":0},"valid":1},"epoch":0,)"
    R"("pos":[],"server":1,"t":[],"valid":[]},)"
    R"({"compact":{"first_ms":90084200,"last_ms":90329200,"matched":491,)"
    R"("nxd":490,"slot_counts":[0,490,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,)"
    R"(0,0,0,0,0],"slot_min_ms":[0,90084200,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,)"
    R"(0,0,0,0,0,0,0,0],"spec":{"cms_depth":0,"cms_width":0,"kmv_k":0,)"
    R"("slot_count":25,"window_ms":86400000,"window_start_ms":86400000},)"
    R"("valid":1},"epoch":1,"pos":[],"server":1,"t":[],"valid":[]}],)"
    R"("peak_resident":5282,"schema":"botmeter.stream_checkpoint.v1",)"
    R"("unmatched":0,"watermark_ms":96647800})";

constexpr const char* kLegacyMurofetLandscape =
    R"({"estimator":"poisson","servers":[{"approximate":true,)"
    R"("interval90_hi":19.14378602618229,"interval90_lo":5,)"
    R"("matched_lookups":4792,"per_epoch":[[0,6.681414446120328],[1,)"
    R"(7.042345648494989]],"population":6.861880047307659,"server":0,)"
    R"("sketch_rse":0.36508147781939876},{"approximate":true,)"
    R"("interval90_hi":35.90580480617811,"interval90_lo":6,)"
    R"("matched_lookups":5772,"per_epoch":[[0,7.77201323347976],[1,)"
    R"(13.339538609031225]],"population":10.555775921255492,"server":1,)"
    R"("sketch_rse":0.587163088722498}]})";

struct LegacyCase {
  const char* checkpoint;
  const char* landscape;
  dga::DgaConfig family;
  std::uint64_t seed;
};

std::vector<LegacyCase> legacy_cases() {
  return {{kLegacyNewGoZCheckpoint, kLegacyNewGoZLandscape,
           dga::newgoz_config(), 5},
          {kLegacyMurofetCheckpoint, kLegacyMurofetLandscape,
           dga::murofet_config(), 6}};
}

StreamEngineConfig legacy_config(const dga::DgaConfig& family) {
  StreamEngineConfig config = compact_config(2, 2, /*threshold=*/32,
                                             /*kmv_k=*/16);
  config.meter.dga = family;
  return config;
}

/// The tuples after the checkpoint's cut.
std::vector<dns::ForwardedLookup> legacy_rest(const LegacyCase& legacy) {
  auto feed = simulate_stream(24, 2, 2, legacy.seed, legacy.family);
  feed.erase(feed.begin(),
             feed.begin() + static_cast<std::ptrdiff_t>(feed.size() / 2));
  return feed;
}

/// `value` without the keys compact checkpoints no longer write.
json::Value without_legacy_keys(const json::Value& value) {
  static const std::set<std::string> kLegacyKeys = {
      "compact_cms_depth",      "compact_cms_width", "compact_max_time_slots",
      "compact_position_counts", "cms_depth",        "cms_width"};
  if (value.is_array()) {
    json::Array out;
    for (const json::Value& item : value.as_array()) {
      out.push_back(without_legacy_keys(item));
    }
    return json::Value(std::move(out));
  }
  if (!value.is_object()) return value;
  json::Object out;
  for (const auto& [key, member] : value.as_object()) {
    if (!kLegacyKeys.contains(key)) {
      out.emplace(key, without_legacy_keys(member));
    }
  }
  return json::Value(std::move(out));
}

/// The recorded newGoZ checkpoint with the first occurrence of `from` (in
/// the cell of open bucket (server 0, epoch 0)) replaced by `to`.
std::string tampered_legacy_checkpoint(const std::string& from,
                                       const std::string& to) {
  std::string text = kLegacyNewGoZCheckpoint;
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

/// Restoring `tampered` must fail with a DataError naming the bucket before
/// any cell is sized from it, and leave the engine empty and usable.
void expect_tampered_cell_rejected(const std::string& tampered) {
  const LegacyCase legacy = legacy_cases()[0];
  StreamEngine engine(legacy_config(legacy.family));
  try {
    engine.restore(json::parse(tampered));
    ADD_FAILURE() << "tampered cell restored";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("(server 0, epoch 0)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine.ingested(), 0u);
  EXPECT_EQ(engine.open_buffer_bytes(), 0u);
  engine.restore(json::parse(legacy.checkpoint));
  engine.ingest(legacy_rest(legacy));
  EXPECT_EQ(json::write(core::landscape_to_json(engine.finish())),
            legacy.landscape);
}

TEST(CompactStateTest, UnspilledCellsAreByteIdenticalToExactEngine) {
  // A threshold no bucket reaches keeps every cell exact: the compact
  // engine's landscape must serialize to the same bytes as the exact one,
  // with nothing flagged approximate and zero spills.
  const auto stream = simulate_stream(16, 2, 2, 61);
  StreamEngine exact(base_config(2, 2));
  exact.ingest(stream);
  const std::string exact_json = json::write(
      core::landscape_to_json(exact.finish()));

  StreamEngine compact(compact_config(2, 2, /*threshold=*/1u << 30));
  compact.ingest(stream);
  const core::LandscapeReport report = compact.finish();
  EXPECT_EQ(json::write(core::landscape_to_json(report)), exact_json);
  EXPECT_EQ(compact.compact_spills(), 0u);
  for (const core::ServerEstimate& s : report.servers) {
    EXPECT_FALSE(s.approximate);
  }
}

TEST(CompactStateTest, SpilledRunBoundsBytesAndFlagsEstimates) {
  const auto stream = simulate_stream(64, 2, 2, 63);

  StreamEngine exact(base_config(2, 2));
  exact.ingest(stream);
  (void)exact.finish();

  StreamEngine compact(compact_config(2, 2));
  compact.ingest(stream);
  const core::LandscapeReport report = compact.finish();

  EXPECT_GT(compact.compact_spills(), 0u);
  EXPECT_LT(compact.peak_open_buffer_bytes(), exact.peak_open_buffer_bytes());
  EXPECT_EQ(compact.open_buffer_bytes(), 0u);  // everything closed
  EXPECT_GE(compact.peak_open_buffer_bytes(), 1u);

  // Spilled cells saturate the small KMV, so their statistics are flagged
  // with a propagated error bound.
  bool any_flagged = false;
  for (const core::ServerEstimate& s : report.servers) {
    if (s.approximate) {
      any_flagged = true;
      EXPECT_GT(s.sketch_rse, 0.0);
    }
  }
  EXPECT_TRUE(any_flagged);
}

TEST(CompactStateTest, SpilledCheckpointRoundTripContinuesBitIdentically) {
  const auto stream = simulate_stream(64, 3, 2, 65);
  ASSERT_GT(stream.size(), 100u);

  StreamEngine reference(compact_config(3, 2));
  reference.ingest(stream);
  const core::LandscapeReport want = reference.finish();
  ASSERT_GT(reference.compact_spills(), 0u);

  // Checkpoint after 60% — far past the spill threshold, so serialized
  // sketch state (not just exact buffers) crosses the restart.
  const std::size_t split = (stream.size() * 3) / 5;
  std::string checkpoint_text;
  {
    StreamEngine first(compact_config(3, 2));
    first.ingest(std::span<const dns::ForwardedLookup>(stream).first(split));
    EXPECT_GT(first.compact_spills(), 0u);
    checkpoint_text = json::write(first.checkpoint());
    // Byte-stable through a parse/write cycle.
    EXPECT_EQ(json::write(json::parse(checkpoint_text)), checkpoint_text);
  }
  StreamEngine resumed(compact_config(3, 2));
  resumed.restore(json::parse(checkpoint_text));
  resumed.ingest(std::span<const dns::ForwardedLookup>(stream).subspan(split));
  const core::LandscapeReport got = resumed.finish();

  EXPECT_EQ(json::write(core::landscape_to_json(got)),
            json::write(core::landscape_to_json(want)));
  EXPECT_EQ(resumed.ingested(), reference.ingested());
  EXPECT_EQ(resumed.compact_spills(), reference.compact_spills());
}

TEST(CompactStateTest, ExactCheckpointRestoresIntoCompactEngineAndSpills) {
  // Upgrading a monitor to bounded memory mid-horizon: an exact checkpoint
  // restores into a compact engine, whose over-threshold buffers spill on
  // load; the continued run equals a compact run over the whole stream.
  const auto stream = simulate_stream(64, 2, 2, 67);
  const std::size_t split = stream.size() / 2;

  StreamEngine whole(compact_config(2, 2));
  whole.ingest(stream);
  const core::LandscapeReport want = whole.finish();

  std::string checkpoint_text;
  {
    StreamEngine exact(base_config(2, 2));
    exact.ingest(std::span<const dns::ForwardedLookup>(stream).first(split));
    checkpoint_text = json::write(exact.checkpoint());
  }
  StreamEngine upgraded(compact_config(2, 2));
  upgraded.restore(json::parse(checkpoint_text));
  EXPECT_GT(upgraded.compact_spills(), 0u);  // spilled on load
  upgraded.ingest(std::span<const dns::ForwardedLookup>(stream).subspan(split));
  EXPECT_EQ(json::write(core::landscape_to_json(upgraded.finish())),
            json::write(core::landscape_to_json(want)));
}

TEST(CompactStateTest, CompactCheckpointRejectedByExactEngine) {
  const auto stream = simulate_stream(64, 2, 2, 69);
  StreamEngine compact(compact_config(2, 2));
  compact.ingest(
      std::span<const dns::ForwardedLookup>(stream).first(stream.size() / 2));
  ASSERT_GT(compact.compact_spills(), 0u);
  const json::Value checkpoint = compact.checkpoint();

  StreamEngine exact(base_config(2, 2));
  EXPECT_THROW(exact.restore(checkpoint), DataError);
}

TEST(CompactStateTest, ConstructorRejectsEstimatorsWithoutCompactPath) {
  for (const char* estimator :
       {"timing", "bernoulli-segment", "hybrid(bernoulli+timing)"}) {
    StreamEngineConfig config = compact_config(2, 2);
    config.meter.estimator = estimator;
    EXPECT_THROW(StreamEngine{config}, ConfigError) << estimator;
  }
}

TEST(CompactStateTest, OpenByteAccountingTracksSpills) {
  const auto stream = simulate_stream(64, 1, 1, 71);
  StreamEngine engine(compact_config(1, 1));
  std::size_t last_peak = 0;
  for (const dns::ForwardedLookup& lookup : stream) {
    engine.ingest(lookup);
    EXPECT_LE(engine.open_buffer_bytes(), engine.peak_open_buffer_bytes());
    EXPECT_GE(engine.peak_open_buffer_bytes(), last_peak);
    last_peak = engine.peak_open_buffer_bytes();
  }
  ASSERT_GT(engine.compact_spills(), 0u);
  // One spilled cell per (server, epoch): resident state is the constant
  // cell footprint, far below the spill threshold's worth of raw lookups.
  EXPECT_LT(engine.open_buffer_bytes(),
            kSmallThreshold * sizeof(detect::MatchedLookup) * 4);
  (void)engine.finish();
  EXPECT_EQ(engine.open_buffer_bytes(), 0u);
}

TEST(CompactStateTest, LegacyCheckpointResumesToRecordedLandscape) {
  for (const LegacyCase& legacy : legacy_cases()) {
    SCOPED_TRACE(legacy.family.name);
    StreamEngine engine(legacy_config(legacy.family));
    engine.restore(json::parse(legacy.checkpoint));
    engine.ingest(legacy_rest(legacy));
    EXPECT_EQ(json::write(core::landscape_to_json(engine.finish())),
              legacy.landscape);
  }
}

TEST(CompactStateTest, LegacyCheckpointReCheckpointsWithoutLegacyKeys) {
  for (const LegacyCase& legacy : legacy_cases()) {
    SCOPED_TRACE(legacy.family.name);
    StreamEngine engine(legacy_config(legacy.family));
    const json::Value recorded = json::parse(legacy.checkpoint);
    engine.restore(recorded);
    EXPECT_EQ(json::write(engine.checkpoint()),
              json::write(without_legacy_keys(recorded)));
  }
}

// Each tampered size below would ask for tens of GB if the cell were built
// before its shape is checked against the engine's spec.
TEST(CompactStateTest, TamperedCellSpecKmvKRejectedBeforeAllocating) {
  expect_tampered_cell_rejected(tampered_legacy_checkpoint(
      R"("kmv_k":16,"slot_count")", R"("kmv_k":2147483647,"slot_count")"));
}

TEST(CompactStateTest, TamperedCellSpecSlotCountRejectedBeforeAllocating) {
  expect_tampered_cell_rejected(tampered_legacy_checkpoint(
      R"("slot_count":0)", R"("slot_count":4294967295)"));
}

TEST(CompactStateTest, TamperedCellKmvKRejectedBeforeAllocating) {
  expect_tampered_cell_rejected(tampered_legacy_checkpoint(
      R"("kmv":{"k":16,)", R"("kmv":{"k":2147483647,)"));
}

}  // namespace
}  // namespace botmeter::stream
