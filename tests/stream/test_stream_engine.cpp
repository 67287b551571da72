// Streaming-vs-batch equivalence and the online semantics of
// stream::StreamEngine: the end-of-horizon landscape must be bit-identical
// to core::BotMeter::analyze on the same stream — per family, per estimator,
// for 1 or 8 worker threads, and when arrivals are displaced inside the
// allowed lateness — while memory stays bounded by the active epoch window.
#include "stream/stream_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "botnet/simulator.hpp"
#include "cluster/cluster_runtime.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/botmeter.hpp"
#include "dga/families.hpp"
#include "estimators/library.hpp"
#include "obs/metrics.hpp"
#include "stream/health_monitor.hpp"
#include "trace/block.hpp"

namespace botmeter::stream {
namespace {

struct Scenario {
  dga::DgaConfig dga;
  std::uint32_t bots = 16;
  std::size_t servers = 2;
  std::int64_t first_epoch = 0;
  std::int64_t epochs = 2;
  std::uint64_t seed = 5;
  double miss_rate = 0.0;
  Duration granularity = milliseconds(100);
};

std::vector<dns::ForwardedLookup> simulate_stream(const Scenario& s) {
  botnet::SimulationConfig sim;
  sim.dga = s.dga;
  sim.bot_count = s.bots;
  sim.server_count = s.servers;
  sim.first_epoch = s.first_epoch;
  sim.epoch_count = s.epochs;
  sim.seed = s.seed;
  sim.timestamp_granularity = s.granularity;
  sim.record_raw = false;
  return botnet::simulate(sim).observable;
}

core::BotMeterConfig meter_config(const Scenario& s,
                                  const std::string& estimator) {
  core::BotMeterConfig config;
  config.dga = s.dga;
  config.estimator = estimator;
  config.detection_miss_rate = s.miss_rate;
  return config;
}

core::LandscapeReport batch_report(
    const Scenario& s, const std::string& estimator,
    std::span<const dns::ForwardedLookup> stream) {
  core::BotMeter meter(meter_config(s, estimator));
  meter.prepare_epochs(s.first_epoch, s.epochs);
  return meter.analyze(stream, s.servers);
}

StreamEngineConfig engine_config(const Scenario& s,
                                 const std::string& estimator,
                                 std::size_t threads) {
  StreamEngineConfig config;
  config.meter = meter_config(s, estimator);
  config.first_epoch = s.first_epoch;
  config.epoch_count = s.epochs;
  config.server_count = s.servers;
  config.meter.analyze_threads = threads;
  return config;
}

/// Bit-exact LandscapeReport comparison: every double compared with ==, not
/// a tolerance — the streaming path must produce the identical result.
void expect_bit_identical(const core::LandscapeReport& streamed,
                          const core::LandscapeReport& batch,
                          const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(streamed.estimator_name, batch.estimator_name);
  ASSERT_EQ(streamed.servers.size(), batch.servers.size());
  for (std::size_t i = 0; i < batch.servers.size(); ++i) {
    const core::ServerEstimate& a = streamed.servers[i];
    const core::ServerEstimate& b = batch.servers[i];
    EXPECT_EQ(a.server, b.server);
    EXPECT_EQ(a.population, b.population);
    EXPECT_EQ(a.matched_lookups, b.matched_lookups);
    EXPECT_EQ(a.per_epoch, b.per_epoch);
    ASSERT_EQ(a.interval90.has_value(), b.interval90.has_value());
    if (a.interval90) {
      EXPECT_EQ(a.interval90->first, b.interval90->first);
      EXPECT_EQ(a.interval90->second, b.interval90->second);
    }
  }
}

dga::DgaConfig thin_conficker() {
  dga::DgaConfig config = dga::conficker_c_config();
  config.nxd_count = 9995;
  config.barrel_size = 300;
  return config;
}

TEST(StreamEquivalenceTest, FamiliesMatchBatchAcrossThreadCounts) {
  std::vector<Scenario> scenarios;
  scenarios.push_back({dga::newgoz_config(), 16, 3, 0, 2, 5});
  scenarios.push_back({dga::murofet_config(), 24, 2, 0, 2, 6});
  scenarios.push_back({thin_conficker(), 16, 2, 0, 2, 7});
  scenarios.push_back({dga::ranbyus_config(), 12, 2, 40, 2, 8});
  // Imperfect detection exercises window-sampling equality too.
  scenarios.push_back({dga::newgoz_config(), 16, 2, 0, 2, 9, 0.3});

  for (const Scenario& s : scenarios) {
    const auto stream = simulate_stream(s);
    ASSERT_FALSE(stream.empty()) << s.dga.name;
    const core::LandscapeReport batch = batch_report(s, "", stream);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      StreamEngine engine(engine_config(s, "", threads));
      engine.ingest(stream);
      const core::LandscapeReport streamed = engine.finish();
      EXPECT_EQ(engine.late_dropped(), 0u) << s.dga.name;
      expect_bit_identical(
          streamed, batch,
          s.dga.name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(StreamEquivalenceTest, EveryApplicableEstimatorMatchesBatch) {
  const Scenario s{dga::newgoz_config(), 16, 2, 0, 2, 11};
  const auto stream = simulate_stream(s);
  const estimators::ModelLibrary library;
  for (const estimators::Estimator* estimator : library.applicable(s.dga)) {
    const std::string name(estimator->name());
    const core::LandscapeReport batch = batch_report(s, name, stream);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      StreamEngine engine(engine_config(s, name, threads));
      engine.ingest(stream);
      expect_bit_identical(engine.finish(), batch,
                           name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(StreamEquivalenceTest, TupleAtATimeEqualsBatchIngest) {
  const Scenario s{dga::newgoz_config(), 16, 2, 0, 2, 13};
  const auto stream = simulate_stream(s);
  StreamEngine batch_ingest(engine_config(s, "", 1));
  batch_ingest.ingest(stream);
  StreamEngine single(engine_config(s, "", 1));
  for (const dns::ForwardedLookup& lookup : stream) single.ingest(lookup);
  expect_bit_identical(single.finish(), batch_ingest.finish(),
                       "single-tuple vs span ingest");
}

TEST(StreamEquivalenceTest, OutOfOrderWithinGranularityTiesMatches) {
  // Quantised collectors deliver same-timestamp tuples in arbitrary order;
  // shuffling within each run of equal timestamps must not change anything.
  // A coarse 10-minute granularity guarantees plenty of ties.
  const Scenario s{dga::newgoz_config(), 24,          3, 0, 2, 17, 0.0,
                   minutes(10)};
  const auto stream = simulate_stream(s);
  const core::LandscapeReport batch = batch_report(s, "", stream);

  std::vector<dns::ForwardedLookup> shuffled = stream;
  std::mt19937 rng(42);
  std::size_t run_start = 0;
  for (std::size_t i = 1; i <= shuffled.size(); ++i) {
    if (i == shuffled.size() ||
        shuffled[i].timestamp != shuffled[run_start].timestamp) {
      std::shuffle(shuffled.begin() + static_cast<std::ptrdiff_t>(run_start),
                   shuffled.begin() + static_cast<std::ptrdiff_t>(i), rng);
      run_start = i;
    }
  }
  ASSERT_NE(shuffled, stream);  // the quantised trace does have ties

  StreamEngine engine(engine_config(s, "", 1));
  engine.ingest(shuffled);
  const core::LandscapeReport streamed = engine.finish();
  EXPECT_EQ(engine.late_dropped(), 0u);
  expect_bit_identical(streamed, batch, "shuffled within timestamp ties");
}

/// The stream in arrival order when a seeded `share` of its tuples is held
/// back by 1–5 s: each keeps its timestamp but arrives after the tuples
/// stamped up to that much later, so its bucket receives it out of order.
std::vector<dns::ForwardedLookup> displace_arrivals(
    std::span<const dns::ForwardedLookup> stream, double share,
    std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::pair<std::int64_t, dns::ForwardedLookup>> keyed;
  for (const dns::ForwardedLookup& lookup : stream) {
    const std::int64_t delay =
        rng.bernoulli(share) ? rng.uniform_range(1000, 5000) : 0;
    keyed.emplace_back(lookup.timestamp.millis() + delay, lookup);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<dns::ForwardedLookup> arrivals;
  for (auto& [arrival, lookup] : keyed) arrivals.push_back(std::move(lookup));
  return arrivals;
}

TEST(StreamEquivalenceTest, DisplacedArrivalsMatchBatch) {
  // 2% of tuples arrive a few seconds late, inside the allowed lateness, so
  // closes sort buckets whose lookups came out of order. Every ingest path
  // must still chart batch analyze's landscape of the time-ordered stream.
  struct Case {
    Scenario scenario;
    std::string estimator;
  };
  const Case cases[] = {
      {{dga::murofet_config(), 24, 2, 0, 2, 31}, "poisson"},
      {{dga::newgoz_config(), 24, 2, 0, 2, 32}, "bernoulli"},
      {{dga::murofet_config(), 24, 2, 0, 2, 33}, "timing"},
  };
  for (const Case& c : cases) {
    const Scenario& s = c.scenario;
    SCOPED_TRACE(s.dga.name + "/" + c.estimator);
    const auto stream = simulate_stream(s);
    ASSERT_TRUE(std::is_sorted(stream.begin(), stream.end(),
                               [](const auto& a, const auto& b) {
                                 return a.timestamp < b.timestamp;
                               }));
    const core::LandscapeReport batch = batch_report(s, c.estimator, stream);
    const auto arrivals = displace_arrivals(stream, 0.02, s.seed);
    // Some server's own arrivals do go back in time.
    bool overtaken = false;
    for (std::uint32_t server = 0; server < s.servers && !overtaken; ++server) {
      std::int64_t latest = std::numeric_limits<std::int64_t>::min();
      for (const dns::ForwardedLookup& lookup : arrivals) {
        if (lookup.forwarder.value() != server) continue;
        overtaken = overtaken || lookup.timestamp.millis() < latest;
        latest = std::max(latest, lookup.timestamp.millis());
      }
    }
    ASSERT_TRUE(overtaken);
    std::ostringstream binary;
    trace::write_blocks(binary, arrivals, 1 << 10);  // several blocks

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const std::string at = " threads=" + std::to_string(threads);
      StreamEngine per_tuple(engine_config(s, c.estimator, threads));
      per_tuple.ingest(arrivals);
      expect_bit_identical(per_tuple.finish(), batch, "ingest" + at);
      EXPECT_EQ(per_tuple.late_dropped(), 0u);

      StreamEngine blocky(engine_config(s, c.estimator, threads));
      std::istringstream blocks(binary.str());
      trace::for_each_block(
          blocks, [&blocky](const dns::LookupColumns& columns,
                            std::span<const std::string_view> table) {
            blocky.ingest_block(columns, table);
          });
      expect_bit_identical(blocky.finish(), batch, "ingest_block" + at);
      EXPECT_EQ(blocky.late_dropped(), 0u);

      for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
        cluster::ClusterConfig config;
        config.meter = meter_config(s, c.estimator);
        config.meter.analyze_threads = threads;
        config.first_epoch = s.first_epoch;
        config.epoch_count = s.epochs;
        config.router = cluster::ShardRouter::by_range(s.servers, shards);
        cluster::ClusterRuntime runtime(std::move(config));
        std::istringstream cluster_blocks(binary.str());
        trace::for_each_block(
            cluster_blocks, [&runtime](const dns::LookupColumns& columns,
                                       std::span<const std::string_view> table) {
              runtime.ingest_block(columns, table);
            });
        expect_bit_identical(runtime.finish(), batch,
                             "cluster shards=" + std::to_string(shards) + at);
        for (std::size_t i = 0; i < shards; ++i) {
          EXPECT_EQ(runtime.shard_stats(i).late_dropped, 0u);
        }
      }
    }
  }
}

TEST(StreamEquivalenceTest, DuplicateTuplesHandledLikeBatch) {
  // Raced duplicate forwards (a real-trace artifact): the engine must treat
  // a duplicated stream exactly as the batch pipeline treats it.
  const Scenario s{dga::newgoz_config(), 16, 2, 0, 2, 19};
  const auto stream = simulate_stream(s);
  std::vector<dns::ForwardedLookup> duplicated;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    duplicated.push_back(stream[i]);
    if (i % 5 == 0) duplicated.push_back(stream[i]);
  }
  const core::LandscapeReport batch = batch_report(s, "", duplicated);
  StreamEngine engine(engine_config(s, "", 1));
  engine.ingest(duplicated);
  expect_bit_identical(engine.finish(), batch, "duplicated stream");
}

TEST(StreamEquivalenceTest, ChunkedCloseThroughMatchesBatch) {
  // A per-day producer: ingest each epoch's chunk, then close it explicitly.
  const Scenario s{dga::newgoz_config(), 16, 2, 0, 3, 23};
  const auto stream = simulate_stream(s);
  const core::LandscapeReport batch = batch_report(s, "", stream);

  StreamEngine engine(engine_config(s, "", 1));
  const std::int64_t epoch_ms = s.dga.epoch.millis();
  for (std::int64_t e = 0; e < s.epochs; ++e) {
    for (const dns::ForwardedLookup& lookup : stream) {
      const std::int64_t t = lookup.timestamp.millis();
      if (t >= e * epoch_ms && t < (e + 1) * epoch_ms) engine.ingest(lookup);
    }
    engine.close_through(e);
    EXPECT_EQ(engine.next_epoch_to_close(), e + 1);
  }
  const core::LandscapeReport streamed = engine.finish();
  EXPECT_EQ(engine.late_dropped(), 0u);
  expect_bit_identical(streamed, batch, "chunked close_through");
}

TEST(StreamEngineTest, EpochCallbacksFireAscendingWithBatchValues) {
  const Scenario s{dga::newgoz_config(), 16, 2, 0, 3, 29};
  const auto stream = simulate_stream(s);
  const core::LandscapeReport batch = batch_report(s, "", stream);

  StreamEngine engine(engine_config(s, "", 1));
  std::vector<EpochReport> reports;
  engine.on_epoch_close(
      [&reports](const EpochReport& report) { reports.push_back(report); });
  engine.ingest(stream);
  (void)engine.finish();

  ASSERT_EQ(reports.size(), static_cast<std::size_t>(s.epochs));
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].epoch, static_cast<std::int64_t>(i));
    ASSERT_EQ(reports[i].servers.size(), s.servers);
    for (std::size_t srv = 0; srv < s.servers; ++srv) {
      // The per-epoch value published at close equals the batch pipeline's
      // per_epoch entry for the same (server, epoch) cell.
      EXPECT_EQ(reports[i].servers[srv].population,
                batch.servers[srv].per_epoch[i].second);
    }
  }
  EXPECT_EQ(engine.close_latencies_ms().size(),
            static_cast<std::size_t>(s.epochs));
}

TEST(StreamEngineTest, CloseLatencyObservedExactlyOncePerClose) {
  const Scenario s{dga::newgoz_config(), 8, 2, 0, 2, 3};
  const auto stream = simulate_stream(s);

  // One registry shared by the engine and a health monitor, as at a lone
  // inline cluster shard: sampling must not observe the closes again.
  obs::MetricsRegistry metrics;
  StreamEngineConfig config = engine_config(s, "", 1);
  config.meter.telemetry.metrics = &metrics;
  StreamEngine engine(config);
  StreamHealthMonitor monitor(StreamHealthConfig{}, &metrics);
  engine.ingest(stream);
  monitor.sample(engine.stats(), 0.0);
  (void)engine.finish();
  monitor.sample(engine.stats(), 1.0);
  monitor.sample(engine.stats(), 2.0);

  const auto snapshot = metrics.snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].name, "stream.epoch_close_latency_ms");
  EXPECT_EQ(snapshot.histograms[0].count, engine.close_latencies_ms().size());
  EXPECT_EQ(snapshot.histograms[0].count, static_cast<std::size_t>(s.epochs));
}

TEST(StreamEngineTest, MemoryBoundedByActiveWindow) {
  const Scenario s{dga::newgoz_config(), 24, 2, 0, 4, 31};
  const auto stream = simulate_stream(s);
  StreamEngine engine(engine_config(s, "", 1));
  engine.ingest(stream);
  (void)engine.finish();
  EXPECT_GT(engine.matched(), 0u);
  // Buckets are freed at close: the peak resident state is strictly smaller
  // than the total matched volume on a multi-epoch horizon...
  EXPECT_LT(engine.peak_resident_lookups(), engine.matched());
  // ...and nothing stays buffered once the horizon is closed.
  EXPECT_EQ(engine.resident_lookups(), 0u);
  EXPECT_EQ(engine.ingested(), stream.size());
  EXPECT_EQ(engine.matched() + engine.unmatched() + engine.late_dropped(),
            engine.ingested());
}

TEST(StreamEngineTest, WatermarkAutoClosesAndAdvanceClosesQuietFeed) {
  const Scenario s{dga::newgoz_config(), 16, 1, 0, 2, 37};
  StreamEngineConfig config = engine_config(s, "", 1);
  StreamEngine engine(config);
  EXPECT_EQ(engine.next_epoch_to_close(), 0);

  // A quiet feed: no tuples, only time passing. Default lateness is one
  // epoch, so epoch 0 closes once the watermark reaches the end of epoch 1.
  const std::int64_t epoch_ms = s.dga.epoch.millis();
  engine.advance(TimePoint{epoch_ms});
  EXPECT_EQ(engine.next_epoch_to_close(), 0);
  engine.advance(TimePoint{2 * epoch_ms});
  EXPECT_EQ(engine.next_epoch_to_close(), 1);
  engine.advance(TimePoint{3 * epoch_ms});
  EXPECT_EQ(engine.next_epoch_to_close(), 2);

  const core::LandscapeReport report = engine.finish();
  EXPECT_EQ(report.servers[0].matched_lookups, 0u);
  EXPECT_EQ(report.servers[0].population, 0.0);
}

TEST(StreamEngineTest, LateTuplesAreCountedNotAnalyzed) {
  const Scenario s{dga::newgoz_config(), 16, 1, 0, 2, 41};
  StreamEngineConfig config = engine_config(s, "", 1);
  config.allowed_lateness = milliseconds(0);
  StreamEngine engine(config);

  auto pool_model = dga::make_pool_model(s.dga);
  const dga::EpochPool& pool = pool_model->epoch_pool(0);
  const std::int64_t epoch_ms = s.dga.epoch.millis();

  // Watermark passes epoch 0's close boundary, closing it...
  engine.ingest(dns::ForwardedLookup{TimePoint{epoch_ms + 1}, dns::ServerId{0},
                                     pool.domains[0]});
  EXPECT_EQ(engine.next_epoch_to_close(), 1);
  // ...so an epoch-0 straggler is counted as late, never analyzed.
  engine.ingest(
      dns::ForwardedLookup{TimePoint{10}, dns::ServerId{0}, pool.domains[1]});
  EXPECT_EQ(engine.late_dropped(), 1u);
  EXPECT_EQ(engine.matched(), 1u);
  (void)engine.finish();
}

TEST(StreamEngineTest, SealedAfterFinish) {
  const Scenario s{dga::newgoz_config(), 16, 1, 0, 1, 43};
  StreamEngine engine(engine_config(s, "", 1));
  (void)engine.finish();
  EXPECT_TRUE(engine.finished());
  EXPECT_THROW(engine.ingest(dns::ForwardedLookup{TimePoint{0},
                                                  dns::ServerId{0}, "x.com"}),
               ConfigError);
  EXPECT_THROW(engine.advance(TimePoint{1}), ConfigError);
  EXPECT_THROW(engine.close_through(0), ConfigError);
  EXPECT_THROW((void)engine.finish(), ConfigError);
}

// A tuple naming a server at or past server_count is rejected when it is
// admitted, on the per-tuple and the block path alike: the engine is left
// as it was after the tuple before it, and its message names the id and
// the width. Admitted, its bucket would lie outside the [epoch][server]
// grid, where no close reaches it.
TEST(StreamEngineTest, ServerOutsideTheWidthIsRejectedOnAdmission) {
  Scenario narrow{dga::newgoz_config(), 64, 2, 0, 2, 3};
  std::vector<dns::ForwardedLookup> stream = simulate_stream(narrow);
  // Halfway through, one DGA lookup arrives from server 3.
  const std::size_t k = stream.size() / 2;
  dns::ForwardedLookup outside = stream[k];
  outside.forwarder = dns::ServerId{3};
  stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(k), outside);
  const auto first_outside = stream.begin() + static_cast<std::ptrdiff_t>(k);
  const std::span<const dns::ForwardedLookup> before(stream.data(), k);

  StreamEngine reference(engine_config(narrow, "", 1));
  reference.ingest(before);
  const std::string want = json::write(reference.checkpoint());

  const auto expect_rejected = [&](StreamEngine& engine, auto&& ingest) {
    try {
      ingest();
      ADD_FAILURE() << "server " << first_outside->forwarder.value()
                    << " was admitted into a 2-server engine";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("server id " +
                          std::to_string(first_outside->forwarder.value())),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("width 2"), std::string::npos) << what;
    }
    EXPECT_EQ(engine.ingested(), reference.ingested());
    EXPECT_EQ(engine.matched(), reference.matched());
    EXPECT_EQ(engine.unmatched(), reference.unmatched());
    EXPECT_EQ(engine.resident_lookups(), reference.resident_lookups());
    EXPECT_EQ(engine.watermark(), reference.watermark());
    EXPECT_EQ(json::write(engine.checkpoint()), want);
  };

  StreamEngine per_tuple(engine_config(narrow, "", 1));
  per_tuple.ingest(before);
  expect_rejected(per_tuple, [&] { per_tuple.ingest(*first_outside); });

  std::ostringstream binary;
  trace::write_blocks(binary, stream, stream.size());  // one block
  std::istringstream blocks(binary.str());
  StreamEngine blocky(engine_config(narrow, "", 1));
  expect_rejected(blocky, [&] {
    trace::for_each_block(blocks, [&blocky](const dns::LookupColumns& columns,
                                            std::span<const std::string_view>
                                                table) {
      blocky.ingest_block(columns, table);
    });
  });
}

TEST(StreamEngineTest, SharedMeterMustBePreparedForExactlyTheHorizon) {
  const Scenario s{dga::newgoz_config(), 16, 1, 0, 1, 7};
  // Wider: a meter prepared for two epochs would attribute tuples to an
  // epoch the one-epoch engine never closes.
  auto wide = std::make_shared<core::BotMeter>(meter_config(s, ""));
  wide->prepare_epochs(0, 2);
  EXPECT_THROW(StreamEngine(engine_config(s, "", 1), wide), ConfigError);
  // Shifted: the right length over the wrong epochs.
  Scenario later = s;
  later.first_epoch = 1;
  auto shifted = std::make_shared<core::BotMeter>(meter_config(s, ""));
  shifted->prepare_epochs(0, 1);
  EXPECT_THROW(StreamEngine(engine_config(later, "", 1), shifted), ConfigError);
  // Gapped: as many epochs as a two-epoch horizon, but not its two.
  Scenario two = s;
  two.epochs = 2;
  auto gapped = std::make_shared<core::BotMeter>(meter_config(s, ""));
  gapped->prepare_epochs(0, 1);
  gapped->prepare_epochs(2, 1);
  EXPECT_THROW(StreamEngine(engine_config(two, "", 1), gapped), ConfigError);
  // Exactly the horizon is shared.
  auto exact = std::make_shared<core::BotMeter>(meter_config(s, ""));
  exact->prepare_epochs(0, 1);
  StreamEngine engine(engine_config(s, "", 1), exact);
  EXPECT_EQ(&engine.meter(), exact.get());
}

TEST(StreamEngineTest, ConfigValidation) {
  Scenario s{dga::newgoz_config(), 16, 1, 0, 1, 47};
  {
    StreamEngineConfig config = engine_config(s, "", 1);
    config.epoch_count = 0;
    EXPECT_THROW(StreamEngine{config}, ConfigError);
  }
  {
    StreamEngineConfig config = engine_config(s, "", 1);
    config.server_count = 0;
    EXPECT_THROW(StreamEngine{config}, ConfigError);
  }
  {
    StreamEngineConfig config = engine_config(s, "", 1);
    config.allowed_lateness = milliseconds(-1);
    EXPECT_THROW(StreamEngine{config}, ConfigError);
  }
}

}  // namespace
}  // namespace botmeter::stream
