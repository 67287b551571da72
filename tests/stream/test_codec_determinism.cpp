// Cross-codec determinism: the landscape must not depend on how the trace
// travelled. The same simulated border feed is run through
//   (a) batch analyze on the in-memory stream,
//   (b) a StreamEngine fed tuple-at-a-time from the parsed *text* codec,
//   (c) a StreamEngine fed block-at-a-time from the *binary* codec via the
//       zero-copy ingest_block path,
// and the serialised landscape_to_json documents are compared byte for byte
// — for every applicable estimator and for 1 and 2 worker threads. The
// engines' counters (ingested / matched / unmatched / late_dropped) must
// agree too: ingest_block is tuple-for-tuple the same machine as ingest.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "botnet/simulator.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/botmeter.hpp"
#include "dga/families.hpp"
#include "estimators/library.hpp"
#include "stream/stream_engine.hpp"
#include "trace/block.hpp"
#include "trace/io.hpp"

namespace botmeter::stream {
namespace {

struct Scenario {
  dga::DgaConfig dga;
  std::uint32_t bots = 16;
  std::size_t servers = 2;
  std::int64_t first_epoch = 0;
  std::int64_t epochs = 2;
  std::uint64_t seed = 5;
};

std::vector<dns::ForwardedLookup> simulate_stream(const Scenario& s) {
  botnet::SimulationConfig sim;
  sim.dga = s.dga;
  sim.bot_count = s.bots;
  sim.server_count = s.servers;
  sim.first_epoch = s.first_epoch;
  sim.epoch_count = s.epochs;
  sim.seed = s.seed;
  sim.timestamp_granularity = milliseconds(100);
  sim.record_raw = false;
  return botnet::simulate(sim).observable;
}

core::BotMeterConfig meter_config(const Scenario& s,
                                  const std::string& estimator) {
  core::BotMeterConfig config;
  config.dga = s.dga;
  config.estimator = estimator;
  return config;
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

std::string landscape_bytes(const core::LandscapeReport& report) {
  return json::write(core::landscape_to_json(report));
}

/// "" (the recommended model) plus every applicable model by name.
std::vector<std::string> estimator_names(const dga::DgaConfig& dga) {
  std::vector<std::string> names{""};
  estimators::ModelLibrary library;
  for (const estimators::Estimator* e : library.applicable(dga)) {
    names.emplace_back(e->name());
  }
  return names;
}

TEST(CodecDeterminismTest, TextAndBinaryLanesProduceIdenticalLandscapes) {
  std::vector<Scenario> scenarios;
  scenarios.push_back({dga::newgoz_config(), 16, 3, 0, 2, 5});
  scenarios.push_back({dga::murofet_config(), 24, 2, 0, 2, 6});

  for (const Scenario& s : scenarios) {
    const auto stream = simulate_stream(s);
    ASSERT_FALSE(stream.empty()) << s.dga.name;

    // Serialise once per codec — both lanes read real encoded bytes.
    std::ostringstream text_os;
    trace::write_observable(text_os, stream);
    std::ostringstream binary_os;
    trace::write_blocks(binary_os, stream, 1 << 12);  // force several blocks

    for (const std::string& estimator : estimator_names(s.dga)) {
      // Batch reference.
      core::BotMeter meter(meter_config(s, estimator));
      meter.prepare_epochs(s.first_epoch, s.epochs);
      const std::string batch_bytes =
          landscape_bytes(meter.analyze(stream, s.servers));

      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(s.dga.name + " estimator=" + estimator +
                     " threads=" + std::to_string(threads));

        StreamEngine text_engine(engine_config(s, estimator, threads));
        std::istringstream text_is(text_os.str());
        trace::for_each_observable(
            text_is,
            [&text_engine](const dns::ForwardedLookup& l) { text_engine.ingest(l); });
        const std::string text_bytes = landscape_bytes(text_engine.finish());

        StreamEngine block_engine(engine_config(s, estimator, threads));
        std::istringstream binary_is(binary_os.str());
        trace::for_each_block(
            binary_is, [&block_engine](const dns::LookupColumns& block,
                                       std::span<const std::string_view> table) {
              block_engine.ingest_block(block, table);
            });
        const std::string block_bytes = landscape_bytes(block_engine.finish());

        EXPECT_EQ(text_bytes, batch_bytes);
        EXPECT_EQ(block_bytes, text_bytes);

        EXPECT_EQ(block_engine.ingested(), text_engine.ingested());
        EXPECT_EQ(block_engine.matched(), text_engine.matched());
        EXPECT_EQ(block_engine.unmatched(), text_engine.unmatched());
        EXPECT_EQ(block_engine.late_dropped(), text_engine.late_dropped());
        EXPECT_EQ(block_engine.late_dropped(), 0u);
      }
    }
  }
}

TEST(CodecDeterminismTest, BlockIngestValidatesItsContract) {
  Scenario s{dga::newgoz_config(), 8, 2, 0, 1, 11};
  const auto stream = simulate_stream(s);
  std::ostringstream binary_os;
  trace::write_blocks(binary_os, stream);

  // A shrinking string table (two unrelated readers) is a loud ConfigError.
  {
    StreamEngine engine(engine_config(s, "", 1));
    std::istringstream is(binary_os.str());
    trace::BlockReader reader(is);
    const auto block = reader.next();
    ASSERT_TRUE(block.has_value());
    engine.ingest_block(*block, reader.domains());
    const std::vector<std::string_view> smaller_table;
    EXPECT_THROW(engine.ingest_block(*block, smaller_table), ConfigError);
  }

  // A domain id outside the provided table is a loud DataError.
  {
    StreamEngine engine(engine_config(s, "", 1));
    const std::int64_t t[] = {0};
    const std::uint32_t server[] = {0};
    const std::uint32_t domain[] = {5};
    const dns::LookupColumns block{t, server, domain};
    const std::vector<std::string_view> table{"only.example"};
    EXPECT_THROW(engine.ingest_block(block, table), DataError);
  }

  // Ragged columns are a loud DataError.
  {
    StreamEngine engine(engine_config(s, "", 1));
    const std::int64_t t[] = {0, 1};
    const std::uint32_t server[] = {0};
    const std::uint32_t domain[] = {0};
    const dns::LookupColumns block{t, server, domain};
    const std::vector<std::string_view> table{"only.example"};
    EXPECT_THROW(engine.ingest_block(block, table), DataError);
  }

  // Ingest after finish stays an error on the block path too.
  {
    StreamEngine engine(engine_config(s, "", 1));
    (void)engine.finish();
    std::istringstream is(binary_os.str());
    trace::BlockReader reader(is);
    const auto block = reader.next();
    ASSERT_TRUE(block.has_value());
    EXPECT_THROW(engine.ingest_block(*block, reader.domains()), ConfigError);
  }
}

}  // namespace
}  // namespace botmeter::stream
