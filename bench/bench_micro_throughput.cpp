// Microbenchmarks (google-benchmark): throughput of the components on
// BotMeter's hot path — domain generation, the DNS cache, the matcher, the
// close-time bucket sort, the analytical inversions, and the full per-epoch
// simulation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "botnet/simulator.hpp"
#include "common/rng.hpp"
#include "detect/matcher.hpp"
#include "dga/domain_gen.hpp"
#include "dga/families.hpp"
#include "dns/cache.hpp"
#include "estimators/bernoulli.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace botmeter;

void BM_DomainGeneration(benchmark::State& state) {
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dga::domain_name(0xABCD, 7, i++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DomainGeneration);

void BM_CacheLookupHit(benchmark::State& state) {
  dns::DnsCache cache;
  std::vector<std::string> domains;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    domains.push_back(dga::domain_name(1, 1, i));
    cache.insert(domains.back(), dns::Rcode::kNxDomain, TimePoint{0}, days(1));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(domains[i++ % domains.size()],
                                          TimePoint{1000}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheInsertExpireCycle(benchmark::State& state) {
  // Exercise the full entry lifecycle: insert, a hit while fresh, and a
  // lookup after the TTL lapsed (which takes the expiry/erase path). At
  // 10 ms per step and a 1 s TTL, the entry inserted 50 steps ago is still
  // fresh while the one from 200 steps ago has expired.
  dns::DnsCache cache;
  std::vector<std::string> domains;
  domains.reserve(4096);
  for (std::uint32_t d = 0; d < 4096; ++d) {
    domains.push_back(dga::domain_name(2, 2, d));
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    const TimePoint now{static_cast<std::int64_t>(i) * 10};
    cache.insert(domains[i % domains.size()], dns::Rcode::kNxDomain, now,
                 seconds(1));
    if (i >= 50) {
      benchmark::DoNotOptimize(
          cache.lookup(domains[(i - 50) % domains.size()], now));
    }
    if (i >= 200) {
      benchmark::DoNotOptimize(
          cache.lookup(domains[(i - 200) % domains.size()], now));
    }
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInsertExpireCycle);

void BM_MatcherThroughput(benchmark::State& state) {
  const dga::DgaConfig config = dga::newgoz_config();
  auto pool_model = dga::make_pool_model(config);
  const dga::EpochPool& pool = pool_model->epoch_pool(0);
  detect::DomainMatcher matcher(days(1));
  matcher.add_epoch(pool, detect::perfect_detection(pool));

  // Half matching, half benign lookups.
  std::vector<dns::ForwardedLookup> stream;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    stream.push_back(dns::ForwardedLookup{
        TimePoint{static_cast<std::int64_t>(i) * 100}, dns::ServerId{0},
        (i % 2 == 0) ? pool.domains[i % pool.size()]
                     : dga::benign_domain(i)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(stream));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_MatcherThroughput);

// The close-time canonical sort over one epoch row: 16 buckets of 1024
// lookups, in order (arg 0), with 1% of lookups held back by up to 64
// places as late arrivals leave them (arg 1), or reversed (arg 2).
void BM_SortMatched(benchmark::State& state) {
  constexpr std::size_t kBuckets = 16;
  constexpr std::size_t kLookups = 1024;
  Rng rng{17};
  std::vector<std::vector<detect::MatchedLookup>> row(kBuckets);
  for (auto& bucket : row) {
    for (std::size_t i = 0; i < kLookups; ++i) {
      const auto pos = static_cast<std::uint32_t>(rng.uniform(64));
      bucket.push_back(detect::MatchedLookup{
          TimePoint{static_cast<std::int64_t>(i) * 250}, pos, pos == 0});
    }
    if (state.range(0) == 1) {
      for (std::size_t moved = 0; moved < kLookups / 100; ++moved) {
        const std::size_t from = rng.uniform(kLookups - 64);
        std::rotate(bucket.begin() + static_cast<std::ptrdiff_t>(from),
                    bucket.begin() + static_cast<std::ptrdiff_t>(from) + 1,
                    bucket.begin() + static_cast<std::ptrdiff_t>(
                                         from + 1 + rng.uniform(64)));
      }
    } else if (state.range(0) == 2) {
      std::reverse(bucket.begin(), bucket.end());
    }
  }
  std::vector<std::vector<detect::MatchedLookup>> work;
  for (auto _ : state) {
    state.PauseTiming();
    work = row;
    state.ResumeTiming();
    for (auto& bucket : work) {
      detect::sort_matched(bucket);
      benchmark::DoNotOptimize(bucket.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBuckets * kLookups));
}
BENCHMARK(BM_SortMatched)->ArgName("shape")->Arg(0)->Arg(1)->Arg(2);

void BM_BernoulliCoverageInversion(benchmark::State& state) {
  const dga::DgaConfig config = dga::newgoz_config();
  auto pool_model = dga::make_pool_model(config);
  const dga::EpochPool& pool = pool_model->epoch_pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimators::BernoulliEstimator::invert_coverage(
        pool, config, 5000.0, {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BernoulliCoverageInversion);

void BM_EpochSimulation(benchmark::State& state) {
  botnet::SimulationConfig config;
  config.dga = dga::murofet_config();
  config.bot_count = static_cast<std::uint32_t>(state.range(0));
  config.record_raw = false;
  auto pool_model = dga::make_pool_model(config.dga);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(botnet::simulate(config, *pool_model));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EpochSimulation)->Arg(16)->Arg(64)->Arg(256);

// BM_EpochSimulation with a live metrics registry and trace session
// attached — the observability overhead guard. The instrumented run must
// stay within a few percent of the plain one (the per-epoch bulk flush is
// the only added work on the hot path).
void BM_EpochSimulationInstrumented(benchmark::State& state) {
  botnet::SimulationConfig config;
  config.dga = dga::murofet_config();
  config.bot_count = static_cast<std::uint32_t>(state.range(0));
  config.record_raw = false;
  obs::MetricsRegistry metrics;
  obs::TraceSession trace;
  config.telemetry.metrics = &metrics;
  config.telemetry.trace = &trace;
  auto pool_model = dga::make_pool_model(config.dga);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(botnet::simulate(config, *pool_model));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EpochSimulationInstrumented)->Arg(16)->Arg(64)->Arg(256);

// Cost of one ScopedTimer span by session mode: 0 = null session (tracing
// compiled in but disabled), 1 = live session, 2 = ended session (sealed
// mid-run, e.g. after the run report was written). The live path is two
// clock reads plus one mutex-guarded vector append; null and ended must be
// near-free — neither even reads the clock.
void BM_SpanTracingOverhead(benchmark::State& state) {
  obs::TraceSession session;
  obs::TraceSession* target = state.range(0) >= 1 ? &session : nullptr;
  if (state.range(0) == 2) session.end();
  std::uint64_t i = 0;
  for (auto _ : state) {
    obs::ScopedTimer timer(target, "bench.span");
    benchmark::DoNotOptimize(&timer);
    // Keep the live session's span buffer bounded; the amortized clear is
    // part of what a long-running instrumented loop pays.
    if ((++i & 0xFFF) == 0 && state.range(0) == 1) session.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanTracingOverhead)
    ->DenseRange(0, 2)
    ->ArgName("mode");

void BM_EpochSimulationThreaded(benchmark::State& state) {
  botnet::SimulationConfig config;
  config.dga = dga::murofet_config();
  config.bot_count = static_cast<std::uint32_t>(state.range(0));
  config.record_raw = false;
  config.worker_threads = static_cast<std::size_t>(state.range(1));
  auto pool_model = dga::make_pool_model(config.dga);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(botnet::simulate(config, *pool_model));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EpochSimulationThreaded)
    ->ArgsProduct({{256}, {1, 2, 4, 8}})
    ->ArgNames({"bots", "threads"})
    ->UseRealTime();

}  // namespace

// Like BENCHMARK_MAIN(), but defaults to also writing the results as JSON to
// BENCH_micro.json (for CI artifact upload) unless the caller passed their
// own --benchmark_out.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
