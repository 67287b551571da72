#include "botnet/simulator.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "botnet/bot.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "dns/replay.hpp"
#include "dns/tiered.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace botmeter::botnet {

namespace {

/// A not-yet-cache-filtered lookup, tagged with the issuing bot.
struct PendingQuery {
  TimePoint t;
  std::uint32_t bot = 0;
  std::uint32_t pool_position = 0;
};

/// Canonical replay order: the global time-ordered interleave the caches
/// would see, with the bot id as tie-break. A bot activates at most once per
/// epoch, so (t, bot) ties occur only *within* one bot's train — stable
/// merging keeps those in issue order, giving a total order that is
/// independent of how the queries were generated or partitioned.
struct QueryOrder {
  bool operator()(const PendingQuery& a, const PendingQuery& b) const {
    if (a.t != b.t) return a.t < b.t;
    return a.bot < b.bot;
  }
};

/// One query routed to its domain shard, remembering its rank in the
/// canonical stream so misses (and raw records) can be put back in order.
struct ShardQuery {
  TimePoint t;
  std::uint32_t bot = 0;
  std::uint32_t pool_position = 0;
  std::uint32_t index = 0;
};

/// Substream lane for the shared per-epoch draws (dynamic-model arrivals and
/// their assignment shuffle). Bot lanes use the bot id, which as a
/// std::uint32_t can never collide with this.
constexpr std::uint64_t kEpochLane = 1ULL << 32;

/// Partition n items into a chunk count that depends only on n — never on
/// the thread count — so the chunk-local merge runs (and therefore
/// everything downstream) are identical however many workers pick them up.
std::size_t chunk_count_for(std::size_t n) {
  constexpr std::size_t kMinPerChunk = 16;
  constexpr std::size_t kMaxChunks = 1024;
  if (n == 0) return 1;
  return std::clamp<std::size_t>(n / kMinPerChunk, 1, kMaxChunks);
}

std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t n,
                                                 std::size_t chunks,
                                                 std::size_t c) {
  return {n * c / chunks, n * (c + 1) / chunks};
}

/// Bottom-up stable merge of a chunk's per-train runs (each train is
/// time-nondecreasing, hence already sorted under QueryOrder) into one
/// sorted run, ping-ponging between the chunk buffer and a scratch buffer.
/// `bounds` holds every run start plus the end offset.
void merge_chunk_runs(std::vector<PendingQuery>& queries,
                      std::vector<std::size_t> bounds) {
  std::vector<PendingQuery> scratch(queries.size());
  std::vector<PendingQuery>* src = &queries;
  std::vector<PendingQuery>* dst = &scratch;
  while (bounds.size() > 2) {
    std::vector<std::size_t> next;
    next.reserve(bounds.size() / 2 + 2);
    std::size_t i = 0;
    for (; i + 2 < bounds.size(); i += 2) {
      const auto lo = static_cast<std::ptrdiff_t>(bounds[i]);
      const auto mid = static_cast<std::ptrdiff_t>(bounds[i + 1]);
      const auto hi = static_cast<std::ptrdiff_t>(bounds[i + 2]);
      std::merge(src->begin() + lo, src->begin() + mid, src->begin() + mid,
                 src->begin() + hi, dst->begin() + lo, QueryOrder{});
      next.push_back(bounds[i]);
    }
    if (i + 1 < bounds.size()) {  // odd run out: carry it over unmerged
      std::copy(src->begin() + static_cast<std::ptrdiff_t>(bounds[i]),
                src->begin() + static_cast<std::ptrdiff_t>(bounds[i + 1]),
                dst->begin() + static_cast<std::ptrdiff_t>(bounds[i]));
      next.push_back(bounds[i]);
    }
    next.push_back(bounds.back());
    bounds = std::move(next);
    std::swap(src, dst);
  }
  if (src != &queries) queries.swap(scratch);
}

/// Reduce the chunk-sorted runs with a fixed pairwise merge tree until at
/// most `target` remain. The pairing depends only on the run count, so the
/// surviving runs are canonical; each round's merges are independent and run
/// on the pool.
void reduce_runs(std::vector<std::vector<PendingQuery>>& runs,
                 std::size_t target, WorkerPool& workers) {
  while (runs.size() > target) {
    std::vector<std::vector<PendingQuery>> next((runs.size() + 1) / 2);
    workers.parallel_for(runs.size() / 2, [&](std::size_t p) {
      const auto& a = runs[2 * p];
      const auto& b = runs[2 * p + 1];
      next[p].reserve(a.size() + b.size());
      std::merge(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(next[p]), QueryOrder{});
    });
    if (runs.size() % 2 == 1) next.back() = std::move(runs.back());
    runs = std::move(next);
  }
}

/// Final fused stage: k-way merge of the surviving runs (k small) straight
/// into the shard-bucketed layout, assigning each query its rank in the
/// canonical stream as it is emitted. `next_slot` holds each shard's write
/// cursor (initialised to the shard's start offset).
void merge_into_buckets(const std::vector<std::vector<PendingQuery>>& runs,
                        const std::vector<std::uint8_t>& shard_of_pos,
                        std::array<std::size_t, dns::DnsCache::kShardCount>&
                            next_slot,
                        std::vector<ShardQuery>& bucketed) {
  struct Cursor {
    const PendingQuery* it;
    const PendingQuery* end;
  };
  std::vector<Cursor> heads;
  heads.reserve(runs.size());
  for (const auto& run : runs) {
    if (!run.empty()) heads.push_back({run.data(), run.data() + run.size()});
  }
  std::uint32_t index = 0;
  while (!heads.empty()) {
    std::size_t best = 0;
    for (std::size_t h = 1; h < heads.size(); ++h) {
      if (QueryOrder{}(*heads[h].it, *heads[best].it)) best = h;
    }
    const PendingQuery& q = *heads[best].it;
    bucketed[next_slot[shard_of_pos[q.pool_position]]++] =
        ShardQuery{q.t, q.bot, q.pool_position, index++};
    if (++heads[best].it == heads[best].end) {
      heads.erase(heads.begin() + static_cast<std::ptrdiff_t>(best));
    }
  }
}

/// Per-tier cache accounting, uniform across the two topologies so the
/// shared epoch loop can chart both. Tier names become metric name segments
/// ("sim.cache.local.hits", "sim.cache.regional.hits").
struct TierStats {
  const char* tier;
  dns::CacheStats stats;
};

std::vector<TierStats> cache_tier_stats(const dns::Network& network) {
  return {TierStats{"local", network.cache_stats()}};
}

std::vector<TierStats> cache_tier_stats(const dns::TieredNetwork& network) {
  return {TierStats{"local", network.local_cache_stats()},
          TierStats{"regional", network.regional_cache_stats()}};
}

template <typename NetworkT>
std::size_t register_epoch_domains(const SimulationConfig& config,
                                   dga::QueryPoolModel& pool_model,
                                   NetworkT& network, bool takedown,
                                   Duration live_span) {
  const Duration epoch_len = config.dga.epoch;
  // Keep registrations alive slightly past the epoch so activation trains
  // spilling over the boundary still resolve consistently (the botmaster
  // does not tear servers down at midnight sharp).
  const Duration registration_slack = hours(1);
  std::size_t registered = 0;
  for (std::int64_t e = config.first_epoch;
       e < config.first_epoch + config.epoch_count; ++e) {
    const dga::EpochPool& pool = pool_model.epoch_pool(e);
    const TimePoint start{e * epoch_len.millis()};
    const TimePoint until =
        takedown ? start + live_span : start + epoch_len + registration_slack;
    for (std::uint32_t pos : pool.valid_positions) {
      network.authority().register_domain(pool.domains[pos], start, until);
      ++registered;
    }
  }
  return registered;
}

/// The epoch-loop core shared by the flat and tiered topologies. Per epoch:
/// draw activations, expand every active bot's lookup train from its private
/// (epoch, bot) stream, merge the trains into one canonical time-ordered
/// stream, and push it through the caching network — generation and merging
/// sharded over bot chunks, the cache/vantage replay sharded over domain
/// shards, with misses merged back into the vantage point in stream order.
template <typename NetworkT>
SimulationResult run_simulation(const SimulationConfig& config,
                                dga::QueryPoolModel& pool_model,
                                NetworkT& network,
                                std::size_t truth_server_count) {
  const Duration epoch_len = config.dga.epoch;
  const bool takedown = config.takedown_after_fraction < 1.0;
  // With a takedown fraction below 1, registrations lapse mid-epoch
  // (sinkholing), so bots querying a C2 domain afterwards receive NXDOMAIN.
  const Duration live_span{static_cast<std::int64_t>(
      static_cast<double>(epoch_len.millis()) * config.takedown_after_fraction)};

  obs::MetricsRegistry* const metrics = config.telemetry.metrics;
  obs::TraceSession* const trace = config.telemetry.trace;

  std::size_t registered = 0;
  {
    // Covers pool construction for every epoch (lazy in epoch_pool) plus
    // the authoritative registrations.
    obs::ScopedTimer timer(trace, "sim.register_domains");
    registered =
        register_epoch_domains(config, pool_model, network, takedown, live_span);
  }
  if (metrics != nullptr) {
    metrics->counter("sim.authority.registered_domains").add(registered);
  }

  WorkerPool workers(config.worker_threads);
  const bool per_bot_arrivals = config.activation.model == RateModel::kConstant;

  // Client placement is a pure function of the bot id — resolve each bot's
  // route (the resolver whose cache serves it) and truth attribution bucket
  // once for the whole run instead of once per query.
  std::vector<dns::ServerId> route_of_bot(config.bot_count, dns::ServerId{0});
  std::vector<std::uint32_t> truth_server_of_bot(config.bot_count, 0);
  {
    const std::size_t n_chunks = chunk_count_for(config.bot_count);
    workers.parallel_for(n_chunks, [&](std::size_t c) {
      const auto [lo, hi] = chunk_bounds(config.bot_count, n_chunks, c);
      for (std::size_t b = lo; b < hi; ++b) {
        const dns::ClientId client{static_cast<std::uint32_t>(b)};
        route_of_bot[b] = network.route_for_client(client);
        const dns::ServerId truth_server = network.server_for_client(client);
        if (truth_server.value() >= truth_server_count) {
          throw ConfigError("simulate: client assigned to unknown server");
        }
        truth_server_of_bot[b] =
            static_cast<std::uint32_t>(truth_server.value());
      }
    });
  }

  SimulationResult result;
  result.truth.reserve(static_cast<std::size_t>(config.epoch_count));

  // Per-tier cumulative cache stats at the previous epoch boundary, so each
  // epoch's metrics are deltas rather than running totals.
  std::vector<TierStats> prev_tiers;
  if (metrics != nullptr) prev_tiers = cache_tier_stats(network);

  for (std::int64_t e = config.first_epoch;
       e < config.first_epoch + config.epoch_count; ++e) {
    obs::ScopedTimer epoch_timer(trace, "sim.epoch");
    const dga::EpochPool& pool = pool_model.epoch_pool(e);
    const TimePoint epoch_start{e * epoch_len.millis()};
    std::optional<TimePoint> c2_down_after;
    if (takedown) c2_down_after = epoch_start + live_span;

    // Which bots activate this epoch. Under the constant-rate model every
    // bot activates and draws its own instant from its private stream (no
    // shared state at all); the dynamic model is a sequential gap process,
    // so its arrivals come from the epoch's shared lane and are handed to a
    // shuffled subset of the population, exactly as before.
    std::vector<TimePoint> arrivals;
    std::vector<std::uint32_t> bot_order;
    std::size_t active_count = config.bot_count;
    if (!per_bot_arrivals) {
      Rng epoch_stream =
          Rng::stream(config.seed, static_cast<std::uint64_t>(e), kEpochLane);
      arrivals = draw_activations(config.activation, config.bot_count,
                                  epoch_start, epoch_len, epoch_stream);
      bot_order.resize(config.bot_count);
      for (std::uint32_t i = 0; i < config.bot_count; ++i) bot_order[i] = i;
      epoch_stream.shuffle(std::span<std::uint32_t>{bot_order});
      active_count = arrivals.size();
    }

    // The domain shard owning each position's cache state — a pure function
    // of the domain, so the replay partition is thread-count independent.
    constexpr std::size_t kShards = dns::DnsCache::kShardCount;
    std::vector<std::uint8_t> shard_of_pos(pool.size());
    for (std::size_t p = 0; p < shard_of_pos.size(); ++p) {
      shard_of_pos[p] =
          static_cast<std::uint8_t>(dns::DnsCache::shard_of(pool.domains[p]));
    }

    // Sharded query generation: each chunk of bots expands its lookup trains
    // into a private buffer (a concatenation of time-sorted trains) and
    // stably merges them into one sorted run. Per-server activity and the
    // per-shard query histogram are tallied per chunk and summed afterwards.
    struct ChunkOutput {
      std::vector<PendingQuery> queries;
      std::vector<std::uint32_t> active_per_server;
      std::array<std::uint32_t, kShards> shard_counts{};
    };
    const std::size_t n_chunks = chunk_count_for(active_count);
    std::vector<ChunkOutput> chunk_out(n_chunks);
    obs::ScopedTimer generate_timer(trace, "sim.generate");
    workers.parallel_for(n_chunks, [&](std::size_t c) {
      // Per-chunk span on the worker that actually ran it, so the Perfetto
      // export shows the generate fan-out across worker tracks. Wall time
      // only — results are untouched.
      obs::ScopedTimer chunk_timer(trace, "sim.generate.chunk");
      const auto [lo, hi] = chunk_bounds(active_count, n_chunks, c);
      ChunkOutput& out = chunk_out[c];
      out.active_per_server.assign(truth_server_count, 0);
      std::vector<std::size_t> bounds;
      bounds.reserve(hi - lo + 1);
      bounds.push_back(0);
      for (std::size_t k = lo; k < hi; ++k) {
        const std::uint32_t bot =
            per_bot_arrivals ? static_cast<std::uint32_t>(k) : bot_order[k];
        // Per-(epoch, bot) private stream: independent of every other bot,
        // of the shared epoch draws, and of the worker that runs it.
        Rng bot_rng =
            Rng::stream(config.seed, static_cast<std::uint64_t>(e), bot);
        const TimePoint arrival =
            per_bot_arrivals ? draw_activation(epoch_start, epoch_len, bot_rng)
                             : arrivals[k];
        for_each_activation_query(
            config.dga, pool, arrival, bot_rng, c2_down_after,
            [&](TimePoint t, std::uint32_t pos) {
              out.queries.push_back(PendingQuery{t, bot, pos});
              ++out.shard_counts[shard_of_pos[pos]];
            });
        bounds.push_back(out.queries.size());
        ++out.active_per_server[truth_server_of_bot[bot]];
      }
      merge_chunk_runs(out.queries, std::move(bounds));
    });
    generate_timer.stop();

    obs::ScopedTimer merge_timer(trace, "sim.merge");
    EpochTruth truth;
    truth.epoch = e;
    truth.total_active = static_cast<std::uint32_t>(active_count);
    truth.active_per_server.assign(truth_server_count, 0);
    std::array<std::size_t, kShards + 1> shard_start{};
    std::vector<std::vector<PendingQuery>> runs;
    runs.reserve(n_chunks);
    {
      std::array<std::size_t, kShards> counts{};
      for (ChunkOutput& out : chunk_out) {
        for (std::size_t s = 0; s < truth_server_count; ++s) {
          truth.active_per_server[s] += out.active_per_server[s];
        }
        for (std::size_t s = 0; s < kShards; ++s) {
          counts[s] += out.shard_counts[s];
        }
        runs.push_back(std::move(out.queries));
      }
      std::size_t acc = 0;
      for (std::size_t s = 0; s < kShards; ++s) {
        shard_start[s] = acc;
        acc += counts[s];
      }
      shard_start[kShards] = acc;
    }
    const std::size_t n_queries = shard_start[kShards];
    if (n_queries > std::numeric_limits<std::uint32_t>::max()) {
      throw ConfigError("simulate: epoch query stream exceeds 2^32 lookups");
    }

    // Reduce the runs with parallel merge rounds, then fuse the last k-way
    // merge with the shard scatter: queries land bucketed by shard, each
    // stamped with its rank in the canonical global stream. Buckets hold
    // contiguous copies so each shard's replay is a sequential scan.
    reduce_runs(runs, 4, workers);
    std::vector<ShardQuery> bucketed(n_queries);
    {
      std::array<std::size_t, kShards> next_slot{};
      std::copy(shard_start.begin(), shard_start.end() - 1, next_slot.begin());
      merge_into_buckets(runs, shard_of_pos, next_slot, bucketed);
    }
    runs.clear();
    merge_timer.stop();

    // Sharded cache/vantage replay: each worker replays one shard's
    // subsequence in stream order — every piece of cache state it touches,
    // across every tier, is private to that shard — then the border misses
    // are merged back into the vantage point in canonical stream order.
    const bool record_raw = config.record_raw;
    const std::size_t raw_base = result.raw.size();
    if (record_raw) result.raw.resize(raw_base + n_queries);
    std::vector<std::vector<dns::ReplayMiss>> miss_sinks(kShards);
    obs::ScopedTimer replay_timer(trace, "sim.replay");
    {
      typename NetworkT::Replay replay(network, pool.domains);
      workers.parallel_for(kShards, [&](std::size_t s) {
        obs::ScopedTimer shard_timer(trace, "sim.replay.shard");
        for (std::size_t i = shard_start[s]; i < shard_start[s + 1]; ++i) {
          const ShardQuery& q = bucketed[i];
          const dns::Rcode rcode =
              replay.resolve(q.t, route_of_bot[q.bot], q.pool_position, s,
                             q.index, miss_sinks[s]);
          if (record_raw) {
            // Shards own disjoint index sets, so these writes never race.
            result.raw[raw_base + q.index] =
                RawRecord{q.t, dns::ClientId{q.bot},
                          pool.domains[q.pool_position], rcode};
          }
        }
      });
    }
    replay_timer.stop();

    // Per-server forwarded-lookup tally, summed over the shard sinks in
    // fixed shard order — thread-count independent. Must happen before
    // merge_misses drains the sinks.
    std::vector<std::uint64_t> forwarded_per_server;
    if (metrics != nullptr) {
      forwarded_per_server.assign(truth_server_count, 0);
      for (const std::vector<dns::ReplayMiss>& sink : miss_sinks) {
        for (const dns::ReplayMiss& miss : sink) {
          ++forwarded_per_server[miss.forwarder.value()];
        }
      }
    }
    {
      obs::ScopedTimer timer(trace, "sim.vantage_merge");
      dns::merge_misses(network.vantage(), pool.domains, miss_sinks);
    }

    result.truth.push_back(std::move(truth));
    network.evict_expired(epoch_start + epoch_len);

    // Bulk metrics flush for the epoch, from the serial section: every value
    // below is a deterministic function of the simulation state, so counter
    // totals are bit-identical across worker_threads and metrics on/off
    // never perturbs the results.
    if (metrics != nullptr) {
      const std::string epoch_label = "epoch_" + std::to_string(e);
      metrics->counter("sim.epochs").add(1);
      metrics->counter("sim.queries").add(n_queries);
      metrics->counter("sim.queries.per_epoch", epoch_label).add(n_queries);
      metrics->counter("sim.active_bots").add(active_count);
      metrics->counter("sim.active_bots.per_epoch", epoch_label)
          .add(active_count);
      static constexpr double kEpochQueryBounds[] = {1e2, 1e3, 1e4, 1e5, 1e6};
      metrics->histogram("sim.epoch_queries", kEpochQueryBounds)
          .observe(static_cast<double>(n_queries));

      std::uint64_t forwarded_total = 0;
      for (std::size_t s = 0; s < forwarded_per_server.size(); ++s) {
        forwarded_total += forwarded_per_server[s];
        metrics->counter("sim.vantage.forwarded.per_server",
                         "server_" + std::to_string(s))
            .add(forwarded_per_server[s]);
      }
      metrics->counter("sim.vantage.forwarded").add(forwarded_total);
      metrics->counter("sim.vantage.forwarded.per_epoch", epoch_label)
          .add(forwarded_total);

      const std::vector<TierStats> tiers = cache_tier_stats(network);
      for (std::size_t i = 0; i < tiers.size(); ++i) {
        const dns::CacheStats delta = tiers[i].stats.since(prev_tiers[i].stats);
        const std::string base = std::string("sim.cache.") + tiers[i].tier;
        metrics->counter(base + ".hits").add(delta.hits);
        metrics->counter(base + ".hits.per_epoch", epoch_label)
            .add(delta.hits);
        metrics->counter(base + ".misses").add(delta.misses);
        metrics->counter(base + ".misses.per_epoch", epoch_label)
            .add(delta.misses);
        metrics->counter(base + ".evictions").add(delta.evictions);
        metrics->counter(base + ".evictions.per_epoch", epoch_label)
            .add(delta.evictions);
        metrics->gauge(base + ".entries.per_epoch", epoch_label)
            .set(static_cast<double>(delta.entries));
      }
      prev_tiers = tiers;
    }
  }

  result.observable = network.vantage().take();
  return result;
}

}  // namespace

void SimulationConfig::validate() const {
  dga.validate();
  if (bot_count == 0) {
    throw ConfigError("SimulationConfig: bot_count must be > 0");
  }
  if (server_count == 0) {
    throw ConfigError("SimulationConfig: server_count must be > 0");
  }
  if (epoch_count <= 0) {
    throw ConfigError("SimulationConfig: epoch_count must be > 0");
  }
  if (takedown_after_fraction <= 0.0 || takedown_after_fraction > 1.0) {
    throw ConfigError(
        "SimulationConfig: takedown_after_fraction must be in (0,1]");
  }
  ttl.validate();
  activation.validate();
}

SimulationResult simulate(const SimulationConfig& config,
                          dga::QueryPoolModel& pool_model) {
  config.validate();
  dns::Network network(config.server_count, config.ttl,
                       config.timestamp_granularity);
  if (config.client_assignment) {
    network.set_client_assignment(config.client_assignment);
  }
  if (config.observable_sink) {
    network.vantage().set_sink(config.observable_sink);
  }
  return run_simulation(config, pool_model, network, config.server_count);
}

SimulationResult simulate(const SimulationConfig& config) {
  auto pool_model = dga::make_pool_model(config.dga);
  return simulate(config, *pool_model);
}

SimulationResult simulate_tiered(const TieredSimulationConfig& tiered,
                                 dga::QueryPoolModel& pool_model) {
  const SimulationConfig& config = tiered.base;
  config.validate();
  tiered.regional_ttl.validate();
  dns::TieredNetwork network(config.server_count, tiered.regional_count,
                             config.ttl, tiered.regional_ttl,
                             config.timestamp_granularity);
  if (config.observable_sink) {
    network.vantage().set_sink(config.observable_sink);
  }
  return run_simulation(config, pool_model, network, tiered.regional_count);
}

}  // namespace botmeter::botnet
