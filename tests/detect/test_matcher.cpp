#include "detect/matcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dga/families.hpp"

namespace botmeter::detect {
namespace {

dga::DgaConfig tiny_config() {
  dga::DgaConfig c;
  c.name = "tiny";
  c.taxonomy = {dga::PoolModel::kDrainReplenish, dga::BarrelModel::kUniform};
  c.nxd_count = 9;
  c.valid_count = 1;
  c.barrel_size = 10;
  c.query_interval = milliseconds(500);
  c.seed = 55;
  return c;
}

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest() : matcher_(days(1)) {
    model_ = dga::make_pool_model(tiny_config());
    for (std::int64_t e = 0; e < 2; ++e) {
      const dga::EpochPool& pool = model_->epoch_pool(e);
      windows_.push_back(perfect_detection(pool));
      matcher_.add_epoch(pool, windows_.back());
    }
  }

  dns::ForwardedLookup lookup_for(std::int64_t epoch, std::uint32_t pos,
                                  Duration offset,
                                  dns::ServerId server = dns::ServerId{0}) {
    return dns::ForwardedLookup{
        TimePoint{epoch * days(1).millis()} + offset, server,
        model_->epoch_pool(epoch).domains[pos]};
  }

  std::unique_ptr<dga::QueryPoolModel> model_;
  std::vector<DetectionWindow> windows_;
  DomainMatcher matcher_;
};

TEST_F(MatcherTest, MatchesKnownDomainWithPositionAndValidity) {
  const dga::EpochPool& pool = model_->epoch_pool(0);
  const std::uint32_t valid = pool.valid_positions.front();
  std::vector<dns::ForwardedLookup> stream{
      lookup_for(0, 0, seconds(10)),
      lookup_for(0, valid, seconds(20)),
  };
  const MatchedStreams matched = matcher_.match(stream);
  ASSERT_EQ(matched.size(), 1u);
  const auto& lookups = matched.at(StreamKey{dns::ServerId{0}, 0});
  ASSERT_EQ(lookups.size(), 2u);
  EXPECT_EQ(lookups[0].pool_position, 0u);
  EXPECT_EQ(lookups[0].is_valid_domain, pool.is_valid_position(0));
  EXPECT_EQ(lookups[1].pool_position, valid);
  EXPECT_TRUE(lookups[1].is_valid_domain);
}

TEST_F(MatcherTest, DropsUnknownDomains) {
  std::vector<dns::ForwardedLookup> stream{
      {TimePoint{100}, dns::ServerId{0}, "benign.example"},
      {TimePoint{200}, dns::ServerId{0}, "another.example"},
  };
  EXPECT_TRUE(matcher_.match(stream).empty());
}

TEST_F(MatcherTest, GroupsByServer) {
  std::vector<dns::ForwardedLookup> stream{
      lookup_for(0, 1, seconds(1), dns::ServerId{0}),
      lookup_for(0, 2, seconds(2), dns::ServerId{1}),
  };
  const MatchedStreams matched = matcher_.match(stream);
  EXPECT_EQ(matched.size(), 2u);
  EXPECT_TRUE(matched.contains(StreamKey{dns::ServerId{0}, 0}));
  EXPECT_TRUE(matched.contains(StreamKey{dns::ServerId{1}, 0}));
}

TEST_F(MatcherTest, GroupsByPoolEpoch) {
  std::vector<dns::ForwardedLookup> stream{
      lookup_for(0, 1, seconds(1)),
      lookup_for(1, 1, seconds(1)),
  };
  const MatchedStreams matched = matcher_.match(stream);
  EXPECT_EQ(matched.size(), 2u);
  EXPECT_TRUE(matched.contains(StreamKey{dns::ServerId{0}, 0}));
  EXPECT_TRUE(matched.contains(StreamKey{dns::ServerId{0}, 1}));
}

TEST_F(MatcherTest, BoundarySpillAttributedToPoolEpoch) {
  // An epoch-0 domain looked up a few minutes past midnight still belongs to
  // epoch 0's pool.
  std::vector<dns::ForwardedLookup> stream{
      lookup_for(0, 3, days(1) + minutes(5)),
  };
  const MatchedStreams matched = matcher_.match(stream);
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_TRUE(matched.contains(StreamKey{dns::ServerId{0}, 0}));
}

TEST_F(MatcherTest, StreamsSortedByTime) {
  std::vector<dns::ForwardedLookup> stream{
      lookup_for(0, 5, seconds(50)),
      lookup_for(0, 1, seconds(10)),
      lookup_for(0, 3, seconds(30)),
  };
  const MatchedStreams matched = matcher_.match(stream);
  const auto& lookups = matched.at(StreamKey{dns::ServerId{0}, 0});
  ASSERT_EQ(lookups.size(), 3u);
  EXPECT_LT(lookups[0].t, lookups[1].t);
  EXPECT_LT(lookups[1].t, lookups[2].t);
}

TEST_F(MatcherTest, UndetectedDomainsNotMatchable) {
  DomainMatcher partial(days(1));
  const dga::EpochPool& pool = model_->epoch_pool(0);
  DetectionWindow window = perfect_detection(pool);
  window.detected[4] = false;
  partial.add_epoch(pool, window);
  std::vector<dns::ForwardedLookup> stream{lookup_for(0, 4, seconds(1))};
  EXPECT_TRUE(partial.match(stream).empty());
  EXPECT_EQ(partial.matchable_domain_count(), pool.size() - 1);
}

TEST_F(MatcherTest, WindowMismatchRejected) {
  DomainMatcher other(days(1));
  const dga::EpochPool& pool0 = model_->epoch_pool(0);
  DetectionWindow wrong_epoch = perfect_detection(pool0);
  wrong_epoch.epoch = 5;
  EXPECT_THROW(other.add_epoch(pool0, wrong_epoch), ConfigError);
  DetectionWindow wrong_size = perfect_detection(pool0);
  wrong_size.detected.pop_back();
  EXPECT_THROW(other.add_epoch(pool0, wrong_size), ConfigError);
}

TEST(MatcherConfigTest, PositiveEpochLengthRequired) {
  EXPECT_THROW(DomainMatcher{Duration{0}}, ConfigError);
}

TEST_F(MatcherTest, ResolveDistinguishesMembership) {
  const dga::EpochPool& pool = model_->epoch_pool(0);
  EXPECT_TRUE(static_cast<bool>(matcher_.resolve(pool.domains[0])));
  EXPECT_FALSE(static_cast<bool>(matcher_.resolve("benign.example")));
  EXPECT_FALSE(static_cast<bool>(DomainMatcher::Resolved{}));  // default falsy
}

TEST_F(MatcherTest, MatchResolvedAttributesLikeMatchOne) {
  // resolve + match_resolved must reproduce match_one's attribution exactly,
  // including the interesting cases: boundary spill into the previous
  // epoch's pool and a domain present in both epochs' pools (epoch chosen by
  // the nominal timestamp).
  std::vector<dns::ForwardedLookup> probes;
  for (std::int64_t epoch = 0; epoch < 2; ++epoch) {
    for (std::uint32_t pos = 0; pos < model_->epoch_pool(epoch).size(); ++pos) {
      probes.push_back(lookup_for(epoch, pos, seconds(17), dns::ServerId{1}));
      probes.push_back(lookup_for(epoch, pos, days(1) + minutes(9)));
    }
  }
  for (const dns::ForwardedLookup& probe : probes) {
    SCOPED_TRACE(probe.domain + " @" + std::to_string(probe.timestamp.millis()));
    const auto via_one = matcher_.match_one(probe);
    const DomainMatcher::Resolved resolved = matcher_.resolve(probe.domain);
    ASSERT_TRUE(via_one.has_value());
    ASSERT_TRUE(static_cast<bool>(resolved));
    const DomainMatcher::MatchOutcome via_resolved =
        matcher_.match_resolved(resolved, probe.timestamp, probe.forwarder);
    EXPECT_EQ(via_resolved.key, via_one->key);
    EXPECT_EQ(via_resolved.lookup, via_one->lookup);
  }
}

TEST_F(MatcherTest, ResolveManyAgreesWithResolve) {
  // The batched pipeline (flat probe table + prefetch waves) must answer
  // exactly like the canonical map lookup, member and non-member alike,
  // across several pipeline chunks.
  std::vector<std::string_view> domains;
  for (std::int64_t epoch = 0; epoch < 2; ++epoch) {
    for (const std::string& d : model_->epoch_pool(epoch).domains) {
      domains.push_back(d);
    }
  }
  std::vector<std::string> misses;
  for (int i = 0; i < 150; ++i) {
    misses.push_back("benign" + std::to_string(i) + ".example");
  }
  for (const std::string& miss : misses) domains.push_back(miss);

  std::vector<DomainMatcher::Resolved> batched(domains.size());
  matcher_.resolve_many(domains, batched);
  const TimePoint t{seconds(17).millis()};
  for (std::size_t i = 0; i < domains.size(); ++i) {
    SCOPED_TRACE(std::string(domains[i]));
    const DomainMatcher::Resolved single = matcher_.resolve(domains[i]);
    ASSERT_EQ(static_cast<bool>(batched[i]), static_cast<bool>(single));
    if (single) {
      const auto via_batched =
          matcher_.match_resolved(batched[i], t, dns::ServerId{2});
      const auto via_single =
          matcher_.match_resolved(single, t, dns::ServerId{2});
      EXPECT_EQ(via_batched.key, via_single.key);
      EXPECT_EQ(via_batched.lookup, via_single.lookup);
    }
  }

  std::vector<DomainMatcher::Resolved> wrong_size(domains.size() + 1);
  EXPECT_THROW(matcher_.resolve_many(domains, wrong_size), ConfigError);
}

/// The per-tuple reference of match(): one match_one per lookup, tallied
/// and grouped in stream order, each stream then put in canonical order.
std::pair<MatchedStreams, MatchStats> match_per_tuple(
    const DomainMatcher& matcher, std::span<const dns::ForwardedLookup> stream) {
  MatchedStreams out;
  MatchStats stats;
  for (const dns::ForwardedLookup& lookup : stream) {
    ++stats.stream_size;
    stats.server_width = std::max<std::uint64_t>(
        stats.server_width, std::uint64_t{lookup.forwarder.value()} + 1);
    const auto outcome = matcher.match_one(lookup);
    if (!outcome) {
      ++stats.unmatched;
      continue;
    }
    ++stats.matched;
    ++(outcome->lookup.is_valid_domain ? stats.valid_domain : stats.nxd);
    out[outcome->key].push_back(outcome->lookup);
  }
  for (auto& [key, lookups] : out) {
    std::sort(lookups.begin(), lookups.end(), matched_lookup_less);
  }
  return {std::move(out), stats};
}

TEST_F(MatcherTest, ChunkedMatchEqualsPerTupleMatchOne) {
  // Stream lengths around the resolve chunk: empty, one tuple, one short of
  // a chunk, exactly one, one past, and several chunks plus a ragged tail.
  // Members of both epochs, boundary spills and benign misses interleave.
  constexpr std::size_t k = DomainMatcher::kMatchChunk;
  std::vector<dns::ForwardedLookup> full;
  for (std::uint32_t i = 0; full.size() < 3 * k + 7; ++i) {
    const std::int64_t epoch = (i / 5) % 2;
    const std::uint32_t pos = i % model_->epoch_pool(epoch).size();
    const dns::ServerId server{i % 3};
    switch (i % 4) {
      case 0:
        full.push_back(lookup_for(epoch, pos, seconds(i), server));
        break;
      case 1:
        full.push_back(lookup_for(epoch, pos, days(1) + minutes(i), server));
        break;
      default:
        full.push_back({TimePoint{seconds(i).millis()}, server,
                        "benign" + std::to_string(i % 50) + ".example"});
    }
  }
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, k - 1, k, k + 1,
                              3 * k + 7}) {
    const std::span<const dns::ForwardedLookup> stream(full.data(), n);
    const auto [expected, expected_stats] = match_per_tuple(matcher_, stream);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      WorkerPool workers(threads, WorkerPool::Oversubscribe::kAllow);
      MatchStats stats;
      const MatchedStreams matched = matcher_.match(stream, &stats, &workers);
      EXPECT_EQ(matched, expected);
      EXPECT_EQ(stats, expected_stats);
    }
  }
}

TEST(MatcherDetectionTest, WindowsThatDetectNothingMatchNothing) {
  // A window with every position undetected leaves the index empty, and
  // the batched resolve must answer every tuple with a miss. At miss rate
  // 1.0 only the confirmed C2 positions stay matchable.
  const auto model = dga::make_pool_model(tiny_config());
  std::vector<dns::ForwardedLookup> stream;
  for (std::int64_t epoch = 0; epoch < 2; ++epoch) {
    for (const std::string& domain : model->epoch_pool(epoch).domains) {
      stream.push_back({TimePoint{epoch * days(1).millis() + 1000},
                        dns::ServerId{0}, domain});
    }
  }
  stream.push_back({TimePoint{5}, dns::ServerId{1}, "benign.example"});

  DomainMatcher blind(days(1));
  DomainMatcher missing(days(1));
  Rng rng{3};
  for (std::int64_t epoch = 0; epoch < 2; ++epoch) {
    const dga::EpochPool& pool = model->epoch_pool(epoch);
    DetectionWindow none = perfect_detection(pool);
    none.detected.assign(pool.size(), false);
    blind.add_epoch(pool, none);
    missing.add_epoch(pool, make_detection_window(pool, 1.0, rng));
  }
  EXPECT_EQ(blind.matchable_domain_count(), 0u);

  WorkerPool workers(2, WorkerPool::Oversubscribe::kAllow);
  for (WorkerPool* pool : {static_cast<WorkerPool*>(nullptr), &workers}) {
    MatchStats stats;
    EXPECT_TRUE(blind.match(stream, &stats, pool).empty());
    EXPECT_EQ(stats.stream_size, stream.size());
    EXPECT_EQ(stats.unmatched, stream.size());
    EXPECT_EQ(stats.matched, 0u);

    const MatchedStreams matched = missing.match(stream, &stats, pool);
    EXPECT_EQ(stats.nxd, 0u);
    EXPECT_EQ(stats.valid_domain, stats.matched);
    EXPECT_EQ(stats.matched, 2u);  // one confirmed C2 per epoch
    EXPECT_EQ(matched, match_per_tuple(missing, stream).first);
  }
}

/// An independent reference for the domain index: every registered domain
/// with its (epoch, position, valid) occurrences in registration order, in
/// an ordered map built straight from the pools and windows.
struct ReferenceOccurrence {
  std::int64_t epoch;
  std::uint32_t position;
  bool valid;
};
using ReferenceIndex =
    std::map<std::string, std::vector<ReferenceOccurrence>>;

struct IndexUnderTest {
  explicit IndexUnderTest(const dga::DgaConfig& config)
      : model(dga::make_pool_model(config)), matcher(config.epoch) {}

  /// Register `epoch` with the matcher and the reference alike.
  void add(std::int64_t epoch, const DetectionWindow& window) {
    const dga::EpochPool& pool = model->epoch_pool(epoch);
    matcher.add_epoch(pool, window);
    for (std::uint32_t pos = 0; pos < pool.size(); ++pos) {
      if (!window.detected[pos]) continue;
      reference[pool.domains[pos]].push_back(
          {epoch, pos, pool.is_valid_position(pos)});
    }
    epochs.push_back(epoch);
  }

  std::unique_ptr<dga::QueryPoolModel> model;
  DomainMatcher matcher;
  ReferenceIndex reference;
  std::vector<std::int64_t> epochs;
};

/// Every registered domain resolves through all three entry points and
/// attributes, at each of its epochs, to that epoch's first occurrence;
/// everything else misses.
void expect_index_matches_reference(const IndexUnderTest& index) {
  const DomainMatcher& matcher = index.matcher;
  std::uint64_t occurrences = 0;
  for (const auto& [domain, list] : index.reference) occurrences += list.size();
  EXPECT_EQ(matcher.matchable_domain_count(), occurrences);

  std::vector<std::string> misses;
  for (const std::int64_t epoch : index.epochs) {
    for (const std::string& domain : index.model->epoch_pool(epoch).domains) {
      if (!index.reference.contains(domain)) misses.push_back(domain);
    }
  }
  for (int i = 0; i < 300; ++i) {
    misses.push_back("benign" + std::to_string(i) + ".example");
  }
  if (!index.reference.empty()) {
    misses.push_back(index.reference.begin()->first + "x");
    misses.push_back("x" + index.reference.rbegin()->first);
  }

  std::vector<std::string_view> members;
  for (const auto& [domain, list] : index.reference) members.push_back(domain);
  std::vector<DomainMatcher::Resolved> batched(members.size());
  matcher.resolve_many(members, batched);

  const std::int64_t epoch_ms = matcher.epoch_length().millis();
  std::size_t failures = 0;
  for (std::size_t i = 0; i < members.size() && failures < 10; ++i) {
    const std::string domain(members[i]);
    const std::vector<ReferenceOccurrence>& list = index.reference.at(domain);
    const DomainMatcher::Resolved single = matcher.resolve(domain);
    const bool resolved =
        static_cast<bool>(single) && static_cast<bool>(batched[i]);
    EXPECT_TRUE(resolved) << domain;
    if (!resolved) {
      ++failures;
      continue;
    }
    for (const ReferenceOccurrence& occ : list) {
      const ReferenceOccurrence& first = *std::find_if(
          list.begin(), list.end(),
          [&occ](const ReferenceOccurrence& o) { return o.epoch == occ.epoch; });
      const TimePoint t{occ.epoch * epoch_ms + 1000};
      const DomainMatcher::MatchOutcome want{
          StreamKey{dns::ServerId{3}, occ.epoch},
          MatchedLookup{t, first.position, first.valid}};
      const auto via_one =
          matcher.match_one(dns::ForwardedLookup{t, dns::ServerId{3}, domain});
      ASSERT_TRUE(via_one.has_value()) << domain;
      for (const DomainMatcher::MatchOutcome& got :
           {matcher.match_resolved(single, t, dns::ServerId{3}, occ.epoch),
            matcher.match_resolved(batched[i], t, dns::ServerId{3}),
            *via_one}) {
        if (got.key != want.key || !(got.lookup == want.lookup)) {
          ADD_FAILURE() << domain << " at epoch " << occ.epoch
                        << " attributed to epoch " << got.key.epoch
                        << " position " << got.lookup.pool_position;
          ++failures;
        }
      }
    }
  }

  std::vector<std::string_view> miss_views(misses.begin(), misses.end());
  std::vector<DomainMatcher::Resolved> batched_misses(miss_views.size());
  matcher.resolve_many(miss_views, batched_misses);
  for (std::size_t i = 0; i < misses.size(); ++i) {
    EXPECT_FALSE(static_cast<bool>(matcher.resolve(misses[i]))) << misses[i];
    EXPECT_FALSE(static_cast<bool>(batched_misses[i])) << misses[i];
    EXPECT_FALSE(matcher
                     .match_one(dns::ForwardedLookup{TimePoint{1000},
                                                     dns::ServerId{0},
                                                     misses[i]})
                     .has_value())
        << misses[i];
  }
}

TEST(MatcherIndexTest, ConfickerPoolsGrowTheTableAndMatchTheReference) {
  // ~50k domains per epoch: the table doubles from its first size many
  // times over, re-seating every slot each time.
  IndexUnderTest index(dga::conficker_c_config());
  for (std::int64_t epoch = 0; epoch < 3; ++epoch) {
    index.add(epoch, perfect_detection(index.model->epoch_pool(epoch)));
  }
  EXPECT_GT(index.reference.size(), 100000u);
  expect_index_matches_reference(index);
}

TEST(MatcherIndexTest, SlidingWindowDomainsMatchTheReference) {
  // One domain in many epochs' pools: each registered epoch attributes to
  // its own occurrence.
  IndexUnderTest index(dga::pushdo_config());
  for (std::int64_t epoch = 0; epoch < 12; ++epoch) {
    index.add(epoch, perfect_detection(index.model->epoch_pool(epoch)));
  }
  std::size_t shared = 0;
  for (const auto& [domain, list] : index.reference) {
    if (list.size() > 1) ++shared;
  }
  EXPECT_GT(shared, 100u);
  expect_index_matches_reference(index);
}

TEST(MatcherIndexTest, PartialWindowsMatchTheReference) {
  // A 0.3 miss rate leaves every third domain or so unregistered: those
  // must miss like benign traffic.
  for (const dga::DgaConfig& config :
       {dga::newgoz_config(), dga::ranbyus_config()}) {
    SCOPED_TRACE(config.name);
    IndexUnderTest index(config);
    Rng rng{11};
    for (std::int64_t epoch = 0; epoch < 4; ++epoch) {
      index.add(epoch,
                make_detection_window(index.model->epoch_pool(epoch), 0.3, rng));
    }
    expect_index_matches_reference(index);
  }
}

TEST(MatcherIndexTest, EmptyMatcherMatchesTheEmptyReference) {
  IndexUnderTest index(dga::newgoz_config());
  expect_index_matches_reference(index);
  EXPECT_EQ(index.matcher.matchable_domain_count(), 0u);
}

/// A lookup as a bucket holds it: within one epoch the pool position fixes
/// the domain, so it also fixes `is_valid_domain`.
MatchedLookup lookup_at(std::int64_t t_ms, std::uint32_t pos) {
  return MatchedLookup{TimePoint{t_ms}, pos, pos % 7 == 0};
}

/// sort_matched must leave exactly what std::sort leaves.
void expect_sorts_like_std_sort(std::vector<MatchedLookup> lookups) {
  std::vector<MatchedLookup> expected = lookups;
  std::sort(expected.begin(), expected.end(), matched_lookup_less);
  sort_matched(lookups);
  ASSERT_EQ(lookups.size(), expected.size());
  for (std::size_t i = 0; i < lookups.size(); ++i) {
    ASSERT_EQ(lookups[i], expected[i]) << "at " << i;
  }
}

/// An ordered bucket of n lookups: timestamps climb by 0–2 s (so some
/// repeat), positions drawn from a 64-domain pool.
std::vector<MatchedLookup> ordered_bucket(std::size_t n, Rng& rng) {
  std::vector<MatchedLookup> lookups;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += static_cast<std::int64_t>(rng.uniform(3)) * 1000;
    lookups.push_back(lookup_at(t, static_cast<std::uint32_t>(rng.uniform(64))));
  }
  std::sort(lookups.begin(), lookups.end(), matched_lookup_less);
  return lookups;
}

TEST(SortMatchedTest, EmptyAndSingleLookupAreUnchanged) {
  expect_sorts_like_std_sort({});
  expect_sorts_like_std_sort({lookup_at(5, 3)});
}

TEST(SortMatchedTest, OrderedReversedAndEqualBuckets) {
  Rng rng{3};
  const std::vector<MatchedLookup> ordered = ordered_bucket(1000, rng);
  expect_sorts_like_std_sort(ordered);
  expect_sorts_like_std_sort({ordered.rbegin(), ordered.rend()});
  expect_sorts_like_std_sort(
      std::vector<MatchedLookup>(257, lookup_at(1000, 9)));
  expect_sorts_like_std_sort({lookup_at(2, 1), lookup_at(1, 1)});
}

TEST(SortMatchedTest, OneTimestampManyPoolPositions) {
  // Order then rests on the pool position alone.
  std::vector<MatchedLookup> lookups;
  for (std::uint32_t pos = 0; pos < 500; ++pos) {
    lookups.push_back(lookup_at(7000, pos % 200));
  }
  Rng rng{5};
  rng.shuffle(std::span<MatchedLookup>(lookups));
  expect_sorts_like_std_sort(lookups);
}

TEST(SortMatchedTest, OneLookupSmallerThanAllOthers) {
  Rng rng{7};
  const std::vector<MatchedLookup> ordered = ordered_bucket(1000, rng);
  for (const std::size_t at : {std::size_t{1}, std::size_t{500},
                               ordered.size()}) {
    SCOPED_TRACE("at " + std::to_string(at));
    std::vector<MatchedLookup> lookups = ordered;
    lookups.insert(lookups.begin() + static_cast<std::ptrdiff_t>(at),
                   lookup_at(-1, 0));
    expect_sorts_like_std_sort(lookups);
  }
}

TEST(SortMatchedTest, HugeEarlyOutlierDisplacesEverythingAfterIt) {
  // The kept run is {first, outlier}: every later lookup goes aside.
  Rng rng{11};
  std::vector<MatchedLookup> lookups = ordered_bucket(1000, rng);
  lookups.insert(lookups.begin() + 1,
                 lookup_at(std::int64_t{1} << 50, 3));
  expect_sorts_like_std_sort(lookups);
  lookups.insert(lookups.begin(), lookup_at(std::int64_t{1} << 51, 4));
  expect_sorts_like_std_sort(lookups);
}

TEST(SortMatchedTest, DisplacedRunsMatchStdSort) {
  // Seeded near-ordered buckets: 1% of lookups moved back or forward by up
  // to 50 places, as a border feed's late arrivals leave them. Plus a few
  // fully shuffled buckets.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    for (const std::size_t n : {std::size_t{2}, std::size_t{100},
                                std::size_t{1000}, std::size_t{15000}}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " n " + std::to_string(n));
      Rng rng{seed};
      std::vector<MatchedLookup> lookups = ordered_bucket(n, rng);
      for (std::size_t moved = 0; moved < std::max<std::size_t>(1, n / 100);
           ++moved) {
        const std::size_t from = rng.uniform(n);
        const std::int64_t offset = rng.uniform_range(-50, 50);
        const std::size_t to = static_cast<std::size_t>(std::clamp<std::int64_t>(
            static_cast<std::int64_t>(from) + offset, 0,
            static_cast<std::int64_t>(n) - 1));
        const MatchedLookup item = lookups[from];
        lookups.erase(lookups.begin() + static_cast<std::ptrdiff_t>(from));
        lookups.insert(lookups.begin() + static_cast<std::ptrdiff_t>(to), item);
      }
      expect_sorts_like_std_sort(lookups);
      rng.shuffle(std::span<MatchedLookup>(lookups));
      expect_sorts_like_std_sort(lookups);
    }
  }
}

TEST(AlgorithmicPatternTest, MatchesGeneratedDomains) {
  const AlgorithmicPattern pattern(8, 19, {".com", ".net", ".org", ".biz",
                                           ".info", ".ru"});
  auto model = dga::make_pool_model(dga::murofet_config());
  for (const std::string& d : model->epoch_pool(0).domains) {
    EXPECT_TRUE(pattern.matches(d)) << d;
  }
}

TEST(AlgorithmicPatternTest, RejectsBenignShapes) {
  const AlgorithmicPattern pattern(8, 19, {".com", ".net"});
  EXPECT_FALSE(pattern.matches("host12.corp3.example"));  // wrong TLD
  EXPECT_FALSE(pattern.matches("www.google.com"));        // dots in label
  EXPECT_FALSE(pattern.matches("short.com"));             // too short
  EXPECT_FALSE(pattern.matches("UPPERCASEDOMAIN.com"));   // wrong charset
  EXPECT_FALSE(pattern.matches("1startsdigit.com"));      // leading digit
  EXPECT_FALSE(pattern.matches(".com"));                  // empty label
}

TEST(AlgorithmicPatternTest, InvalidConstruction) {
  EXPECT_THROW(AlgorithmicPattern(0, 5, {".com"}), ConfigError);
  EXPECT_THROW(AlgorithmicPattern(5, 4, {".com"}), ConfigError);
  EXPECT_THROW(AlgorithmicPattern(5, 9, {"com"}), ConfigError);
}

}  // namespace
}  // namespace botmeter::detect
