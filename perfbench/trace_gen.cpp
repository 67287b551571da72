#include "trace_gen.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <queue>
#include <streambuf>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "botnet/simulator.hpp"
#include "common/rng.hpp"
#include "dga/domain_gen.hpp"
#include "dga/families.hpp"
#include "trace/block.hpp"
#include "trace/io.hpp"

namespace botmeter::perfbench {

namespace {

constexpr std::int64_t kMaxDisplacementMs = 5'000;
constexpr std::int64_t kHourMs = 3'600'000;
constexpr std::size_t kProbeStride = 16;
constexpr std::size_t kProbeCap = std::size_t{1} << 17;
constexpr std::size_t kTextChunk = 4096;
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

/// Appends everything written through it to a caller-owned string, so the
/// encoded trace never exists twice (an ostringstream's str() copies).
class StringSink : public std::streambuf {
 public:
  explicit StringSink(std::string& out) : out_(&out) {}

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      out_->push_back(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_->append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::string* out_;
};

/// Zipf(s = 1) over [0, n) by inverse CDF.
class Zipf {
 public:
  explicit Zipf(std::uint32_t n) : cdf_(n) {
    double sum = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  std::uint32_t operator()(Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    const auto k = static_cast<std::size_t>(it - cdf_.begin());
    return static_cast<std::uint32_t>(std::min(k, cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// One generated tuple waiting for its arrival slot.
struct Pending {
  std::int64_t arrival = 0;
  std::uint64_t seq = 0;
  std::int64_t t = 0;
  std::uint32_t server = 0;
  std::uint32_t domain = 0;  // index into Trace::domains

  friend bool operator>(const Pending& a, const Pending& b) {
    return a.arrival != b.arrival ? a.arrival > b.arrival : a.seq > b.seq;
  }
};

/// Encodes tuples in arrival order into `trace.bytes` with the spec's codec.
class Encoder {
 public:
  Encoder(Trace& trace, std::uint64_t expected_tuples)
      : trace_(trace), sink_(trace.bytes), os_(&sink_) {
    // Reserved but untouched capacity is never resident, so over-reserving
    // keeps the buffer from doubling (and briefly existing twice) as it grows.
    const std::uint64_t per_tuple =
        trace.spec.codec == Codec::kText ? 64 : 32;
    trace.bytes.reserve(static_cast<std::size_t>(expected_tuples * per_tuple));
    if (trace.spec.codec == Codec::kBinary) {
      writer_.emplace(os_);
      next_boundary_ = close_boundary_ms(trace.family, 0);
    }
  }

  void emit(const Pending& p) {
    const std::string& domain = trace_.domains[p.domain];
    if (trace_.tuples % kProbeStride == 0 &&
        trace_.probe_sample.size() < kProbeCap) {
      trace_.probe_sample.push_back(
          {TimePoint{p.t}, dns::ServerId{p.server}, domain});
    }
    ++trace_.tuples;
    if (writer_) {
      while (p.t >= next_boundary_) {
        writer_->flush_block();
        next_boundary_ = ++boundary_epoch_ < trace_.spec.epochs
                             ? close_boundary_ms(trace_.family, boundary_epoch_)
                             : std::numeric_limits<std::int64_t>::max();
      }
      writer_->append(TimePoint{p.t}, dns::ServerId{p.server}, domain);
      return;
    }
    chunk_.push_back({TimePoint{p.t}, dns::ServerId{p.server}, domain});
    if (chunk_.size() == kTextChunk) flush_text();
  }

  void finish() {
    if (writer_) {
      writer_->finish();
    } else {
      flush_text();
    }
  }

 private:
  void flush_text() {
    trace::write_observable(os_, chunk_);
    chunk_.clear();
  }

  Trace& trace_;
  StringSink sink_;
  std::ostream os_;
  std::optional<trace::BlockWriter> writer_;
  std::int64_t next_boundary_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t boundary_epoch_ = 0;
  std::vector<dns::ForwardedLookup> chunk_;
};

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::int64_t close_boundary_ms(const dga::DgaConfig& family,
                               std::int64_t epoch) {
  return (epoch + 2) * family.epoch.millis();
}

Trace make_trace(const TraceSpec& spec, std::uint64_t seed) {
  Trace trace;
  trace.spec = spec;
  trace.family = dga::family_config(spec.family);

  botnet::SimulationConfig sim;
  sim.dga = trace.family;
  sim.bot_count = spec.bots;
  sim.server_count = spec.servers;
  sim.first_epoch = 0;
  sim.epoch_count = spec.epochs;
  sim.seed = seed;
  sim.record_raw = false;
  botnet::SimulationResult result = botnet::simulate(sim);
  // The capture ends with the horizon. Without this, whether a lookup train
  // spills past it decides by seed whether the second-to-last epoch closes
  // during ingest or in finish(), and the lag percentiles jump with it.
  const std::int64_t horizon_end_ms = spec.epochs * trace.family.epoch.millis();
  std::erase_if(result.observable, [&](const dns::ForwardedLookup& lookup) {
    return lookup.timestamp.millis() >= horizon_end_ms;
  });
  std::stable_sort(result.observable.begin(), result.observable.end(),
                   [](const dns::ForwardedLookup& a,
                      const dns::ForwardedLookup& b) {
                     return a.timestamp < b.timestamp;
                   });

  for (botnet::EpochTruth& epoch : result.truth) {
    trace.truth.push_back(std::move(epoch.active_per_server));
  }

  Rng rng(stream_seed(seed, 0xB0B5));
  const Zipf zipf(spec.benign_ids);
  std::unordered_map<std::string, std::uint32_t> slot_of;
  const auto intern = [&](const std::string& domain) {
    const auto [it, fresh] = slot_of.try_emplace(
        domain, static_cast<std::uint32_t>(trace.domains.size()));
    if (fresh) trace.domains.push_back(domain);
    return it->second;
  };
  // benign_domain() may name two ids alike; interning by string keeps
  // `domains` distinct.
  std::vector<std::uint32_t> benign_slot(spec.benign_ids, kNoSlot);
  const auto intern_benign = [&](std::uint32_t k) {
    if (benign_slot[k] == kNoSlot) benign_slot[k] = intern(dga::benign_domain(k));
    return benign_slot[k];
  };

  const std::uint64_t expected =
      result.observable.size() * (std::uint64_t{1} + spec.benign_per_dga);
  Encoder encoder(trace, expected);

  // A late tuple waits until its own server's traffic has crossed its
  // epoch's close boundary (`arrival` holds that boundary), then arrives
  // right behind the crossing tuple: whichever engine or shard owns the
  // server has closed the epoch by then.
  std::vector<std::deque<Pending>> late_by_server(spec.servers);
  std::vector<std::int64_t> server_watermark(
      spec.servers, std::numeric_limits<std::int64_t>::min());
  const auto emit = [&](const Pending& p) {
    encoder.emit(p);
    std::int64_t& watermark = server_watermark[p.server];
    watermark = std::max(watermark, p.t);
    std::deque<Pending>& late = late_by_server[p.server];
    while (!late.empty() && late.front().arrival <= watermark) {
      encoder.emit(late.front());
      late.pop_front();
      ++trace.late_tuples;
    }
  };

  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> reorder;
  std::uint64_t seq = 0;
  const auto push = [&](Pending p) {
    p.seq = seq++;
    p.arrival = p.t;
    if (rng.bernoulli(spec.displaced_share)) {
      p.arrival += rng.uniform_range(1, kMaxDisplacementMs);
    }
    reorder.push(p);
  };

  const std::int64_t epoch_ms = trace.family.epoch.millis();
  trace.dga_tuples = result.observable.size();
  trace.matched_input.reserve(result.observable.size());
  for (dns::ForwardedLookup& lookup : result.observable) {
    const std::int64_t t = lookup.timestamp.millis();
    Pending dga_tuple;
    dga_tuple.t = t;
    dga_tuple.server = lookup.forwarder.value();
    dga_tuple.domain = intern(lookup.domain);
    const std::int64_t epoch = t / epoch_ms;
    const std::int64_t in_epoch = t % epoch_ms;
    // Only mid-epoch tuples go late, so a lookup train spilling over an
    // epoch edge can never make the attributed epoch ambiguous.
    const bool late = epoch + 3 <= spec.epochs && in_epoch >= kHourMs &&
                      in_epoch < epoch_ms - 2 * kHourMs &&
                      rng.bernoulli(spec.late_share);
    if (late) {
      dga_tuple.arrival = close_boundary_ms(trace.family, epoch);
      late_by_server[dga_tuple.server].push_back(dga_tuple);
    } else {
      push(dga_tuple);
      trace.matched_input.push_back(std::move(lookup));
    }
    for (std::uint32_t i = 0; i < spec.benign_per_dga; ++i) {
      Pending benign;
      benign.t = t;
      benign.server = static_cast<std::uint32_t>(rng.uniform(spec.servers));
      benign.domain = intern_benign(zipf(rng));
      push(benign);
    }
    // Every later tuple arrives at or after `t` with a larger sequence
    // number, so everything due by `t` is final.
    while (!reorder.empty() && reorder.top().arrival <= t) {
      emit(reorder.top());
      reorder.pop();
    }
  }
  while (!reorder.empty()) {
    emit(reorder.top());
    reorder.pop();
  }
  // Late tuples whose server never crossed their boundary are left out.
  encoder.finish();
  trace.fingerprint = fnv1a(trace.bytes);
  return trace;
}

}  // namespace botmeter::perfbench
