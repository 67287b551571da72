#include "stream/match_front.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace botmeter::stream {

MatchFront::MatchFront(const detect::DomainMatcher& matcher,
                       std::int64_t first_epoch, std::int64_t epoch_count,
                       std::optional<Duration> allowed_lateness,
                       obs::TraceSession* trace)
    : matcher_(&matcher),
      end_epoch_(first_epoch + epoch_count),
      epoch_ms_(matcher.epoch_length().millis()),
      lateness_ms_(allowed_lateness.value_or(matcher.epoch_length()).millis()),
      trace_(trace),
      next_close_(first_epoch) {}

std::int64_t MatchFront::next_boundary_ms() const {
  return next_close_ < end_epoch_
             ? (next_close_ + 1) * epoch_ms_ + lateness_ms_
             : std::numeric_limits<std::int64_t>::max();
}

void MatchFront::resolve_tail(std::span<const std::string_view> domains) {
  obs::ScopedTimer resolve_span(trace_, "stream.block.resolve_many");
  const std::size_t old = resolved_.size();
  resolve_scratch_.resize(domains.size() - old);
  matcher_->resolve_many(domains.subspan(old), resolve_scratch_);
  resolved_.resize(domains.size());
  for (std::size_t i = 0; i < resolve_scratch_.size(); ++i) {
    resolved_[old + i].resolved = resolve_scratch_[i];
  }
}

void MatchFront::absorb(const FrontCounters& delta,
                        std::optional<TimePoint> watermark) {
  counters_ += delta;
  watermark_ = std::max(watermark_, watermark);
}

void MatchFront::resume(const FrontCounters& counters,
                        std::optional<TimePoint> watermark,
                        std::int64_t next_epoch_to_close) {
  counters_ = counters;
  watermark_ = watermark;
  next_close_ = next_epoch_to_close;
}

}  // namespace botmeter::stream
