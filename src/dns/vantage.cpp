#include "dns/vantage.hpp"

#include <utility>

namespace botmeter::dns {

void VantagePoint::record(TimePoint t, ServerId forwarder, std::string domain) {
  if (granularity_.millis() > 0) t = quantize(t, granularity_);
  if (sink_) {
    sink_(ForwardedLookup{t, forwarder, std::move(domain)});
    return;
  }
  stream_.push_back(ForwardedLookup{t, forwarder, std::move(domain)});
}

std::vector<ForwardedLookup> VantagePoint::take() {
  return std::exchange(stream_, {});
}

}  // namespace botmeter::dns
