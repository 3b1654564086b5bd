#include "ntp/rate_limit.h"

#include <algorithm>

namespace dnstime::ntp {

RateLimiter::Action RateLimiter::limited_action(SourceState& st) {
  if (config_.leak_probability > 0 && rng_.chance(config_.leak_probability)) {
    return Action::kRespond;
  }
  if (config_.send_kod && !st.kod_sent) {
    st.kod_sent = true;
    return Action::kKod;
  }
  return Action::kDrop;
}

RateLimiter::Action RateLimiter::check(Ipv4Addr src, sim::Time now) {
  if (!config_.enabled) return Action::kRespond;
  auto [it, inserted] = sources_.try_emplace(src);
  SourceState& st = it->second;
  if (inserted) st.tokens = config_.burst;

  if (st.seen) {
    sim::Duration gap = now - st.last_arrival;
    if (gap < kMinGap) {
      // `discard minimum` violation: unconditional refusal. The arrival
      // still rolls the window forward and bleeds the bucket (ntpd's
      // average worsens with every sub-gap packet), so a continuous
      // sub-gap flood blocks the source address entirely.
      st.last_arrival = now;
      st.tokens = std::max(0.0, st.tokens - 1.0);
      return limited_action(st);
    }
    st.tokens = std::min(
        config_.burst,
        st.tokens + gap.to_seconds() / kAvgInterval.to_seconds());
  }
  st.last_arrival = now;
  st.seen = true;

  if (st.tokens >= 1.0) {
    st.tokens -= 1.0;
    st.kod_sent = false;
    return Action::kRespond;
  }
  return limited_action(st);
}

}  // namespace dnstime::ntp
