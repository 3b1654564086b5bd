#include "ntp/association.h"

namespace dnstime::ntp {

void Association::on_poll_sent() {
  reach_ = static_cast<u8>(reach_ << 1);
  unanswered_++;
}

void Association::on_response(double offset, double delay) {
  reach_ |= 1;
  unanswered_ = 0;
  samples_.push_back({offset, delay});
  while (samples_.size() > 8) samples_.pop_front();
}

std::optional<double> Association::filtered_offset() const {
  if (samples_.empty()) return std::nullopt;
  const Sample* best = &samples_.front();
  for (const auto& s : samples_) {
    if (s.delay <= best->delay) best = &s;
  }
  return best->offset;
}

}  // namespace dnstime::ntp
