#include "attack/ipid_predictor.h"

#include "dns/pool_zone.h"

namespace dnstime::attack {

IpidProber::IpidProber(net::NetStack& attacker, Ipv4Addr target_ns,
                       Config config)
    : stack_(attacker), target_(target_ns), config_(std::move(config)) {}

IpidProber::~IpidProber() {
  if (tap_token_ != 0) stack_.remove_packet_tap(tap_token_);
}

void IpidProber::run(std::function<void(const IpidPrediction&)> done) {
  done_ = std::move(done);
  samples_.clear();
  sent_ = 0;
  tap_token_ = stack_.add_packet_tap([this](const net::Ipv4Packet& pkt) {
    // Record the IPID of every packet the target sends us (first fragment
    // or whole packet both carry the counter value).
    if (pkt.src != target_) return;
    if (pkt.frag_offset_units != 0) return;
    samples_.emplace_back(stack_.now(), pkt.id);
  });
  send_probe();
}

void IpidProber::send_probe() {
  if (sent_ >= config_.probes) {
    // Allow the last response to arrive before fitting.
    stack_.loop().schedule_after(sim::Duration::millis(500),
                                 [this] { finish(); });
    return;
  }
  sent_++;
  dns::DnsMessage query;
  query.id = stack_.rng().next_u16();
  query.rd = false;
  query.questions = {dns::DnsQuestion{dns::pool_name(), dns::RrType::kA}};
  u16 port = stack_.ephemeral_port();
  // Responses land on the bound port; the tap sees their IPIDs. The
  // handler exists purely to own/release the port.
  stack_.bind_udp(port,
                  [](const net::UdpEndpoint&, u16, const PacketBuf&) {});
  stack_.send_udp(target_, port, kDnsPort, encode_dns_buf(query));
  stack_.loop().schedule_after(config_.spacing, [this, port] {
    stack_.unbind_udp(port);
    send_probe();
  });
}

void IpidProber::finish() {
  stack_.remove_packet_tap(tap_token_);
  tap_token_ = 0;
  IpidPrediction prediction;
  if (samples_.size() >= 2) {
    // Fit the increment rate over consecutive gaps, unwrapping mod 2^16.
    // Each of our own probes consumes one counter value (the response we
    // observed), so subtract one increment per gap: the remainder is the
    // background traffic rate we must extrapolate over.
    double total_incr = 0.0;
    double total_dt = 0.0;
    for (std::size_t i = 1; i < samples_.size(); ++i) {
      u16 delta = static_cast<u16>(samples_[i].second -
                                   samples_[i - 1].second);
      total_incr += delta >= 1 ? delta - 1 : 0;
      total_dt += (samples_[i].first - samples_[i - 1].first).to_seconds();
    }
    prediction.valid = total_dt > 0;
    prediction.rate_per_second = total_dt > 0 ? total_incr / total_dt : 0.0;
    prediction.last_observed = samples_.back().second;
    prediction.observed_at = samples_.back().first;
  } else if (samples_.size() == 1) {
    prediction.valid = true;
    prediction.rate_per_second = 0.0;
    prediction.last_observed = samples_.back().second;
    prediction.observed_at = samples_.back().first;
  }
  // Move the callback out first: it may destroy this prober (owners often
  // replace their prober from inside the completion callback).
  auto done = std::move(done_);
  done_ = nullptr;
  if (done) done(prediction);
}

std::vector<u16> spray_window(const IpidPrediction& prediction, sim::Time when,
                              std::size_t width) {
  std::vector<u16> out;
  out.reserve(width);
  u16 base = prediction.predict_at(when);
  for (std::size_t i = 0; i < width; ++i) {
    out.push_back(static_cast<u16>(base + i));
  }
  return out;
}

}  // namespace dnstime::attack
