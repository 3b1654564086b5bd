#include "sim/network.h"

#include <utility>

namespace dnstime::sim {

void Network::send(net::Ipv4Packet&& pkt) {
  packets_sent_++;
  const LinkProfile& link = profile_for(pkt.src, pkt.dst);
  if (link.loss > 0.0 && rng_.chance(link.loss)) return;

  Duration delay = link.latency;
  if (link.jitter > Duration::millis(0)) {
    delay = delay + Duration::nanos(static_cast<i64>(
                        rng_.uniform(0, static_cast<u64>(link.jitter.ns()))));
  }
  const Time at = loop_.now() + delay;
  // Joining the open train is exact: as its own event, this packet would
  // take the seq right after the train's last packet at the same instant,
  // so nothing could pop between the two.
  if (open_ != kNoTrain && at == open_at_ &&
      loop_.next_seq() == open_next_seq_) {
    trains_[open_].push_back(std::move(pkt));
    return;
  }
  u32 train;
  if (free_trains_.empty()) {
    train = static_cast<u32>(trains_.size());
    trains_.emplace_back();
  } else {
    train = free_trains_.back();
    free_trains_.pop_back();
  }
  // The payload changes hands once at send() (the const& overload copies
  // there for senders that keep theirs), then moves into the train.
  trains_[train].push_back(std::move(pkt));
  loop_.schedule_at(at, [this, train] { deliver_train(train); });
  open_ = train;
  open_at_ = at;
  open_next_seq_ = loop_.next_seq();
}

void Network::deliver_train(u32 train) {
  // Close the train first: a send from a delivery below opens a new one.
  if (open_ == train) open_ = kNoTrain;
  std::vector<net::Ipv4Packet> pkts = std::move(trains_[train]);
  for (net::Ipv4Packet& pkt : pkts) {
    // Looked up per packet: a delivery may detach a later packet's sink.
    auto it = sinks_.find(pkt.dst);
    if (it != sinks_.end()) {  // unreachable host: silent drop
      packets_delivered_++;
      it->second->deliver(pkt);
    }
    // Release the payload as its own delivery returns, as a per-packet
    // event did, so copy-on-write and block counts see the same sharing.
    pkt.payload = PacketBuf();
  }
  pkts.clear();
  trains_[train] = std::move(pkts);
  free_trains_.push_back(train);
}

}  // namespace dnstime::sim
