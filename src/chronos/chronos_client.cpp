#include "chronos/chronos_client.h"

namespace dnstime::chronos {

ChronosClient::ChronosClient(net::NetStack& stack, ntp::SystemClock& clock,
                             ntp::ClientBaseConfig base_config)
    : NtpClientBase(stack, clock, std::move(base_config)),
      builder_(stack, config_.resolver) {}

void ChronosClient::start() {
  builder_.start();
  schedule_next();
}

void ChronosClient::schedule_next() {
  stack_.loop().schedule_after(kUpdateInterval, [this] {
    update_once(kMaxRetries);
    schedule_next();
  });
}

void ChronosClient::update_once(int retries_left) {
  const auto& pool = builder_.pool();
  if (pool.size() < kSampleSize) return;  // pool too small yet

  // Uniform random sample of m servers from the pool.
  auto idx = stack_.rng().sample_indices(pool.size(), kSampleSize);
  std::vector<Ipv4Addr> sample;
  sample.reserve(idx.size());
  for (auto i : idx) sample.push_back(pool[i]);

  collect_offsets(sample, [this, retries_left](std::vector<double> offsets) {
    SelectionResult result = chronos_trim_select(std::move(offsets));
    if (result.accepted) {
      accepted_++;
      clock_.step(result.offset, stack_.now());
      return;
    }
    if (retries_left > 0) {
      update_once(retries_left - 1);
      return;
    }
    // Panic: poll the whole pool.
    panics_++;
    collect_offsets(builder_.pool(), [this](std::vector<double> all) {
      SelectionResult panic_result = chronos_panic_select(std::move(all));
      if (panic_result.accepted) {
        accepted_++;
        clock_.step(panic_result.offset, stack_.now());
      } else {
        rejected_++;
      }
    });
  });
}

}  // namespace dnstime::chronos
