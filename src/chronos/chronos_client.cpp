#include "chronos/chronos_client.h"

namespace dnstime::chronos {

ChronosClient::ChronosClient(net::NetStack& stack, ntp::SystemClock& clock,
                             ntp::ClientBaseConfig base_config,
                             ChronosClientConfig config)
    : NtpClientBase(stack, clock, std::move(base_config)),
      config_chronos_(std::move(config)),
      builder_(stack, NtpClientBase::config_.resolver,
               config_chronos_.pool) {}

void ChronosClient::start() {
  builder_.start();
  schedule_next();
}

void ChronosClient::schedule_next() {
  stack_.loop().schedule_after(config_chronos_.update_interval, [this] {
    update_once(config_chronos_.params.max_retries);
    schedule_next();
  });
}

void ChronosClient::update_once(int retries_left) {
  const auto& pool = builder_.pool();
  int m = config_chronos_.params.sample_size;
  if (pool.size() < static_cast<std::size_t>(m)) return;  // pool too small yet

  // Uniform random sample of m servers from the pool.
  auto idx = stack_.rng().sample_indices(pool.size(),
                                         static_cast<std::size_t>(m));
  std::vector<Ipv4Addr> sample;
  sample.reserve(idx.size());
  for (auto i : idx) sample.push_back(pool[i]);

  collect_offsets(sample, [this, retries_left](std::vector<double> offsets) {
    SelectionResult result =
        chronos_trim_select(std::move(offsets), config_chronos_.params);
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
      SelectionResult panic_result =
          chronos_panic_select(std::move(all), config_chronos_.params);
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
