#include "ntp/clients/pool_client.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stats.h"
#include "obs/provenance.h"

namespace dnstime::ntp {

struct DaemonTraits {
  const char* name;
  std::size_t associations;
  int demobilize_after_unanswered;
  int rounds_before_step;
  bool runtime_dns;
  bool system_peer;
};

namespace {

constexpr int kNever = std::numeric_limits<int>::max();

/// Indexed by Daemon.
constexpr DaemonTraits kDaemons[] = {
    {"ntpd", 6, 8, 3, true, true},
    {"chrony", 4, 10, 5, true, false},
    {"openntpd", 4, kNever, 1, false, false},
};

}  // namespace

PoolClient::PoolClient(net::NetStack& stack, SystemClock& clock,
                       ClientBaseConfig base_config, Daemon daemon,
                       double constraint_window)
    : NtpClientBase(stack, clock, std::move(base_config)),
      traits_(kDaemons[static_cast<std::size_t>(daemon)]),
      constraint_window_(constraint_window) {}

std::string PoolClient::name() const { return traits_.name; }

void PoolClient::start() {
  refill_from_dns();
  // iburst-style quick start, then the regular poll cadence.
  stack_.loop().schedule_after(sim::Duration::seconds(2),
                               [this] { poll_round(); });
}

void PoolClient::restart() {
  assocs_.clear();
  booting_ = true;
  consecutive_large_ = 0;
  refill_from_dns();
}

std::vector<Ipv4Addr> PoolClient::current_servers() const {
  std::vector<Ipv4Addr> out;
  out.reserve(assocs_.size());
  for (const auto& a : assocs_) out.push_back(a->addr());
  return out;
}

void PoolClient::refill_from_dns() {
  if (refill_in_flight_) return;
  refill_in_flight_ = true;
  refills_++;
  resolve(config_.pool_domains.front(),
          [this](const std::vector<dns::ResourceRecord>& answers) {
            refill_in_flight_ = false;
            for (const auto& rr : answers) {
              if (assocs_.size() >= traits_.associations) break;
              bool known = std::ranges::any_of(
                  assocs_, [&](const auto& a) { return a->addr() == rr.a; });
              if (known || rr.a == stack_.addr()) continue;
              assocs_.push_back(std::make_shared<Association>(rr.a));
              DNSTIME_PROV_EVENT(peer_adopted(stack_.now().ns(),
                                              stack_.config().origin_module,
                                              rr.a.value()));
            }
          });
}

void PoolClient::poll_round() {
  auto outstanding = std::make_shared<std::size_t>(assocs_.size());
  if (assocs_.empty() && traits_.runtime_dns) {
    // No associations at all (e.g. DNS failed at boot): retry DNS.
    refill_from_dns();
  }
  for (const auto& assoc : assocs_) {
    assoc->on_poll_sent();
    poll_server(assoc->addr(),
                [this, assoc, outstanding](const PollResult& r) {
                  if (r.responded) assoc->on_response(r.offset, r.delay);
                  if (--*outstanding == 0) {
                    run_selection();
                    maintain_associations();
                  }
                });
  }
  stack_.loop().schedule_after(config_.poll_interval,
                               [this] { poll_round(); });
}

void PoolClient::run_selection() {
  std::vector<double> offsets;
  for (const auto& a : assocs_) {
    if (!a->reachable()) continue;
    if (auto off = a->filtered_offset()) offsets.push_back(*off);
  }
  if (offsets.empty()) return;
  double combined = median(offsets);

  if (constraint_window_ >= 0) {
    // HTTPS Date-header constraint: clock.offset() + combined, the offset
    // from true time after the adjustment, must stay within the window.
    double post = clock_.offset() + combined;
    if (post > constraint_window_ || post < -constraint_window_) return;
  }
  if (traits_.system_peer) select_system_peer(combined);

  bool large = std::abs(combined) > config_.step_threshold;
  bool changed = false;
  if (booting_) {
    changed = discipline(combined, /*at_boot=*/true);
    booting_ = !changed;
  } else if (!large) {
    consecutive_large_ = 0;
    discipline(combined, /*at_boot=*/false);
  } else if (++consecutive_large_ >= traits_.rounds_before_step) {
    // A large run-time offset must persist across rounds — ntpd waits for
    // the clock filter and stepout interval before trusting a big shift.
    changed = discipline(combined, /*at_boot=*/false);
    if (changed) consecutive_large_ = 0;
  }
  if (changed && large) {
    // After a step the pre-step filter samples are meaningless; clear
    // them, as ntpd clears its filter registers.
    for (const auto& a : assocs_) a->clear_samples();
  }
}

void PoolClient::select_system_peer(double combined) {
  // The reachable association closest to the combined offset.
  const Association* peer = nullptr;
  double best = 1e18;
  for (const auto& a : assocs_) {
    if (!a->reachable()) continue;
    auto off = a->filtered_offset();
    if (!off) continue;
    double dist = std::abs(*off - combined);
    if (dist < best) {
      best = dist;
      peer = a.get();
    }
  }
  if (peer == nullptr) return;
  if (peer->addr() != system_peer_) {
    DNSTIME_PROV_EVENT(peer_selected(stack_.now().ns(),
                                     stack_.config().origin_module,
                                     peer->addr().value()));
  }
  system_peer_ = peer->addr();
  if (attached_server_) attached_server_->set_upstream(system_peer_);
}

void PoolClient::maintain_associations() {
  std::erase_if(assocs_, [this](const auto& a) {
    return a->unanswered_polls() >= traits_.demobilize_after_unanswered;
  });
  if (traits_.runtime_dns && assocs_.size() < traits_.associations) {
    refill_from_dns();
  }
}

}  // namespace dnstime::ntp
