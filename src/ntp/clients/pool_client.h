// Pool-directive NTP daemons: ntpd, chrony and openntpd.
//
// The three daemons run the same NTP arithmetic: every poll interval they
// poll each association, keep the minimum-delay sample per association,
// combine the reachable ones by median and step or slew under the base
// policy. What decides which attack applies (Table I, §V) is their DNS
// and association policy, and that is data, one row per daemon in
// pool_client.cpp:
//
//                                     ntpd   chrony   openntpd
//   associations                        6       4         4
//   demobilise after unanswered polls   8      10       never
//   rounds a large run-time offset      3       5         1
//     must persist before a step
//   query DNS again at run time        yes     yes        no
//   system peer as the refid of an     yes      no        no
//     attached server
//
// Refill rule: a daemon that queries DNS at run time issues a new lookup
// whenever it holds fewer associations than its maximum after a poll
// round, with at most one lookup in flight. Answers from the resolver's
// cache (TTL 150 s) make this cheap. Each answer mobilises new addresses
// up to the maximum, skipping ones already associated and the host's own.
//
// Per daemon:
//  * ntpd: NTP_MAXCLOCK = 10 minus 4 persistent pool slots leaves m = 6
//    server associations (§V-B3); the reachability register drains after
//    8 unanswered polls; waiting three rounds before a run-time step models
//    ntpd's multi-minute convergence in Table II. Run as client and server
//    in one process (the default), it exposes its system peer as the refid
//    of its responses — the §IV-B2b address leak.
//  * chrony: the default pool has 4 sources and a dead source is replaced
//    by a fresh lookup; stepping at run time is more conservative — the
//    paper measured 57 minutes to shift chrony vs 17 for ntpd (P1).
//  * openntpd: boot-time vulnerable only. "openntpd and ntpclient do not
//    support DNS queries during run-time at all, so hindering
//    communication with the used servers will just disable time
//    synchronisation until the client is restarted" (§V-A2). Its optional
//    HTTPS Date-header constraint (§V-A1) is the `constraint_window`.
#pragma once

#include <memory>

#include "ntp/client_base.h"
#include "ntp/server.h"

namespace dnstime::ntp {

enum class Daemon { kNtpd, kChrony, kOpenntpd };

struct DaemonTraits;  ///< one row of the table above

class PoolClient : public NtpClientBase {
 public:
  /// `constraint_window` is openntpd's TLS constraint: if >= 0, reject a
  /// combined offset that would leave the clock more than this many
  /// seconds from the HTTPS-derived reference (true time here). -1, the
  /// default, disables it, as in the daemon's default configuration.
  PoolClient(net::NetStack& stack, SystemClock& clock,
             ClientBaseConfig base_config, Daemon daemon,
             double constraint_window = -1.0);

  void start() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Ipv4Addr> current_servers() const override;

  /// Simulated process restart (cron, watchdog, reboot): drop every
  /// association and re-run the boot-time lookup — for openntpd the only
  /// way back to DNS. The poll cadence keeps running.
  void restart();

  /// Attach the co-located NTP server so selection publishes the system
  /// peer as its refid. Only ntpd tracks a system peer.
  void attach_server(NtpServer* server) { attached_server_ = server; }

  [[nodiscard]] Ipv4Addr system_peer() const { return system_peer_; }
  [[nodiscard]] u64 dns_refills() const { return refills_; }
  [[nodiscard]] std::size_t association_count() const {
    return assocs_.size();
  }

 private:
  void refill_from_dns();
  void poll_round();
  void run_selection();
  void select_system_peer(double combined);
  void maintain_associations();

  const DaemonTraits& traits_;
  double constraint_window_;
  /// Shared with in-flight poll callbacks, so restart() may drop
  /// associations while a round is outstanding.
  std::vector<std::shared_ptr<Association>> assocs_;
  NtpServer* attached_server_ = nullptr;
  Ipv4Addr system_peer_;
  bool booting_ = true;
  bool refill_in_flight_ = false;
  int consecutive_large_ = 0;
  u64 refills_ = 0;
};

}  // namespace dnstime::ntp
