// Techniques for making the victim resolver issue the DNS query the
// poisoning needs (§IV-A / §VIII-B3): directly if it is an open resolver,
// or through another system sharing the same resolver (Email anti-spam
// lookups, web clients).
#pragma once

#include "dns/resolver.h"

namespace dnstime::attack {

/// A mail host sharing the victim's resolver: on every delivered message
/// it looks up the sender's domain (anti-spam validation). The "SMTP"
/// transaction is modelled as a single UDP message to port 25 whose
/// payload is the sender domain.
class SmtpServer {
 public:
  SmtpServer(net::NetStack& stack, Ipv4Addr resolver);
  ~SmtpServer();

  SmtpServer(const SmtpServer&) = delete;
  SmtpServer& operator=(const SmtpServer&) = delete;

  [[nodiscard]] u64 mails_received() const { return mails_; }

 private:
  net::NetStack& stack_;
  dns::StubResolver stub_;
  u64 mails_ = 0;
};

class QueryTrigger {
 public:
  /// (§IV-A option 2a) Open resolver: query it directly with RD=1.
  static void via_open_resolver(net::NetStack& attacker, Ipv4Addr resolver,
                                const dns::DnsName& name);

  /// (§IV-A option 2b / §VIII-B3) Send a mail whose sender domain is
  /// `name`; the mail host's anti-spam lookup issues the query through the
  /// shared resolver.
  static void via_smtp(net::NetStack& attacker, Ipv4Addr smtp_host,
                       const dns::DnsName& name);
};

}  // namespace dnstime::attack
