#include "chronos/pool_builder.h"

#include <algorithm>

#include "dns/pool_zone.h"

namespace dnstime::chronos {

PoolBuilder::PoolBuilder(net::NetStack& stack, Ipv4Addr resolver)
    : stack_(stack), stub_(stack, resolver) {}

void PoolBuilder::start() { query_once(); }

void PoolBuilder::query_once() {
  stub_.resolve(
      dns::pool_name(), dns::RrType::kA,
      [this](const std::vector<dns::ResourceRecord>& answers) {
        // §VI-B: the union is taken with no per-response checks — every A
        // record is admitted regardless of response size or TTL.
        for (const auto& rr : answers) {
          if (std::find(pool_.begin(), pool_.end(), rr.a) == pool_.end()) {
            pool_.push_back(rr.a);
          }
        }
        queries_done_++;
        if (queries_done_ < kTotalQueries) {
          // §VI-A: strictly periodic — the timing an attacker can predict.
          stack_.loop().schedule_after(kQueryInterval,
                                       [this] { query_once(); });
        }
      });
}

}  // namespace dnstime::chronos
