#include "campaign/scenario_spec.h"

#include <stdexcept>

namespace dnstime::campaign {

const char* to_string(ClientKind k) {
  switch (k) {
    case ClientKind::kNtpdKnownList: return "ntpd-p1";
    case ClientKind::kNtpdRefid: return "ntpd-p2";
    case ClientKind::kChrony: return "chrony";
    case ClientKind::kOpenntpd: return "openntpd";
    case ClientKind::kNtpdate: return "ntpdate";
    case ClientKind::kAndroid: return "android";
    case ClientKind::kNtpclient: return "ntpclient";
    case ClientKind::kTimesyncd: return "timesyncd";
  }
  return "?";
}

const char* to_string(AttackKind k) {
  switch (k) {
    case AttackKind::kRunTime: return "run-time";
    case AttackKind::kBootTime: return "boot-time";
    case AttackKind::kChronos: return "chronos";
    case AttackKind::kCustom: return "custom";
  }
  return "?";
}

ScenarioRegistry& ScenarioRegistry::add(ScenarioSpec spec) {
  if (find(spec.name) != nullptr) {
    throw std::invalid_argument("duplicate scenario name: " + spec.name);
  }
  specs_.push_back(std::move(spec));
  return *this;
}

const ScenarioSpec* ScenarioRegistry::find(std::string_view name) const {
  for (const auto& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<ScenarioSpec> ScenarioRegistry::select(
    std::string_view prefix) const {
  std::vector<ScenarioSpec> out;
  for (const auto& s : specs_) {
    if (std::string_view(s.name).substr(0, prefix.size()) == prefix) {
      out.push_back(s);
    }
  }
  return out;
}

ScenarioSpec table2_scenario(ClientKind client) {
  ScenarioSpec spec;
  spec.name = std::string("table2/") + to_string(client);
  spec.client = client;
  spec.attack = AttackKind::kRunTime;
  if (client == ClientKind::kOpenntpd) {
    // openntpd never re-queries DNS on its own: a 60-minute stall
    // watchdog restarts it, so give the clock room to land.
    spec.stop.restart_after = sim::Duration::minutes(60);
    spec.stop.settle = sim::Duration::minutes(30);
  }
  return spec;
}

ScenarioSpec boot_time_scenario() {
  ScenarioSpec spec;
  spec.name = "boot-time/ntpd";
  spec.attack = AttackKind::kBootTime;
  spec.stop.deadline = sim::Duration::minutes(30);
  spec.stop.settle = sim::Duration::minutes(10);
  return spec;
}

ScenarioSpec chronos_scenario(int honest_rounds) {
  ScenarioSpec spec;
  spec.name = "chronos/pool-freeze";
  spec.attack = AttackKind::kChronos;
  spec.chronos_honest_rounds = honest_rounds;
  spec.world.pool_size = 96;
  spec.world.attacker_ntp_count = 89;
  spec.world.rate_limit_fraction = 0.0;
  spec.stop.deadline = sim::Duration::hours(27);
  spec.stop.settle = sim::Duration::hours(1);
  return spec;
}

ScenarioSpec forensics_frag_filter_scenario() {
  ScenarioSpec spec = table2_scenario(ClientKind::kNtpdKnownList);
  spec.name = "forensics/frag-filter";
  spec.world.resolver_stack.accept_fragments = false;
  spec.stop.deadline = sim::Duration::minutes(45);
  spec.stop.settle = sim::Duration::minutes(5);
  return spec;
}

std::vector<ScenarioSpec> mtu_sweep(const std::vector<u16>& mtus) {
  std::vector<ScenarioSpec> out;
  for (u16 mtu : mtus) {
    ScenarioSpec spec = boot_time_scenario();
    spec.name = "sweep/mtu-" + std::to_string(mtu);
    spec.world.attack_mtu = mtu;
    out.push_back(std::move(spec));
  }
  return out;
}

std::vector<ScenarioSpec> pool_size_sweep(
    const std::vector<std::size_t>& sizes) {
  std::vector<ScenarioSpec> out;
  for (std::size_t n : sizes) {
    ScenarioSpec spec = boot_time_scenario();
    spec.name = "sweep/pool-" + std::to_string(n);
    spec.world.pool_size = n;
    out.push_back(std::move(spec));
  }
  return out;
}

std::vector<ScenarioSpec> rate_limit_sweep(
    const std::vector<double>& fractions) {
  std::vector<ScenarioSpec> out;
  for (double f : fractions) {
    ScenarioSpec spec = table2_scenario(ClientKind::kNtpdKnownList);
    int pct = static_cast<int>(f * 100.0 + 0.5);
    spec.name = "sweep/ratelimit-" + std::to_string(pct);
    spec.world.rate_limit_fraction = f;
    out.push_back(std::move(spec));
  }
  return out;
}

std::vector<ScenarioSpec> ttl_sweep(const std::vector<u32>& ttls) {
  std::vector<ScenarioSpec> out;
  for (u32 ttl : ttls) {
    ScenarioSpec spec = boot_time_scenario();
    spec.name = "sweep/ttl-" + std::to_string(ttl);
    spec.world.pool_a_ttl = ttl;
    out.push_back(std::move(spec));
  }
  return out;
}

namespace {

/// Table I: every client at boot time and, except one-shot ntpdate, at
/// run time, in the table's row order.
std::vector<ScenarioSpec> table1_matrix() {
  std::vector<ScenarioSpec> out;
  for (ClientKind client :
       {ClientKind::kNtpdKnownList, ClientKind::kOpenntpd, ClientKind::kChrony,
        ClientKind::kNtpdate, ClientKind::kAndroid, ClientKind::kNtpclient,
        ClientKind::kTimesyncd}) {
    const std::string stem =
        std::string("table1/") +
        (client == ClientKind::kNtpdKnownList ? "ntpd" : to_string(client));
    // Boot time: the victim gets 30 minutes in the poisoned world.
    ScenarioSpec boot = boot_time_scenario();
    boot.name = stem + "-boot";
    boot.client = client;
    boot.stop.settle = sim::Duration::minutes(30);
    out.push_back(std::move(boot));
    if (client == ClientKind::kNtpdate) continue;  // one-shot: no run time
    // Run time: 3 hours of flooding, and no restart to rescue openntpd.
    ScenarioSpec run = table2_scenario(client);
    run.name = stem + "-run";
    run.stop = StopCondition{};
    run.stop.deadline = sim::Duration::hours(3);
    out.push_back(std::move(run));
  }
  return out;
}

}  // namespace

ScenarioRegistry ScenarioRegistry::builtin() {
  ScenarioRegistry reg;
  reg.add(table2_scenario(ClientKind::kNtpdRefid));
  reg.add(table2_scenario(ClientKind::kNtpdKnownList));
  reg.add(table2_scenario(ClientKind::kOpenntpd));
  reg.add(table2_scenario(ClientKind::kChrony));
  reg.add(boot_time_scenario());
  reg.add(chronos_scenario());
  reg.add(forensics_frag_filter_scenario());
  reg.add(population_shared_resolver_scenario());
  reg.add(population_ratelimit_herd_scenario());
  for (auto& s : mtu_sweep()) reg.add(std::move(s));
  for (auto& s : pool_size_sweep()) reg.add(std::move(s));
  for (auto& s : rate_limit_sweep()) reg.add(std::move(s));
  for (auto& s : ttl_sweep()) reg.add(std::move(s));
  for (auto& s : table1_matrix()) reg.add(std::move(s));
  // §VI-C boundary runs, outside "chronos/" so that prefix stays one spec.
  for (int n : {5, 11, 12}) {
    ScenarioSpec spec = chronos_scenario(n);
    spec.name = "sec6/n-" + std::to_string(n);
    reg.add(std::move(spec));
  }
  return reg;
}

}  // namespace dnstime::campaign
