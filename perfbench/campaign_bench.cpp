// End-to-end campaign benchmark: runs one named workload of the paper's
// campaigns through the public campaign API, checks the outputs, and prints
// every metric by name and unit. perfbench/README.md defines the workloads
// and every metric; perfbench/run.py builds this binary and starts it.
//
// Usage: campaign_bench --workload NAME [--seed N] [--seconds S]
//                       [--trace 0|1] [--git-sha SHA] [--source DIGEST]
// Run from the repository root: it reads the Table II baseline from
// bench/baselines/ and writes under .bench_out/.
//
// One run: set up (registry, specs, one warm-up campaign), then repeat the
// workload's campaign at its fixed trial count for S seconds. --trace 0
// reports the end-to-end metrics. --trace 1 follows each campaign with the
// other storage mode, a 1-thread run (multi-threaded workloads) and a
// replay of every trial, all under host-time spans, then runs as many
// untraced campaigns, and reports the per-layer metrics. Correctness gates
// run outside the timed phase. The last stdout line is the result JSON;
// spans and the full result (with the host stamp) are written under
// .bench_out/.
#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/runner.h"
#include "campaign/store/journal_reader.h"
#include "campaign/trial.h"
#include "common/buffer.h"
#include "obs/counters.h"
#include "scenario/population.h"
#include "scenario/world.h"
#include "spans.h"

namespace {

using namespace dnstime;
using campaign::CampaignConfig;
using campaign::CampaignReport;
using campaign::CampaignRunner;
using campaign::ScenarioRegistry;
using campaign::ScenarioSpec;
using campaign::TrialResult;
using perfbench::SpanLog;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// Seed used when --seed is absent, and by every warm-up campaign (so
/// set-up time does not depend on the measured inputs).
constexpr u64 kDefaultSeed = 0x5eed;
/// Table II oracle: this campaign's JSON report must equal the committed
/// baseline byte for byte.
constexpr const char* kTable2Baseline = "bench/baselines/table2_trials4.json";
constexpr u64 kTable2Seed = 41;
constexpr u32 kTable2Trials = 4;
constexpr u32 kPopulationBuildClients = 100'000;
constexpr int kPopulationBuilds = 3;

struct Workload {
  const char* name;
  std::vector<std::string> prefixes;  ///< registry name prefixes, in order
  u32 threads;
  u32 trials;      ///< per scenario, per campaign
  bool journaled;  ///< journal to a fresh directory, then read it back
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"table2", {"table2/"}, 1, 1, false},
      {"chronos", {"chronos/"}, 1, 1, false},
      {"population", {"population/"}, 1, 2, false},
      {"sweep-boot", {"sweep/mtu-", "sweep/pool-", "sweep/ttl-"}, 2, 8, true},
  };
  return all;
}

// --- counts ------------------------------------------------------------------

using Counts = std::map<std::string, u64>;

/// Counters that are a pure function of (scenarios, seed, trials): equal
/// campaigns must give equal deltas.
constexpr const char* kDeterministicTags[] = {
    "sim.events_fired", "sim.events_scheduled", "sim.events_cancelled",
    "population.polls", "population.exchanges", "population.dns_queries",
    "net.packets_tx", "net.udp_rx", "net.fragments_rx",
    "net.reasm_completed", "net.reasm_expired", "net.reasm_evicted_overflow",
    "dns.client_queries", "dns.upstream_queries", "dns.cache_hits",
    "dns.cache_misses", "dns.poisoned_served",
    "obs.flight_events", "obs.flight_overwritten",
    "campaign.journal_records_written", "campaign.journal_bytes_written",
    "buffer.pool_hits", "buffer.fresh_allocs",
};

/// Counts that also depend on process history: the hit/fresh split of the
/// per-thread buffer pools (a cold pool allocates, a warm one reuses), and
/// journal bytes (every shard, one per worker, has its own header). They
/// repeat only between campaigns on the same warm thread.
bool history_dependent(const std::string& tag) {
  return tag.rfind("buffer.", 0) == 0 ||
         tag == "campaign.journal_bytes_written";
}

Counts read_counts() {
  Counts c;
  for (const auto& [name, v] : obs::Registry::instance().snapshot().counters) {
    c[name] = v;
  }
  const BufferPool::Stats pool = BufferPool::aggregate_stats();
  c["buffer.pool_hits"] = pool.pool_hits;
  c["buffer.fresh_allocs"] = pool.fresh_allocs;
  return c;
}

u64 count(const Counts& c, const std::string& tag) {
  const auto it = c.find(tag);
  return it == c.end() ? 0 : it->second;
}

Counts minus(const Counts& after, const Counts& before) {
  Counts d;
  for (const auto& [tag, v] : after) d[tag] = v - count(before, tag);
  return d;
}

/// The deterministic tags on which `a` and `b` differ.
std::string count_mismatch(const Counts& a, const Counts& b,
                           bool skip_history) {
  std::string out;
  for (const char* tag : kDeterministicTags) {
    if (skip_history && history_dependent(tag)) continue;
    if (count(a, tag) != count(b, tag)) {
      out += std::string(out.empty() ? "" : ", ") + tag + " " +
             std::to_string(count(a, tag)) + " vs " +
             std::to_string(count(b, tag));
    }
  }
  return out;
}

// --- statistics --------------------------------------------------------------

/// Linear-interpolation quantile (q in [0,1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Host-time estimator for repeated identical work: the fastest repeat
/// (min-of-N). Contention from other tenants of a shared host only ever
/// adds time, and on the reference host it arrives in bursts lasting
/// seconds to tens of seconds that slow the same work by up to 1.8x; a
/// median or a quartile moves with the share of a run spent in a burst,
/// the minimum only when the whole run is.
double fastest(const std::vector<double>& times) {
  return times.empty() ? 0.0 : *std::min_element(times.begin(), times.end());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- campaigns ---------------------------------------------------------------

struct CampaignRun {
  CampaignReport report;  ///< per-trial rows included (read back if journaled)
  double run_s = 0.0;     ///< CampaignRunner::run
  double read_s = 0.0;    ///< store::read_report (journaled only)
  /// Host ms per trial, by flattened trial index: the gap between the
  /// trial's completion and the previous completion on the same worker
  /// thread (or the start of run()).
  std::vector<double> trial_ms;
  Counts counts;  ///< registry + buffer-pool deltas around the campaign
  u64 trials = 0;
  u64 errors = 0;  ///< trials with a non-empty TrialResult::error

  [[nodiscard]] double wall_s() const { return run_s + read_s; }
};

struct Bench {
  const Workload& workload;
  u64 seed;
  fs::path out_dir;
  std::vector<ScenarioSpec> specs{};
  SpanLog* spans = nullptr;  ///< non-null while the traced phase runs
  int journal_seq = 0;
  /// Counts of the latest measured campaign per (threads, journaled) and how
  /// many campaigns of that shape ran; every measured campaign must repeat
  /// its predecessor's counts.
  std::map<std::pair<u32, bool>, std::pair<Counts, int>> last_counts{};
  std::vector<std::string> failures{};

  void fail(std::string why) { failures.push_back(std::move(why)); }

  int open(const char* name, int parent = -1, i64 trial = -1) {
    return spans != nullptr ? spans->open(name, parent, trial) : -1;
  }
  void close(int span) {
    if (span >= 0) spans->close(span);
  }
};

std::vector<ScenarioSpec> select_specs(const ScenarioRegistry& reg,
                                       const Workload& w) {
  std::vector<ScenarioSpec> out;
  for (const std::string& prefix : w.prefixes) {
    for (ScenarioSpec& s : reg.select(prefix)) out.push_back(std::move(s));
  }
  return out;
}

CampaignRun run_campaign(Bench& b, u64 seed, u32 trials, u32 threads,
                         bool journaled) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.trials = trials;
  cfg.threads = threads;
  if (journaled) {
    cfg.journal_dir =
        (b.out_dir / ("journal-" + std::to_string(b.journal_seq++))).string();
    fs::remove_all(cfg.journal_dir);
  }
  CampaignRunner runner(cfg);

  struct Done {
    std::size_t slot;
    Clock::time_point at;
    i64 trial;
  };
  std::vector<std::thread::id> slots;
  std::vector<Done> done;
  done.reserve(b.specs.size() * trials);
  // Progress callbacks are serialised by the runner, so these vectors need
  // no lock and `done` is in completion order.
  runner.set_progress([&](const ScenarioSpec& spec, const TrialResult& r) {
    const auto at = Clock::now();
    const auto id = std::this_thread::get_id();
    const auto it = std::find(slots.begin(), slots.end(), id);
    const auto slot = static_cast<std::size_t>(it - slots.begin());
    if (it == slots.end()) slots.push_back(id);
    const auto scenario = static_cast<i64>(&spec - b.specs.data());
    done.push_back({slot, at, scenario * trials + r.trial});
  });

  CampaignRun run;
  const Counts before = read_counts();
  const int span = b.open("campaign.run");
  const auto t0 = Clock::now();
  run.report = runner.run(b.specs);
  const auto t1 = Clock::now();
  b.close(span);
  run.run_s = seconds_between(t0, t1);
  if (journaled) {
    const int read_span = b.open("store.read_report");
    run.report = campaign::store::read_report(cfg.journal_dir);
    b.close(read_span);
    run.read_s = seconds_between(t1, Clock::now());
  }
  run.counts = minus(read_counts(), before);
  if (journaled) fs::remove_all(cfg.journal_dir);

  std::vector<Clock::time_point> last(slots.size(), t0);
  run.trial_ms.resize(done.size());
  for (const Done& d : done) {
    run.trial_ms[static_cast<std::size_t>(d.trial)] =
        seconds_between(last[d.slot], d.at) * 1e3;
    if (b.spans != nullptr) {
      b.spans->add({"campaign.trial", b.spans->at_ns(last[d.slot]),
                    b.spans->at_ns(d.at), span, d.trial});
    }
    last[d.slot] = d.at;
  }
  for (const auto& agg : run.report.scenarios) {
    run.trials += agg.trials;
    run.errors += agg.errors;
  }

  return run;
}

/// Rotates the process over the CPUs it may run on: campaign k runs on
/// `threads` consecutive allowed CPUs starting at the k-th. On a shared
/// host, cores differ in how much other tenants slow them (by 1.5x between
/// cores of the reference host at one moment), and a run left on one core
/// for its whole length inherits that core's luck; rotating lets the
/// fastest-repeat estimator see every core in every run. The destructor
/// restores the original mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread (and the workers it will start) for the next
  /// campaign; a no-op when `threads` would need every allowed CPU.
  void next(u32 threads) {
    if (cpus_.size() <= threads) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (u32 j = 0; j < threads; ++j) {
      CPU_SET(cpus_[(next_ + j) % cpus_.size()], &set);
    }
    next_ = (next_ + 1) % cpus_.size();
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Runs one campaign of the workload's inputs and checks that its counts
/// repeat those of the previous campaign of the same shape.
CampaignRun measured_campaign(Bench& b, u32 threads, bool journaled) {
  CampaignRun run =
      run_campaign(b, b.seed, b.workload.trials, threads, journaled);
  auto& [last, seen] = b.last_counts[{threads, journaled}];
  // The first campaign of a shape may still fill the buffer pool, and
  // worker threads are new in every multi-threaded campaign, so their
  // pools start cold: only a 1-thread runner past its first campaign
  // repeats the history-dependent counts too.
  if (seen > 0) {
    const std::string diff =
        count_mismatch(last, run.counts, threads > 1 || seen == 1);
    if (!diff.empty()) b.fail("counts did not repeat: " + diff);
  }
  last = run.counts;
  ++seen;
  return run;
}

/// Repeats the workload's campaign, each followed by `after` (if set),
/// until `seconds` have passed or `max_runs` campaigns ran (at least one),
/// rotating over the CPUs.
std::vector<CampaignRun> repeat_for(
    Bench& b, double seconds, u32 threads, bool journaled,
    const std::function<void(const CampaignRun&)>& after = {},
    std::size_t max_runs = SIZE_MAX) {
  std::vector<CampaignRun> runs;
  CpuRotation cpus;
  const auto start = Clock::now();
  do {
    cpus.next(threads);
    runs.push_back(measured_campaign(b, threads, journaled));
    if (after) after(runs.back());
  } while (seconds_between(start, Clock::now()) < seconds &&
           runs.size() < max_runs);
  return runs;
}

/// Registry and spec construction plus one warm-up campaign (one trial per
/// scenario at the default seed); returns its host seconds.
double setup(Bench& b) {
  const auto t0 = Clock::now();
  b.specs = select_specs(ScenarioRegistry::builtin(), b.workload);
  (void)run_campaign(b, kDefaultSeed, 1, b.workload.threads,
                     b.workload.journaled);
  return seconds_between(t0, Clock::now());
}

// --- correctness gates -------------------------------------------------------

void check_table2_baseline(Bench& b) {
  std::ifstream in(kTable2Baseline, std::ios::binary);
  if (!in) {
    b.fail(std::string("cannot read Table II baseline ") + kTable2Baseline);
    return;
  }
  std::stringstream want;
  want << in.rdbuf();
  CampaignConfig cfg;
  cfg.seed = kTable2Seed;
  cfg.trials = kTable2Trials;
  cfg.threads = 1;
  const std::string got =
      CampaignRunner(cfg).run(ScenarioRegistry::builtin().select("table2/"))
          .to_json() +
      "\n";
  if (got != want.str()) {
    b.fail(std::string("Table II report (seed 41, 4 trials) differs from ") +
           kTable2Baseline);
  }
}

void check_readback(Bench& b, const CampaignRun& journaled,
                    const CampaignRun& in_memory) {
  if (journaled.report.to_json() != in_memory.report.to_json()) {
    b.fail("store::read_report differs from the in-memory campaign");
  }
}

bool same_result(const TrialResult& x, const TrialResult& y) {
  return x.trial == y.trial && x.seed == y.seed && x.success == y.success &&
         x.duration_s == y.duration_s && x.clock_shift_s == y.clock_shift_s &&
         x.metric == y.metric && x.fragments_planted == y.fragments_planted &&
         x.replant_rounds == y.replant_rounds && x.error == y.error;
}

// --- traced-run layer probes -------------------------------------------------

/// Replays every trial of `reference` through run_trial under a trial.run
/// span (checking each result against the campaign's, and appending its
/// host ms to `replay_ms[trial]`), and builds each trial's World under a
/// scenario.world_build span.
void replay_trials(Bench& b, const CampaignRun& reference,
                   std::vector<std::vector<double>>& replay_ms) {
  const u32 trials = b.workload.trials;
  for (std::size_t s = 0; s < b.specs.size(); ++s) {
    const ScenarioSpec& spec = b.specs[s];
    for (u32 t = 0; t < trials; ++t) {
      const i64 flat = static_cast<i64>(s * trials + t);
      campaign::TrialContext ctx;
      ctx.campaign_seed = b.seed;
      ctx.trial = t;
      ctx.seed = CampaignRunner::trial_seed(b.seed, spec, t);
      TrialResult r;
      const int span = b.open("trial.run", -1, flat);
      const auto t0 = Clock::now();
      try {
        r = campaign::run_trial(spec, ctx);
      } catch (const std::exception& e) {
        r.trial = t;
        r.seed = ctx.seed;
        r.error = e.what();
      }
      replay_ms[static_cast<std::size_t>(flat)].push_back(
          seconds_between(t0, Clock::now()) * 1e3);
      b.close(span);
      if (!same_result(r, reference.report.scenarios[s].results[t])) {
        b.fail("replayed trial " + spec.name + "#" + std::to_string(t) +
               " differs from the campaign's result");
      }

      scenario::WorldConfig wc = spec.world;
      wc.seed = ctx.seed;
      const int world_span = b.open("scenario.world_build", -1, flat);
      { scenario::World world(wc); }
      b.close(world_span);
    }
  }
}

void build_populations(Bench& b) {
  for (int i = 0; i < kPopulationBuilds; ++i) {
    scenario::WorldConfig wc;
    wc.seed = b.seed + static_cast<u64>(i);
    const int world_span = b.open("scenario.world_build");
    scenario::World world(wc);
    b.close(world_span);
    scenario::PopulationConfig pc;
    pc.clients = kPopulationBuildClients;
    pc.seed = wc.seed;
    const int span = b.open("scenario.population_build");
    { scenario::ClientPopulation pop(world, pc); }
    b.close(span);
  }
}

// --- host stamp and output ---------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_double(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string join(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : ",") + json_double(x);
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Peak resident set of this process image, in MiB. VmHWM, not
/// getrusage's ru_maxrss: Linux carries ru_maxrss across exec, so it would
/// report the launching interpreter's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Options {
  std::string workload;
  u64 seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string git_sha = "unknown";
  std::string source = "unknown";
};

bool parse_u64(const char* s, u64& out) {
  const char* end = s + std::strlen(s);
  const auto res = std::from_chars(s, end, out);
  return res.ec == std::errc() && res.ptr == end && res.ptr != s;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    u64 n = 0;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      o.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, n) && n >= 1 &&
               n <= 600) {
      o.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && parse_u64(value, n) && n <= 1) {
      o.trace = static_cast<int>(n);
    } else if (flag == "--git-sha") {
      o.git_sha = value;
    } else if (flag == "--source") {
      o.source = value;
    } else {
      std::fprintf(stderr, "bad flag or value: %s %s\n", flag.c_str(), value);
      return false;
    }
  }
  return true;
}

std::string host_json(const Options& o) {
  return std::string("{") +
         "\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu\":" + json_string(cpu_model()) +
         ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"dnstime_obs\":" + std::to_string(DNSTIME_OBS) +
         ",\"git_sha\":" + json_string(o.git_sha) +
         ",\"source\":" + json_string(o.source) +
         ",\"workload\":" + json_string(o.workload) +
         ",\"seed\":" + std::to_string(o.seed) +
         ",\"seconds\":" + json_double(o.seconds) +
         ",\"trace\":" + std::to_string(o.trace) + "}";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i > 0 ? ", " : "") + json_string(m.name) +
           ": {\"value\": " + json_double(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

// --- the two kinds of run ----------------------------------------------------

struct Summary {
  /// Trials per campaign over the campaign's fastest wall time.
  double trials_per_s = 0.0;
  /// p50/p90 across the workload's trials of each trial's fastest
  /// host time over the campaigns.
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t samples = 0;  ///< trial-time samples behind p50/p90
  std::vector<double> wall_s;  ///< each campaign's wall time, in run order
  u64 trials = 0;
  u64 errors = 0;
};

/// Fastest host time of each trial (by flattened index) over
/// `times[trial][repeat]`.
std::vector<double> per_trial(const std::vector<std::vector<double>>& times) {
  std::vector<double> out;
  for (const auto& t : times) out.push_back(fastest(t));
  return out;
}

Summary summarize(const std::vector<CampaignRun>& runs) {
  Summary s;
  std::vector<std::vector<double>> trial_ms(runs.front().trial_ms.size());
  for (const CampaignRun& r : runs) {
    s.wall_s.push_back(r.wall_s());
    for (std::size_t i = 0; i < r.trial_ms.size(); ++i) {
      trial_ms[i].push_back(r.trial_ms[i]);
    }
    s.samples += r.trial_ms.size();
    s.trials += r.trials;
    s.errors += r.errors;
  }
  s.trials_per_s =
      static_cast<double>(runs.front().trials) / fastest(s.wall_s);
  const std::vector<double> typical = per_trial(trial_ms);
  s.p50_ms = quantile(typical, 0.5);
  s.p90_ms = quantile(typical, 0.9);
  return s;
}

std::vector<double> run_seconds(const std::vector<CampaignRun>& runs) {
  std::vector<double> out;
  for (const CampaignRun& r : runs) out.push_back(r.run_s);
  return out;
}

/// --trace 0: the end-to-end metrics.
std::vector<Metric> end_to_end(Bench& b, const Options& o, Summary& s) {
  const Workload& w = b.workload;
  // Set-up runs once before the first campaign and again after a campaign
  // whenever an eighth of the run has passed since the last set-up, so its
  // samples spread over the run like the campaigns' do.
  std::vector<double> setup_times = {setup(b)};
  auto last_setup = Clock::now();
  const std::vector<CampaignRun> runs = repeat_for(
      b, o.seconds, w.threads, w.journaled, [&](const CampaignRun&) {
        if (seconds_between(last_setup, Clock::now()) >= o.seconds / 8) {
          setup_times.push_back(setup(b));
          last_setup = Clock::now();
        }
      });
  const double setup_s = fastest(setup_times);
  s = summarize(runs);
  std::printf("workload %s: %zu campaigns x %llu trials, %u thread(s)%s\n",
              w.name, runs.size(),
              static_cast<unsigned long long>(runs.front().trials), w.threads,
              w.journaled ? ", journaled + read back" : "");
  std::printf("trial_p50_ms / trial_p90_ms across %llu trials x %zu "
              "campaigns = %zu trial-time samples\n",
              static_cast<unsigned long long>(runs.front().trials),
              runs.size(), s.samples);

  // Read before the gates, whose campaigns are not the workload's.
  const double rss_mb = peak_rss_mb();
  if (w.journaled) {
    check_readback(b, runs.back(),
                   run_campaign(b, b.seed, w.trials, w.threads, false));
  }
  check_table2_baseline(b);
  return {
      {"trials_per_s", s.trials_per_s, "1/s"},
      {"trial_p50_ms", s.p50_ms, "ms"},
      {"trial_p90_ms", s.p90_ms, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

/// --trace 1: the per-layer metrics, from counts and the traced run.
std::vector<Metric> per_layer(Bench& b, const Options& o, Summary& s,
                              SpanLog& log) {
  const Workload& w = b.workload;
  (void)setup(b);

  // Each traced campaign is followed, on the same CPUs, by the same
  // campaign in the other storage mode (journaled vs in memory), at 1
  // thread if the workload uses more, and by a replay of its trials, so
  // every side of each comparison sees the same host contention.
  b.spans = &log;
  const std::int64_t wall0 = log.now_ns();
  std::vector<std::vector<double>> replay_ms(b.specs.size() * w.trials);
  std::vector<CampaignRun> other;
  std::vector<CampaignRun> one_thread;
  const std::vector<CampaignRun> traced = repeat_for(
      b, o.seconds, w.threads, w.journaled, [&](const CampaignRun& r) {
        other.push_back(measured_campaign(b, w.threads, !w.journaled));
        if (w.threads > 1) one_thread.push_back(measured_campaign(b, 1, false));
        replay_trials(b, r, replay_ms);
      });
  build_populations(b);
  const std::int64_t wall1 = log.now_ns();
  b.spans = nullptr;
  // As many untraced campaigns, for the tracing overhead: the fastest of N
  // repeats depends on N, so both sides get the same N.
  const std::vector<CampaignRun> untraced = repeat_for(
      b, o.seconds, w.threads, w.journaled, {}, traced.size());

  const auto& journaled = w.journaled ? traced : other;
  const auto& in_memory = w.journaled ? other : traced;
  check_readback(b, journaled.back(), in_memory.back());
  if (w.threads > 1) {
    const std::string diff = count_mismatch(in_memory.front().counts,
                                            one_thread.front().counts, true);
    if (!diff.empty()) {
      b.fail("counts differ between " + std::to_string(w.threads) +
             " threads and 1: " + diff);
    }
  }
  check_table2_baseline(b);

  s = summarize(traced);
  const Summary plain = summarize(untraced);
  s.trials += plain.trials;
  s.errors += plain.errors;

  const Counts& c = in_memory.front().counts;
  const Counts& jc = journaled.front().counts;
  const auto n = [&](const char* tag) {
    return static_cast<double>(count(c, tag));
  };
  // Host time of one replay of every trial of the campaign.
  double trial_run_ns = 0.0;
  for (double ms : per_trial(replay_ms)) trial_run_ns += ms * 1e6;
  const double replayed = static_cast<double>(replay_ms.size());
  const double memory_run_s = fastest(run_seconds(in_memory));
  const double one_thread_run_s =
      w.threads > 1 ? fastest(run_seconds(one_thread)) : memory_run_s;
  std::vector<double> read_s;
  for (const CampaignRun& r : journaled) read_s.push_back(r.read_s);
  const double coverage = ratio(static_cast<double>(log.top_level_ns()),
                                static_cast<double>(wall1 - wall0));
  if (coverage < 0.9 || coverage > 1.1) {
    b.fail("top-level spans cover " + json_double(coverage) +
           " of the traced wall time (want 0.9..1.1)");
  }
  std::printf("workload %s: traced %zu + untraced %zu campaigns, %zu spans\n",
              w.name, traced.size(), untraced.size(), log.spans().size());

  return {
      {"sim.events_fired", n("sim.events_fired"), "count"},
      {"sim.events_scheduled", n("sim.events_scheduled"), "count"},
      {"sim.events_cancelled", n("sim.events_cancelled"), "count"},
      {"sim.events_per_packet",
       ratio(n("sim.events_fired"), n("net.packets_tx")), "ratio"},
      {"population.polls", n("population.polls"), "count"},
      {"population.exchanges", n("population.exchanges"), "count"},
      {"population.polls_per_exchange",
       ratio(n("population.polls"), n("population.exchanges")), "ratio"},
      {"population.dns_queries", n("population.dns_queries"), "count"},
      {"net.packets_tx", n("net.packets_tx"), "count"},
      {"net.udp_rx", n("net.udp_rx"), "count"},
      {"net.fragments_rx", n("net.fragments_rx"), "count"},
      {"buffer.pool_hits", n("buffer.pool_hits"), "count"},
      {"buffer.fresh_allocs", n("buffer.fresh_allocs"), "count"},
      {"net.reasm_useful_ratio",
       ratio(n("net.reasm_completed"),
             n("net.reasm_completed") + n("net.reasm_expired") +
                 n("net.reasm_evicted_overflow")),
       "ratio"},
      {"dns.client_queries", n("dns.client_queries"), "count"},
      {"dns.upstream_queries", n("dns.upstream_queries"), "count"},
      {"dns.cache_hit_ratio",
       ratio(n("dns.cache_hits"), n("dns.cache_hits") + n("dns.cache_misses")),
       "ratio"},
      {"dns.poisoned_served", n("dns.poisoned_served"), "count"},
      {"obs.flight_events", n("obs.flight_events"), "count"},
      {"obs.flight_overwritten_ratio",
       ratio(n("obs.flight_overwritten"), n("obs.flight_events")), "ratio"},
      {"store.journal_records_written",
       static_cast<double>(count(jc, "campaign.journal_records_written")),
       "count"},
      {"store.journal_bytes_written",
       static_cast<double>(count(jc, "campaign.journal_bytes_written")),
       "count"},
      {"campaign.trial_error_ratio",
       ratio(static_cast<double>(s.errors), static_cast<double>(s.trials)),
       "ratio"},
      {"campaign.run_ms", fastest(run_seconds(traced)) * 1e3, "ms"},
      {"campaign.overhead_ms_per_trial",
       (one_thread_run_s - trial_run_ns * 1e-9) / replayed * 1e3, "ms"},
      {"campaign.worker_busy_share",
       ratio(trial_run_ns * 1e-9, memory_run_s * w.threads), "ratio"},
      {"trial.run_ms", trial_run_ns / replayed * 1e-6, "ms"},
      {"trial.host_ns_per_event", ratio(trial_run_ns, n("sim.events_fired")),
       "ns"},
      {"trial.host_ns_per_packet", ratio(trial_run_ns, n("net.packets_tx")),
       "ns"},
      {"scenario.world_build_us",
       fastest(log.durations_ns("scenario.world_build")) * 1e-3, "us"},
      {"scenario.population_build_ms",
       fastest(log.durations_ns("scenario.population_build")) * 1e-6,
       "ms"},
      {"store.read_report_ms", fastest(read_s) * 1e3, "ms"},
      {"store.journal_overhead_share",
       ratio(fastest(run_seconds(journaled)), memory_run_s) - 1.0,
       "ratio"},
      {"trace.overhead_share", 1.0 - ratio(s.trials_per_s, plain.trials_per_s),
       "ratio"},
      {"trace.span_coverage", coverage, "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) return 2;
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (o.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'; expected one of:",
                 o.workload.c_str());
    for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }

  try {
    Bench bench{
        .workload = *workload, .seed = o.seed, .out_dir = ".bench_out"};
    fs::create_directories(bench.out_dir);
    const std::string host = host_json(o);
    std::printf("host %s\n", host.c_str());

    Summary s;
    SpanLog log;
    const std::vector<Metric> metrics = o.trace == 0
                                            ? end_to_end(bench, o, s)
                                            : per_layer(bench, o, s, log);
    if (s.errors > 0) {
      bench.fail(std::to_string(s.errors) + " trial(s) reported an error");
    }
    for (const std::string& f : bench.failures) {
      std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    }
    const bool correct = bench.failures.empty();
    for (const Metric& m : metrics) {
      std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }

    const std::string stem = std::string(workload->name) + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             std::to_string(o.trace);
    write_file(bench.out_dir / ("result-" + stem + ".json"),
               "{\"host\": " + host + ", \"correct\": " +
                   (correct ? "true" : "false") +
                   ", \"trial_samples\": " + std::to_string(s.samples) +
                   ", \"campaign_wall_s\": [" + join(s.wall_s) + "]" +
                   ", \"metrics\": " + metrics_json(metrics) + "}\n");
    if (o.trace == 1) {
      write_file(bench.out_dir / ("spans-" + stem + ".json"),
                 "{\"host\": " + host + ",\n\"spans\": " + log.to_json() +
                     "}\n");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(s.trials),
                static_cast<unsigned long long>(s.errors),
                metrics_json(metrics).c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
