#include "campaign/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "campaign/progress_merge.h"
#include "campaign/store/journal.h"
#include "campaign/store/journal_reader.h"
#include "campaign/store/shard_writer.h"
#include "campaign/trial.h"
#include "common/rng.h"
#include "obs/counters.h"
#include "obs/provenance.h"
#include "obs/trace.h"

namespace dnstime::campaign {
namespace {

enum class DumpOn { kAuto, kError, kTimeout, kAttackFailed, kAlways };

DumpOn parse_dump_on(const std::string& s) {
  if (s == "auto") return DumpOn::kAuto;
  if (s == "error") return DumpOn::kError;
  if (s == "timeout") return DumpOn::kTimeout;
  if (s == "attack-failed") return DumpOn::kAttackFailed;
  if (s == "always") return DumpOn::kAlways;
  throw std::invalid_argument(
      "unknown dump predicate '" + s +
      "' (expected auto, error, timeout, attack-failed or always)");
}

#if DNSTIME_OBS
/// A deadline timeout presents as an unsuccessful trial that consumed the
/// whole attack deadline without raising an error.
bool timed_out(const ScenarioSpec& spec, const TrialResult& r) {
  return !r.success && r.error.empty() &&
         r.duration_s >= spec.stop.deadline.to_seconds() - 1e-9;
}

bool should_dump(DumpOn mode, const ScenarioSpec& spec,
                 const TrialResult& r) {
  switch (mode) {
    case DumpOn::kAuto:
      return !r.error.empty() || timed_out(spec, r);
    case DumpOn::kError:
      return !r.error.empty();
    case DumpOn::kTimeout:
      return timed_out(spec, r);
    case DumpOn::kAttackFailed:
      return !r.success;
    case DumpOn::kAlways:
      return true;
  }
  return false;
}

/// `<scenario>-t<trial>.json`, scenario sanitised to filename-safe chars
/// ('/' in names like "table2/ntpd-known" becomes '_').
std::string dump_file_name(const std::string& scenario, u32 trial) {
  std::string name;
  name.reserve(scenario.size() + 16);
  for (char c : scenario) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    name.push_back(ok ? c : '_');
  }
  name += "-t";
  name += std::to_string(trial);
  name += ".json";
  return name;
}
#endif  // DNSTIME_OBS

}  // namespace

u64 CampaignRunner::trial_seed(u64 campaign_seed, const ScenarioSpec& scenario,
                               u32 trial) {
  // FNV-1a over the scenario name (the same hash that keys journal
  // records): the scenario's contribution to a trial seed depends on its
  // identity, not its position in the campaign.
  return mix_seed(campaign_seed, store::fnv1a(scenario.name), trial);
}

u32 CampaignRunner::resolve_threads(std::size_t pending) const {
  u32 threads = config_.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Oversubscription is harmless (reports never depend on the pool size),
  // but an absurd request would burn through OS threads — and one shard
  // writer each — before failing with EAGAIN; 1024 workers saturates any
  // realistic host.
  constexpr u32 kMaxThreads = 1024;
  threads = std::min(threads, kMaxThreads);
  return static_cast<u32>(
      std::min<std::size_t>(threads, std::max<std::size_t>(pending, 1)));
}

void CampaignRunner::execute(const std::vector<ScenarioSpec>& scenarios,
                             const std::vector<u8>* skip, u32 threads,
                             const TrialSink& sink) const {
  const u32 trials = config_.trials;
  const std::size_t total = scenarios.size() * trials;

  const bool tracing = !config_.trace_path.empty();
  std::string trace_json;  // written only by the traced trial's worker

#if DNSTIME_OBS
  const bool dumping = !config_.dump_dir.empty();
  const DumpOn dump_mode =
      dumping ? parse_dump_on(config_.dump_on) : DumpOn::kAuto;
  if (dumping) std::filesystem::create_directories(config_.dump_dir);
#endif

  // Live progress stream (JSON Lines). Opened before any trial runs so a
  // bad path fails the campaign up front; writes after that are
  // best-effort (a full disk must not kill hours of trials over a watch
  // stream). Everything below that touches wall time feeds only this
  // stream, which CampaignConfig documents as outside the byte-identity
  // contract.
  std::FILE* progress_file = nullptr;
  if (!config_.progress_path.empty()) {
    progress_file = std::fopen(config_.progress_path.c_str(), "wb");
    if (progress_file == nullptr) {
      throw std::runtime_error("cannot open progress file '" +
                               config_.progress_path + "' for writing");
    }
  }
  const auto close_file = [](std::FILE* f) {
    if (f != nullptr) std::fclose(f);
  };
  std::unique_ptr<std::FILE, decltype(close_file)> progress_guard(
      progress_file, close_file);
  struct ScenarioProgress {
    u32 done = 0;
    u32 successes = 0;
  };
  std::vector<ScenarioProgress> progress_state(
      progress_file != nullptr ? scenarios.size() : 0);
  std::size_t executed_total = 0;  // guarded by error_mutex
  std::size_t pending_total = total;
  if (skip != nullptr) {
    for (u8 s : *skip) {
      if (s != 0) pending_total--;
    }
  }
  // det-lint: allow(wallclock) elapsed/ETA for the progress stream only
  const auto campaign_start = std::chrono::steady_clock::now();

  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::mutex error_mutex;  // serialises progress_ and the error slots
  std::exception_ptr sink_error;      // first throw from sink, if any
  std::exception_ptr progress_error;  // first throw from progress_, if any
  std::exception_ptr dump_error;      // first failed narrative dump write
  auto worker = [&](u32 worker_id) {
#if DNSTIME_OBS
    // Wall-clock utilisation, exported once per worker on any exit path.
    // These are the only wall-time metrics in the campaign and exist only
    // in the (nondeterministic by nature) metrics section, never in the
    // report body.
    struct WallObs {
      // det-lint: allow(wallclock) worker-utilisation telemetry; feeds only
      std::chrono::steady_clock::time_point start =
          // det-lint: allow(wallclock) the --metrics section, never a report
          std::chrono::steady_clock::now();
      u64 executed = 0;
      double busy_s = 0.0;
      ~WallObs() {
        const double total_s =
            // det-lint: allow(wallclock) busy/idle telemetry, metrics-only
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        const double idle_s = total_s > busy_s ? total_s - busy_s : 0.0;
        DNSTIME_COUNT("campaign.workers");
        DNSTIME_COUNT_ADD("campaign.trials_executed", executed);
        DNSTIME_COUNT_ADD("campaign.worker_busy_us",
                          static_cast<u64>(busy_s * 1e6));
        DNSTIME_COUNT_ADD("campaign.worker_idle_us",
                          static_cast<u64>(idle_s * 1e6));
      }
    } wall;
#endif
    for (std::size_t i = next.fetch_add(1); i < total;
         i = next.fetch_add(1)) {
      if (abort.load(std::memory_order_relaxed)) return;
      if (skip != nullptr && (*skip)[i] != 0) continue;
      const std::size_t scenario_idx = i / trials;
      const u32 trial_idx = static_cast<u32>(i % trials);
      const ScenarioSpec& spec = scenarios[scenario_idx];
#if DNSTIME_OBS
      // det-lint: allow(wallclock) trial_wall_us histogram, metrics-only
      const auto trial_start = std::chrono::steady_clock::now();
#endif
      obs::FlightRecorder flight;
      obs::TraceRecorder recorder;
      const bool traced = tracing && i == config_.trace_index;
      TrialResult result = execute_trial(spec, config_.seed, trial_idx, flight,
                                         traced ? &recorder : nullptr);
      if (traced) trace_json = recorder.to_json();  // read after the join
#if DNSTIME_OBS
      if (dumping && should_dump(dump_mode, spec, result)) {
        const std::string json = narrative_json(flight, result);
        const std::string path =
            (std::filesystem::path(config_.dump_dir) /
             dump_file_name(spec.name, trial_idx))
                .string();
        std::FILE* f = std::fopen(path.c_str(), "wb");
        bool ok = f != nullptr;
        if (ok) {
          ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
          ok = (std::fclose(f) == 0) && ok;
        }
        if (!ok) {
          // Losing forensics is worth failing the run over, but not worth
          // aborting trials already in flight: capture the first write
          // failure and rethrow it after the pool joins.
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!dump_error) {
            dump_error = std::make_exception_ptr(std::runtime_error(
                "cannot write narrative dump '" + path + "'"));
          }
        }
      }
      const double trial_s =
          // det-lint: allow(wallclock) trial_wall_us histogram, metrics-only
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        trial_start)
              .count();
      wall.busy_s += trial_s;
      wall.executed++;
      DNSTIME_HIST("campaign.trial_wall_us", static_cast<u64>(trial_s * 1e6));
#endif
      // Store the result before notifying: a throwing or slow progress
      // callback must never lose (or observe a not-yet-stored) trial.
      const TrialResult* stored = nullptr;
      try {
        stored = &sink(worker_id, scenario_idx, trial_idx, std::move(result));
      } catch (...) {
        // A sink failure (e.g. journal disk full) means results are being
        // lost: stop the campaign and rethrow from run() after the join.
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!sink_error) sink_error = std::current_exception();
        abort.store(true);
        return;
      }
      if (progress_file != nullptr) {
        const double elapsed_s =
            // det-lint: allow(wallclock) ETA for the progress stream only
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          campaign_start)
                .count();
        std::lock_guard<std::mutex> lock(error_mutex);
        ScenarioProgress& sp = progress_state[scenario_idx];
        sp.done++;
        if (stored->success) sp.successes++;
        executed_total++;
        ProgressLine line;
        line.trial = {spec.name, trial_idx, stored->success,
                      sp.done,   trials,    sp.successes};
        line.campaign = {executed_total, pending_total, elapsed_s};
        std::fputs(line.encode().c_str(), progress_file);
        std::fflush(progress_file);
      }
      if (progress_) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!progress_error) {
          try {
            progress_(spec, *stored);
          } catch (...) {
            // An escaping exception on a worker thread would terminate the
            // process; capture the first one and rethrow it from run()
            // after the pool joins. Later trials still execute, but their
            // progress notifications are suppressed.
            progress_error = std::current_exception();
          }
        }
      }
    }
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (u32 t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& t : pool) t.join();
  }
  if (sink_error) std::rethrow_exception(sink_error);
  if (progress_error) std::rethrow_exception(progress_error);
  if (dump_error) std::rethrow_exception(dump_error);

  if (tracing) {
    if (trace_json.empty()) {
      // Resumed campaign whose traced trial was already journaled: nothing
      // re-executed, so there is nothing to trace.
      std::fprintf(stderr,
                   "dnstime: trace index %llu was skipped (already "
                   "journaled); no trace written to %s\n",
                   static_cast<unsigned long long>(config_.trace_index),
                   config_.trace_path.c_str());
      return;
    }
    std::FILE* f = std::fopen(config_.trace_path.c_str(), "wb");
    if (f == nullptr) {
      throw std::runtime_error("cannot open trace file '" +
                               config_.trace_path + "' for writing");
    }
    const std::size_t written =
        std::fwrite(trace_json.data(), 1, trace_json.size(), f);
    const bool ok = written == trace_json.size() && std::fclose(f) == 0;
    if (!ok) {
      throw std::runtime_error("short write to trace file '" +
                               config_.trace_path + "'");
    }
  }
}

CampaignReport CampaignRunner::run(
    const std::vector<ScenarioSpec>& scenarios) const {
  if (!config_.trace_path.empty()) {
    const std::size_t total = scenarios.size() * config_.trials;
    if (config_.trace_index >= total) {
      throw std::invalid_argument(
          "trace index " + std::to_string(config_.trace_index) +
          " out of range: campaign has " + std::to_string(total) +
          " trials (scenario_index * trials + trial_index)");
    }
  }
  if (!config_.dump_dir.empty()) {
    (void)parse_dump_on(config_.dump_on);  // reject bad predicates early
#if !DNSTIME_OBS
    throw std::invalid_argument(
        "narrative dumps require an observability build (DNSTIME_OBS=1)");
#endif
  }
  return config_.journal_dir.empty() ? run_in_memory(scenarios)
                                     : run_journaled(scenarios);
}

CampaignReport CampaignRunner::run_in_memory(
    const std::vector<ScenarioSpec>& scenarios) const {
  const u32 trials = config_.trials;

  // One pre-sized slot per (scenario, trial): workers write disjoint slots,
  // so the only synchronisation the results need is the final join.
  std::vector<std::vector<TrialResult>> results(scenarios.size());
  for (auto& slot : results) slot.resize(trials);

  execute(scenarios, /*skip=*/nullptr,
          resolve_threads(scenarios.size() * trials),
          [&results](u32, std::size_t scenario_idx, u32 trial_idx,
                     TrialResult&& r) -> const TrialResult& {
            results[scenario_idx][trial_idx] = std::move(r);
            return results[scenario_idx][trial_idx];
          });

  CampaignReport report;
  report.seed = config_.seed;
  report.trials_per_scenario = trials;
  report.scenarios.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    report.scenarios.push_back(
        ScenarioAggregate::from_results(scenarios[i], std::move(results[i])));
  }
  return report;
}

CampaignReport CampaignRunner::run_journaled(
    const std::vector<ScenarioSpec>& scenarios) const {
  const u32 trials = config_.trials;
  const std::string& dir = config_.journal_dir;

  const store::JournalMeta meta =
      store::JournalMeta::describe(config_.seed, trials, scenarios);
  const store::OpenedJournal journal =
      store::open_journal(dir, meta, config_.resume);
  // Every trial outside the pending ranges is already journaled.
  std::vector<u8> skip(scenarios.size() * trials, u8{1});
  std::size_t pending = 0;
  for (const store::TrialRange& r : journal.pending) {
    std::fill(skip.begin() + static_cast<std::ptrdiff_t>(r.begin),
              skip.begin() + static_cast<std::ptrdiff_t>(r.end), u8{0});
    pending += r.size();
  }
  const u32 threads = resolve_threads(pending);

  // One private shard per worker: the journal write path takes no lock.
  // Writers open their file lazily, so an idle worker leaves no shard.
  std::vector<store::ShardWriter> writers;
  writers.reserve(threads);
  for (u32 w = 0; w < threads; ++w) {
    writers.emplace_back(dir, meta, journal.next_shard_id + w);
  }
  if (pending > 0) {
    execute(scenarios, &skip, threads,
            [&writers](u32 worker_id, std::size_t scenario_idx, u32,
                       TrialResult&& r) -> const TrialResult& {
              writers[worker_id].append(static_cast<u32>(scenario_idx), r);
              return r;  // the worker's local outlives the progress call
            });
  }
  for (store::ShardWriter& w : writers) w.close();

  // Streaming fold over the shards merged back into trial-index order: no
  // results vector ever holds the campaign, only the per-success durations
  // (8 bytes each) that the exact p50/p90 quantiles need.
  return store::read_finished_report(dir, meta);
}

}  // namespace dnstime::campaign
