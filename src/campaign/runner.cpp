#include "campaign/runner.h"

#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <new>
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

/// Replaces `path` with `bytes`; false on any I/O failure.
bool write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return (std::fclose(f) == 0) && wrote;
}

/// Flags every flattened trial index outside `pending` (already journaled).
std::vector<u8> journaled_mask(const std::vector<store::TrialRange>& pending,
                               std::size_t total) {
  std::vector<u8> mask(total, u8{1});
  for (const store::TrialRange& r : pending) {
    std::fill(mask.begin() + static_cast<std::ptrdiff_t>(r.begin),
              mask.begin() + static_cast<std::ptrdiff_t>(r.end), u8{0});
  }
  return mask;
}

u64 count_pending(const std::vector<u8>& mask) {
  return static_cast<u64>(std::count(mask.begin(), mask.end(), u8{0}));
}

}  // namespace

/// `next` hands out flattened trial indices (one fetch_add per claim, so
/// balance is per trial); `done` and `total` are the progress stream's
/// campaign_done/campaign_total, and its elapsed_s counts from `start`.
/// The thread pool keeps the cursor on its stack, the worker processes in
/// one MAP_SHARED page. steady_clock is system-wide, so children of every
/// round measure elapsed time from the parent's start.
struct CampaignRunner::TrialCursor {
  std::atomic<u64> next{0};
  std::atomic<u64> done{0};
  u64 total = 0;  ///< fixed before any worker starts
  // det-lint: allow(wallclock) elapsed/ETA for the progress stream only
  std::chrono::steady_clock::time_point start =
      // det-lint: allow(wallclock) elapsed/ETA for the progress stream only
      std::chrono::steady_clock::now();
};
// Only a lock-free atomic is address-free, i.e. works between processes
// that map the same page.
static_assert(std::atomic<u64>::is_always_lock_free);

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
                             TrialCursor& cursor,
                             const TrialSink& sink) const {
  const u32 trials = config_.trials;
  const std::size_t total = scenarios.size() * trials;

  const bool tracing = !config_.trace_path.empty();
#if DNSTIME_OBS
  const bool dumping = !config_.dump_dir.empty();
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

  std::atomic<bool> abort{false};
  std::mutex error_mutex;  // serialises progress_ and the error slots
  std::exception_ptr sink_error;      // first throw from sink, if any
  std::exception_ptr progress_error;  // first throw from progress_, if any
  std::exception_ptr output_error;    // first failed dump or trace write
  // Dumps and the trace are written by whichever worker ran the trial.
  // Losing them is worth failing the run over, but not worth aborting
  // trials already in flight: keep the first failure for after the join.
  const auto write_output = [&](const std::string& path,
                                const std::string& bytes, const char* what) {
    if (write_file(path, bytes)) return;
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!output_error) {
      output_error = std::make_exception_ptr(std::runtime_error(
          std::string("cannot write ") + what + " '" + path + "'"));
    }
  };
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
    for (u64 i = cursor.next.fetch_add(1); i < total;
         i = cursor.next.fetch_add(1)) {
      if (abort.load(std::memory_order_relaxed)) return;
      if (skip != nullptr && (*skip)[i] != 0) continue;
      if (config_.kill_trial == i) std::raise(SIGKILL);
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
      if (traced) {
        write_output(config_.trace_path, recorder.to_json(), "trace file");
      }
#if DNSTIME_OBS
      if (dumping && should_dump(config_.dump_on, spec, result)) {
        write_output((std::filesystem::path(config_.dump_dir) /
                      dump_file_name(spec.name, trial_idx))
                         .string(),
                     narrative_json(flight, result), "narrative dump");
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
                                          cursor.start)
                .count();
        std::lock_guard<std::mutex> lock(error_mutex);
        ScenarioProgress& sp = progress_state[scenario_idx];
        sp.done++;
        if (stored->success) sp.successes++;
        ProgressLine line;
        line.trial = {spec.name, trial_idx, stored->success,
                      sp.done,   trials,    sp.successes};
        line.campaign = {cursor.done.fetch_add(1) + 1, cursor.total,
                         elapsed_s};
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
  if (output_error) std::rethrow_exception(output_error);
}

void CampaignRunner::execute_journaled(
    const std::vector<ScenarioSpec>& scenarios, const store::JournalMeta& meta,
    const std::vector<u8>& skip, u32 threads, TrialCursor& cursor,
    u32 first_shard) const {
  // One private shard per worker: the journal write path takes no lock.
  // Writers open their file lazily, so an idle worker leaves no shard.
  std::vector<store::ShardWriter> writers;
  writers.reserve(threads);
  for (u32 w = 0; w < threads; ++w) {
    writers.emplace_back(config_.journal_dir, meta, first_shard + w);
  }
  execute(scenarios, &skip, threads, cursor,
          [&writers](u32 worker_id, std::size_t scenario_idx, u32,
                     TrialResult&& r) -> const TrialResult& {
            writers[worker_id].append(static_cast<u32>(scenario_idx), r);
            return r;  // the worker's local outlives the progress call
          });
  for (store::ShardWriter& w : writers) w.close();
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
  if (config_.workers >= 2 && config_.journal_dir.empty()) {
    throw std::invalid_argument(
        "workers >= 2 requires a journal directory: the journal is how "
        "worker processes hand back their results");
  }
  if (config_.kill_trial && config_.workers < 2) {
    throw std::invalid_argument(
        "kill_trial is a worker-process test hook and needs workers >= 2");
  }
  if (!config_.dump_dir.empty()) {
#if !DNSTIME_OBS
    throw std::invalid_argument(
        "narrative dumps require an observability build (DNSTIME_OBS=1)");
#endif
    std::filesystem::create_directories(config_.dump_dir);
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

  TrialCursor cursor;
  cursor.total = scenarios.size() * trials;
  execute(scenarios, /*skip=*/nullptr, resolve_threads(cursor.total), cursor,
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
  const store::JournalMeta meta =
      store::JournalMeta::describe(config_.seed, config_.trials, scenarios);
  const store::OpenedJournal journal =
      store::open_journal(config_.journal_dir, meta, config_.resume);
  std::vector<u8> skip =
      journaled_mask(journal.pending, scenarios.size() * config_.trials);
  if (!config_.trace_path.empty() && skip[config_.trace_index] != 0) {
    // Resumed campaign whose traced trial was already journaled: nothing
    // re-executes it, so there is nothing to trace.
    std::fprintf(stderr,
                 "dnstime: trace index %llu was skipped (already "
                 "journaled); no trace written to %s\n",
                 static_cast<unsigned long long>(config_.trace_index),
                 config_.trace_path.c_str());
  }
  if (config_.workers >= 2) {
    run_worker_processes(scenarios, meta, std::move(skip),
                         journal.next_shard_id);
  } else {
    TrialCursor cursor;
    cursor.total = count_pending(skip);
    execute_journaled(scenarios, meta, skip, resolve_threads(cursor.total),
                      cursor, journal.next_shard_id);
  }

  // Streaming fold over the shards merged back into trial-index order: no
  // results vector ever holds the campaign, only the per-success durations
  // (8 bytes each) that the exact p50/p90 quantiles need.
  return store::read_finished_report(config_.journal_dir, meta);
}

void CampaignRunner::run_worker_processes(
    const std::vector<ScenarioSpec>& scenarios, const store::JournalMeta& meta,
    std::vector<u8> skip, u32 next_shard) const {
  if (!config_.progress_path.empty()) {
    // Start from a clean view, as a threads run truncates its file: shard
    // ids keep counting across runs, so an earlier run's worker files would
    // otherwise be merged with this run's.
    std::filesystem::create_directories(config_.progress_path);
    std::vector<std::filesystem::path> stale;
    for (const auto& entry :
         std::filesystem::directory_iterator(config_.progress_path)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && name.rfind("worker-", 0) == 0 &&
          entry.path().extension() == ".jsonl") {
        stale.push_back(entry.path());
      }
    }
    for (const auto& path : stale) std::filesystem::remove(path);
  }
  void* page = ::mmap(nullptr, sizeof(TrialCursor), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (page == MAP_FAILED) {
    throw std::runtime_error(std::string("cannot map the trial cursor: ") +
                             std::strerror(errno));
  }
  const auto unmap = [](TrialCursor* c) { ::munmap(c, sizeof(TrialCursor)); };
  std::unique_ptr<TrialCursor, decltype(unmap)> cursor(new (page) TrialCursor,
                                                       unmap);
  cursor->total = count_pending(skip);
  // det-lint: allow(pid) the children's orphan check; no pid reaches output
  const pid_t parent = ::getpid();
  CampaignConfig child = config_;  // loses the kill hook after round one

  for (u64 pending = cursor->total; pending > 0;) {
    const u32 children =
        static_cast<u32>(std::min<u64>(config_.workers, pending));
    cursor->next.store(0);
    cursor->done.store(cursor->total - pending);
    // A child inherits unflushed stdio buffers and must not replay them.
    std::fflush(nullptr);
    std::vector<pid_t> pids;
    std::string failure;
    for (u32 k = 0; k < children; ++k) {
      const pid_t pid = ::fork();
      if (pid == 0) {
        // Die with the parent, so no orphan keeps appending to a journal a
        // resumed run may already own. The re-check covers a parent that
        // died before the prctl.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        // det-lint: allow(pid) orphan check only; no pid reaches output
        if (::getppid() != parent) ::_exit(3);
        const u32 shard = next_shard + k;
        int code = 0;
        try {
          CampaignConfig mine = child;
          if (!mine.progress_path.empty()) {
            mine.progress_path += "/worker-" + std::to_string(shard) + ".jsonl";
          }
          CampaignRunner(std::move(mine))
              .execute_journaled(scenarios, meta, skip, 1, *cursor, shard);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "dnstime: worker process for shard %u: %s\n",
                       shard, e.what());
          code = 1;
        } catch (...) {
          code = 1;
        }
        // _exit: the parent's atexit handlers and stdio buffers are not
        // this process's to run.
        ::_exit(code);
      }
      if (pid < 0) {
        failure = std::string("cannot fork a worker process: ") +
                  std::strerror(errno);
        break;
      }
      pids.push_back(pid);
    }
    for (std::size_t k = 0; k < pids.size(); ++k) {
      int status = 0;
      while (::waitpid(pids[k], &status, 0) < 0 && errno == EINTR) {
      }
      // A child killed by a signal is what the next round recovers from;
      // one that exits non-zero reported a failure the campaign must not
      // paper over.
      if (WIFEXITED(status) && WEXITSTATUS(status) != 0 && failure.empty()) {
        failure = "worker process for shard " +
                  std::to_string(next_shard + k) + " exited with status " +
                  std::to_string(WEXITSTATUS(status));
      }
    }
    if (!failure.empty()) throw std::runtime_error(failure);
    next_shard += children;  // shard and progress names never repeat
    child.kill_trial.reset();

    // The journal is the only record of what the round did. Re-opening it
    // truncates a killed child's torn tail.
    const store::OpenedJournal journal =
        store::open_journal(config_.journal_dir, meta, /*resume=*/true);
    skip = journaled_mask(journal.pending, skip.size());
    const u64 left = count_pending(skip);
    if (left == pending) {
      throw std::runtime_error(
          "a round of worker processes journaled nothing: " +
          std::to_string(left) + " trials outstanding");
    }
    pending = left;
    next_shard = std::max(next_shard, journal.next_shard_id);
  }
}

}  // namespace dnstime::campaign
