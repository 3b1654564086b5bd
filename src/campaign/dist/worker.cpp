#include "campaign/dist/worker.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>

#include "campaign/dist/lease.h"
#include "campaign/progress_merge.h"
#include "campaign/store/journal.h"
#include "campaign/store/shard_writer.h"
#include "campaign/trial.h"
#include "obs/provenance.h"

namespace dnstime::campaign::dist {
namespace {

/// Buffered line reader over a pipe fd. Blocking and non-blocking reads
/// share one carry buffer so a message split across read() calls is never
/// torn.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Blocks until a full line is available. False on EOF/error with no
  /// complete line buffered.
  bool next_blocking(std::string& line) {
    for (;;) {
      if (take_line(line)) return true;
      if (eof_) return false;
      if (!fill(/*wait=*/true)) return false;
    }
  }

  /// Drains whatever is readable right now without blocking; returns each
  /// buffered complete line in turn, false when none is pending.
  bool next_nonblocking(std::string& line) {
    fill(/*wait=*/false);
    return take_line(line);
  }

  [[nodiscard]] bool eof() const { return eof_; }

 private:
  bool take_line(std::string& line) {
    const std::size_t nl = buf_.find('\n');
    if (nl == std::string::npos) return false;
    line.assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    return true;
  }

  /// Appends available bytes to the buffer. With wait, blocks for at least
  /// one byte. Returns false when the pipe is at EOF or errored.
  bool fill(bool wait) {
    if (eof_) return false;
    if (!wait) {
      pollfd p{fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, 0);
      if (r <= 0 || (p.revents & (POLLIN | POLLHUP)) == 0) return true;
    }
    char chunk[4096];
    ssize_t n;
    do {
      n = ::read(fd_, chunk, sizeof chunk);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
      eof_ = true;
      return false;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_;
  std::string buf_;
  bool eof_ = false;
};

struct ScenarioProgress {
  u32 done = 0;
  u32 successes = 0;
};

}  // namespace

int run_worker(const CampaignConfig& config,
               const std::vector<ScenarioSpec>& scenarios,
               const DistOptions& opt) {
  // A dying coordinator must surface as a write error we can turn into
  // exit code 3, not a SIGPIPE kill that looks like a worker crash.
  std::signal(SIGPIPE, SIG_IGN);

  const u32 trials = config.trials;
  const store::JournalMeta meta =
      store::JournalMeta::describe(config.seed, trials, scenarios);

  std::FILE* progress_file = nullptr;
  if (!config.progress_path.empty()) {
    // In distributed mode --progress names a directory; each process owns
    // one file inside it so appenders never interleave mid-line.
    std::error_code ec;
    std::filesystem::create_directories(config.progress_path, ec);
    const std::string path = config.progress_path + "/worker-" +
                             std::to_string(opt.worker_id) + ".jsonl";
    progress_file = std::fopen(path.c_str(), "wb");
    if (progress_file == nullptr) {
      std::fprintf(stderr, "dist worker %u: cannot open progress file %s\n",
                   opt.worker_id, path.c_str());
      return kWorkerProtocol;
    }
  }
  const auto close_file = [](std::FILE* f) {
    if (f != nullptr) std::fclose(f);
  };
  std::unique_ptr<std::FILE, decltype(close_file)> progress_guard(
      progress_file, close_file);
  std::vector<ScenarioProgress> progress_state(
      progress_file != nullptr ? scenarios.size() : 0);

  LineReader control(opt.fd_in);
  std::string line;
  for (;;) {
    if (!control.next_blocking(line)) {
      std::fprintf(stderr,
                   "dist worker %u: coordinator pipe closed before FIN\n",
                   opt.worker_id);
      return kWorkerProtocol;
    }
    const std::optional<Msg> msg = Msg::parse(line);
    if (!msg) {
      std::fprintf(stderr, "dist worker %u: bad control message '%s'\n",
                   opt.worker_id, line.c_str());
      return kWorkerProtocol;
    }
    if (msg->kind == Msg::Kind::Fin) return kWorkerOk;
    if (msg->kind == Msg::Kind::Trim) continue;  // raced a finished lease
    if (msg->kind == Msg::Kind::Done) {
      std::fprintf(stderr, "dist worker %u: unexpected DONE from coordinator\n",
                   opt.worker_id);
      return kWorkerProtocol;
    }

    // LEASE: one fresh shard per lease keeps its keys strictly ascending
    // even when this worker later executes an earlier (stolen) range.
    u64 end = msg->b;
    bool finished_by_fin = false;
    try {
      store::ShardWriter writer(config.journal_dir, meta, msg->shard_id);
      for (u64 idx = msg->a; idx < end; ++idx) {
        // Pick up TRIMs between trials: the steal protocol shrinks the
        // active lease, and the sooner the victim notices the less
        // duplicate work the journal dedupe has to absorb.
        while (control.next_nonblocking(line)) {
          const std::optional<Msg> m = Msg::parse(line);
          if (!m) return kWorkerProtocol;
          if (m->kind == Msg::Kind::Trim) {
            if (m->a < end) end = m->a;
          } else if (m->kind == Msg::Kind::Fin) {
            // The coordinator only FINs when every trial is accounted for
            // elsewhere; stop mid-lease and exit cleanly.
            finished_by_fin = true;
          } else {
            return kWorkerProtocol;
          }
        }
        if (finished_by_fin || idx >= end) break;

        const std::size_t scenario_idx =
            static_cast<std::size_t>(idx / trials);
        const u32 trial_idx = static_cast<u32>(idx % trials);
        const ScenarioSpec& spec = scenarios[scenario_idx];
        obs::FlightRecorder flight;
        const TrialResult result =
            execute_trial(spec, config.seed, trial_idx, flight);
        writer.append(static_cast<u32>(scenario_idx), result);
        // DONE only after the journal frame is flushed: the coordinator's
        // watermark must never run ahead of durable results, or a crash
        // after the ack would lose the trial forever.
        Msg done;
        done.kind = Msg::Kind::Done;
        done.a = idx;
        done.b = result.success ? 1 : 0;
        if (!write_all(opt.fd_out, done.encode())) {
          std::fprintf(stderr, "dist worker %u: cannot reach coordinator\n",
                       opt.worker_id);
          return kWorkerProtocol;
        }
        if (progress_file != nullptr) {
          // Deliberately wall-clock free and without campaign_* fields:
          // those are fleet-level facts only the coordinator knows; the
          // watcher's merger recomputes rates from the summed counts.
          ScenarioProgress& sp = progress_state[scenario_idx];
          sp.done++;
          if (result.success) sp.successes++;
          ProgressLine progress;
          progress.trial = {spec.name, trial_idx, result.success,
                            sp.done,   trials,    sp.successes};
          progress.worker = opt.worker_id;
          std::fputs(progress.encode().c_str(), progress_file);
          std::fflush(progress_file);
        }
      }
      writer.close();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dist worker %u: journal failure: %s\n",
                   opt.worker_id, e.what());
      return kWorkerJournal;
    }
    if (finished_by_fin) return kWorkerOk;
  }
}

}  // namespace dnstime::campaign::dist
