#include "campaign/dist/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>

#include "campaign/dist/lease.h"
#include "campaign/dist/worker.h"
#include "campaign/progress_merge.h"
#include "campaign/store/journal.h"
#include "campaign/store/journal_reader.h"

namespace dnstime::campaign::dist {
namespace {

namespace fs = std::filesystem;

/// The coordinator's view of one worker process.
struct WorkerProc {
  pid_t pid = -1;
  int rfd = -1;  ///< worker's DONE stream
  int wfd = -1;  ///< control messages to the worker
  std::string inbuf;
  bool alive = false;
  bool reaped = false;
  bool finned = false;
};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Resolves the running executable for worker re-exec. /proc/self/exe is
/// authoritative on Linux; argv[0] is the portable fallback.
std::string self_exe(const std::string& argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return argv0;
}

void spawn_worker(const std::string& exe,
                  const std::vector<std::string>& base_args, u32 worker_id,
                  WorkerProc& w) {
  int to_worker[2];    // coordinator writes, worker reads
  int from_worker[2];  // worker writes, coordinator reads
  if (::pipe(to_worker) != 0 || ::pipe(from_worker) != 0) {
    throw std::runtime_error(std::string("pipe failed: ") +
                             std::strerror(errno));
  }

  std::vector<std::string> args = base_args;
  args.push_back("--dist-worker");
  args.push_back("--dist-fd-in");
  args.push_back(std::to_string(to_worker[0]));
  args.push_back("--dist-fd-out");
  args.push_back(std::to_string(from_worker[1]));
  args.push_back("--dist-worker-id");
  args.push_back(std::to_string(worker_id));
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    // Child: drop the coordinator-side ends, keep our own (their fd
    // numbers are what the flags above name), exec the same binary.
    ::close(to_worker[1]);
    ::close(from_worker[0]);
    ::execv(exe.c_str(), argv.data());
    std::fprintf(stderr, "dist worker exec '%s' failed: %s\n", exe.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  // Parent: close the child-side ends now — EOF detection on rfd depends
  // on no other process holding the write end — and keep the coordinator
  // ends out of later children via CLOEXEC.
  ::close(to_worker[0]);
  ::close(from_worker[1]);
  (void)::fcntl(to_worker[1], F_SETFD, FD_CLOEXEC);
  (void)::fcntl(from_worker[0], F_SETFD, FD_CLOEXEC);
  // Non-blocking reads: the event loop drains "until EAGAIN", which a
  // blocking fd would turn into a stall whenever a worker's burst landed
  // on an exact buffer boundary.
  (void)::fcntl(from_worker[0], F_SETFL, O_NONBLOCK);
  w.pid = pid;
  w.wfd = to_worker[1];
  w.rfd = from_worker[0];
  w.alive = true;
}

}  // namespace

CampaignReport run_coordinator(const CampaignConfig& config,
                               const std::vector<ScenarioSpec>& scenarios,
                               const DistOptions& opt) {
  if (config.journal_dir.empty()) {
    throw std::invalid_argument(
        "distributed campaigns require a journal directory (--journal)");
  }
  if (opt.workers < 2 || opt.respawn_args.empty()) {
    throw std::invalid_argument("run_coordinator needs --workers >= 2");
  }
  // A broken worker pipe must come back as a write error, not kill us.
  std::signal(SIGPIPE, SIG_IGN);

  const u32 trials = config.trials;
  const std::string& dir = config.journal_dir;
  const u64 total = static_cast<u64>(scenarios.size()) * trials;
  const store::JournalMeta meta =
      store::JournalMeta::describe(config.seed, trials, scenarios);
  const store::OpenedJournal journal =
      store::open_journal(dir, meta, config.resume);
  LeaseBook book(journal.pending, total, opt.workers, journal.next_shard_id);

  // Coordinator-side fleet progress stream (campaign-level lines only; the
  // per-scenario detail comes from the workers' own files in the same
  // directory). Wall time here feeds nothing but this stream.
  std::FILE* progress_file = nullptr;
  if (!config.progress_path.empty()) {
    fs::create_directories(config.progress_path);
    const std::string path = config.progress_path + "/coordinator.jsonl";
    progress_file = std::fopen(path.c_str(), "wb");
    if (progress_file == nullptr) {
      throw std::runtime_error("cannot open progress file '" + path +
                               "' for writing");
    }
  }
  const auto close_file = [](std::FILE* f) {
    if (f != nullptr) std::fclose(f);
  };
  std::unique_ptr<std::FILE, decltype(close_file)> progress_guard(
      progress_file, close_file);
  // det-lint: allow(wallclock) elapsed/ETA for the progress stream only
  const auto campaign_start = std::chrono::steady_clock::now();
  const auto emit_progress = [&](u64 done) {
    if (progress_file == nullptr) return;
    const double elapsed_s =
        // det-lint: allow(wallclock) elapsed/ETA for the progress stream only
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      campaign_start)
            .count();
    ProgressLine line;
    line.campaign = {done, book.target(), elapsed_s};
    std::fputs(line.encode().c_str(), progress_file);
    std::fflush(progress_file);
  };

  std::vector<WorkerProc> workers(opt.workers);
  bool kill_fired = opt.kill_worker < 0;

  const auto send = [&](u32 w, const Msg& m) {
    if (!workers[w].alive) return false;
    return write_all(workers[w].wfd, m.encode());
  };
  // Forward-declared so assignment failures can recurse into the death
  // handler (which itself reassigns work).
  std::function<void(u32)> on_worker_dead;
  const auto try_assign = [&](u32 w) -> bool {
    if (!workers[w].alive || book.worker_busy(w)) return true;
    std::optional<LeaseBook::Assignment> a = book.next_assignment(w);
    if (!a) return true;  // parked: a later death may still feed it
    if (a->stolen) {
      Msg trim;
      trim.kind = Msg::Kind::Trim;
      trim.a = a->victim_new_end;
      if (!send(a->victim, trim)) on_worker_dead(a->victim);
    }
    Msg lease;
    lease.kind = Msg::Kind::Lease;
    lease.a = a->lease.begin;
    lease.b = a->lease.end;
    lease.shard_id = a->lease.shard_id;
    if (!send(w, lease)) {
      on_worker_dead(w);
      return false;
    }
    return true;
  };
  on_worker_dead = [&](u32 w) {
    WorkerProc& p = workers[w];
    if (!p.alive) return;
    p.alive = false;
    close_fd(p.wfd);
    close_fd(p.rfd);
    if (!p.reaped) {
      int status = 0;
      (void)::waitpid(p.pid, &status, 0);
      p.reaped = true;
    }
    book.worker_dead(w);
    // The reissued remainder can only be picked up by a parked worker —
    // busy ones will ask when their lease completes.
    for (u32 v = 0; v < opt.workers; ++v) {
      if (v != w) (void)try_assign(v);
    }
  };

  const std::string exe = self_exe(opt.respawn_args.front());
  if (!book.all_done()) {
    for (u32 w = 0; w < opt.workers; ++w) {
      spawn_worker(exe, opt.respawn_args, w, workers[w]);
    }
    for (u32 w = 0; w < opt.workers; ++w) (void)try_assign(w);
  }

  std::vector<pollfd> pfds;
  std::vector<u32> pfd_worker;
  std::string line;
  u64 last_progress_done = 0;
  while (!book.all_done()) {
    pfds.clear();
    pfd_worker.clear();
    for (u32 w = 0; w < opt.workers; ++w) {
      if (workers[w].alive) {
        pfds.push_back({workers[w].rfd, POLLIN, 0});
        pfd_worker.push_back(w);
      }
    }
    if (pfds.empty()) {
      throw std::runtime_error(
          "distributed campaign failed: every worker died with " +
          std::to_string(book.target() - book.done_count()) +
          " trials outstanding");
    }
    // No timeout: every state change the loop acts on arrives as pipe
    // readability or hangup, so there is nothing to poll the clock for.
    int r;
    do {
      r = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
    } while (r < 0 && errno == EINTR);
    if (r < 0) {
      throw std::runtime_error(std::string("poll failed: ") +
                               std::strerror(errno));
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      const u32 w = pfd_worker[i];
      WorkerProc& p = workers[w];
      if (!p.alive) continue;  // died while handling an earlier fd
      bool saw_eof = false;
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char chunk[4096];
        for (;;) {
          ssize_t n;
          do {
            n = ::read(p.rfd, chunk, sizeof chunk);
          } while (n < 0 && errno == EINTR);
          if (n > 0) {
            p.inbuf.append(chunk, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) saw_eof = true;  // EAGAIN just ends the drain
          break;
        }
      }
      // Process every complete line, then the EOF: a dying worker's final
      // acks must land before its lease tail is reissued, or completed
      // trials would be pointlessly re-run.
      std::size_t nl;
      while ((nl = p.inbuf.find('\n')) != std::string::npos) {
        line.assign(p.inbuf, 0, nl);
        p.inbuf.erase(0, nl + 1);
        const std::optional<Msg> msg = Msg::parse(line);
        if (!msg || msg->kind != Msg::Kind::Done) {
          saw_eof = true;  // desynchronised: treat the worker as lost
          break;
        }
        book.mark_done(w, msg->a);
        if (!kill_fired && book.done_count() >= opt.kill_after) {
          // Fault-injection hook: SIGKILL mid-run, then let the normal
          // death path observe the hangup and rebalance.
          kill_fired = true;
          if (opt.kill_worker >= 0 &&
              static_cast<u32>(opt.kill_worker) < opt.workers &&
              workers[static_cast<u32>(opt.kill_worker)].alive) {
            (void)::kill(workers[static_cast<u32>(opt.kill_worker)].pid,
                         SIGKILL);
          }
        }
        if (!book.worker_busy(w)) (void)try_assign(w);
      }
      if (saw_eof) on_worker_dead(w);
    }
    if (book.done_count() != last_progress_done) {
      last_progress_done = book.done_count();
      emit_progress(last_progress_done);
    }
  }

  // All trials acked: wind the fleet down. FIN write failures are fine
  // here (a worker that died after its last ack owes nothing).
  Msg fin;
  fin.kind = Msg::Kind::Fin;
  for (u32 w = 0; w < opt.workers; ++w) {
    WorkerProc& p = workers[w];
    if (!p.alive) continue;
    (void)write_all(p.wfd, fin.encode());
    close_fd(p.wfd);
    // Drain to EOF so the worker is never blocked on a full DONE pipe
    // while trying to exit (rfd is non-blocking, so wait via poll).
    char chunk[4096];
    for (;;) {
      ssize_t n;
      do {
        n = ::read(p.rfd, chunk, sizeof chunk);
      } while (n < 0 && errno == EINTR);
      if (n > 0) continue;
      if (n == 0) break;
      if (errno != EAGAIN && errno != EWOULDBLOCK) break;
      pollfd pd{p.rfd, POLLIN, 0};
      int pr;
      do {
        pr = ::poll(&pd, 1, -1);
      } while (pr < 0 && errno == EINTR);
      if (pr < 0) break;
    }
    close_fd(p.rfd);
    int status = 0;
    (void)::waitpid(p.pid, &status, 0);
    p.reaped = true;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error(
          "dist worker " + std::to_string(w) +
          " exited abnormally after FIN (status " + std::to_string(status) +
          ")");
    }
  }

  // The same fold as CampaignRunner's journaled runs: the journal, not
  // the DONE accounting, is the ground truth.
  return store::read_finished_report(dir, meta);
}

}  // namespace dnstime::campaign::dist
