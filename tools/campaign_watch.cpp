// campaign_watch: tail the JSON Lines stream(s) a campaign writes with
// `--progress PATH` and render a live per-scenario table — trials done,
// success rate with its 95% Wilson interval, and the campaign-level ETA.
//
// PATH is a single file for threads campaigns, or a directory for
// `--workers N` ones: each worker process appends to its own
// worker-<shard>.jsonl (a crash-recovery round adds more), so no two
// writers ever interleave mid-line. The watcher discovers *.jsonl files
// on every poll tick (workers appear as they start), tails each at its
// own offset, and folds everything through ProgressMerger — per-scenario
// counts are summed across processes and the rate/CI recomputed, so the
// view matches what a single process would have printed.
//
// Partial lines (a writer mid-fprintf, or a read racing a write) stay
// buffered per file until their newline arrives.
//
// Usage:
//   campaign_watch PATH [--once] [--interval MS]
//
//   PATH           the --progress file or directory of a campaign
//   --once         render the current state once and exit (CI / scripting)
//   --interval MS  poll interval in follow mode (default 500)
//
// Follow mode exits on its own when the stream reports the campaign
// complete (campaign_done == campaign_total).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campaign/progress_merge.h"

namespace {

using dnstime::campaign::ProgressMerger;

/// One tailed stream: an open handle plus the stable id ProgressMerger
/// keys its per-file carry buffer and counters by.
struct Source {
  std::string path;
  std::FILE* file = nullptr;
  std::size_t id = 0;
};

/// Reads whatever bytes are newly available on `src` into the merger.
/// Returns true when anything arrived.
bool drain(Source& src, ProgressMerger& merger) {
  bool got = false;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, src.file)) > 0) {
    merger.feed(src.id, buf, n);
    got = true;
  }
  std::clearerr(src.file);  // EOF is transient while the writer is live
  return got;
}

/// Discovers *.jsonl files under `dir` and opens any not yet tracked.
/// Discovery order (sorted paths) assigns ids, so a given run tails each
/// file under a stable id even as new workers appear.
void discover(const std::string& dir, std::vector<Source>& sources) {
  std::vector<std::string> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() != ".jsonl") continue;
    found.push_back(entry.path().string());
  }
  std::sort(found.begin(), found.end());
  for (const std::string& path : found) {
    bool known = false;
    for (const Source& src : sources) {
      if (src.path == path) {
        known = true;
        break;
      }
    }
    if (known) continue;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) continue;  // racing the creator; retry next tick
    sources.push_back(Source{path, f, sources.size()});
  }
}

void render(const ProgressMerger::Snapshot& snap, bool clear) {
  std::string out;
  if (clear) out += "\x1b[H\x1b[J";  // cursor home + clear to end
  char line[256];
  std::snprintf(line, sizeof line,
                "campaign: %llu/%llu trials  elapsed %.1f s  eta %.1f s\n",
                static_cast<unsigned long long>(snap.campaign_done),
                static_cast<unsigned long long>(snap.campaign_total),
                snap.elapsed_s, snap.eta_s);
  out += line;
  std::snprintf(line, sizeof line, "%-28s %9s %6s %7s  %s\n", "scenario",
                "done", "succ", "rate", "95% CI");
  out += line;
  for (const ProgressMerger::MergedRow& row : snap.rows) {
    std::snprintf(line, sizeof line,
                  "%-28s %5llu/%-3llu %6llu %7.3f  [%.3f, %.3f]\n",
                  row.name.c_str(), static_cast<unsigned long long>(row.done),
                  static_cast<unsigned long long>(row.trials),
                  static_cast<unsigned long long>(row.successes), row.rate,
                  row.wilson_low, row.wilson_high);
    out += line;
  }
  if (snap.bad_lines > 0) {
    std::snprintf(line, sizeof line, "(%llu malformed lines ignored)\n",
                  static_cast<unsigned long long>(snap.bad_lines));
    out += line;
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool once = false;
  unsigned long long interval_ms = 500;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--once") == 0) {
      once = true;
      continue;
    }
    if (std::strcmp(arg, "--interval") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag '--interval' requires a value\n",
                     argv[0]);
        return 2;
      }
      char* end = nullptr;
      interval_ms = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || interval_ms == 0) {
        std::fprintf(stderr, "%s: invalid --interval value '%s'\n", argv[0],
                     argv[i]);
        return 2;
      }
      continue;
    }
    if (arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg);
      std::fprintf(stderr, "usage: %s PATH [--once] [--interval MS]\n",
                   argv[0]);
      return 2;
    }
    if (!path.empty()) {
      std::fprintf(stderr, "%s: more than one path given\n", argv[0]);
      return 2;
    }
    path = arg;
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: %s PATH [--once] [--interval MS]\n",
                 argv[0]);
    return 2;
  }

  std::error_code ec;
  const bool dir_mode = std::filesystem::is_directory(path, ec);
  std::vector<Source> sources;
  if (!dir_mode) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot open '%s' for reading\n", argv[0],
                   path.c_str());
      return 1;
    }
    sources.push_back(Source{path, f, 0});
  }

  ProgressMerger merger;
  bool dirty = false;
  for (;;) {
    if (dir_mode) discover(path, sources);
    for (Source& src : sources) {
      if (drain(src, merger)) dirty = true;
    }

    const ProgressMerger::Snapshot snap = merger.snapshot();
    if (once) {
      render(snap, /*clear=*/false);
      return 0;
    }
    if (dirty) {
      render(snap, /*clear=*/true);
      dirty = false;
    }
    if (snap.campaign_total > 0 && snap.campaign_done >= snap.campaign_total) {
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
