#include "campaign/cli.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

#include "common/buffer.h"
#include "common/log.h"
#include "obs/counters.h"

namespace dnstime::campaign {
namespace {

void usage(const char* prog, bool scenario_flags) {
  std::fprintf(stderr,
               "usage: %s [--trials N] [--threads T] [--seed S]\n"
               "       [--journal DIR] [--resume] [--out PATH] [--json]\n"
               "       [--metrics] [--trace FILE] [--trace-index N]\n"
               "       [--dump DIR] [--dump-on auto|error|timeout|"
               "attack-failed|always]\n"
               "       [--progress FILE] [--workers N] "
               "[--log-level trace|debug|info|warn|off]%s\n",
               prog, scenario_flags ? " [--filter PREFIX]" : "");
}

/// Process-wide buffer-pool stats as JSON: totals plus a sparse per-class
/// map keyed by block size (classes with no activity are omitted, so quiet
/// size classes do not bloat the output).
std::string buffer_pool_json() {
  const BufferPool::Stats s = BufferPool::aggregate_stats();
  std::string out = "{\"pool_hits\":" + std::to_string(s.pool_hits);
  out += ",\"fresh_allocs\":" + std::to_string(s.fresh_allocs);
  out += ",\"oversize_allocs\":" + std::to_string(s.oversize_allocs);
  out += ",\"outstanding\":" + std::to_string(s.outstanding);
  out += ",\"cached_blocks\":" + std::to_string(s.cached_blocks);
  out += ",\"cached_bytes\":" + std::to_string(s.cached_bytes);
  out += ",\"classes\":{";
  bool first = true;
  for (std::size_t i = 0; i < BufferPool::kNumClasses; ++i) {
    const BufferPool::Stats::PerClass& pc = s.classes[i];
    if (pc.pool_hits == 0 && pc.fresh_allocs == 0 && pc.outstanding == 0 &&
        pc.cached_blocks == 0) {
      continue;
    }
    if (!first) out += ",";
    first = false;
    const std::size_t size = std::size_t{1}
                             << (BufferPool::kMinClassShift + i);
    out += "\"" + std::to_string(size) + "\":{";
    out += "\"pool_hits\":" + std::to_string(pc.pool_hits);
    out += ",\"fresh_allocs\":" + std::to_string(pc.fresh_allocs);
    out += ",\"outstanding\":" + std::to_string(pc.outstanding);
    out += ",\"cached_blocks\":" + std::to_string(pc.cached_blocks);
    out += ",\"cached_bytes\":" + std::to_string(pc.cached_bytes);
    out += "}";
  }
  out += "}}";
  return out;
}

/// The --metrics JSON value: the registry snapshot's counters/histograms
/// with the buffer-pool block spliced in as a third key.
std::string metrics_json() {
  std::string out = obs::Registry::instance().snapshot().to_json();
  // snapshot JSON is a {"counters":...,"histograms":...} object; graft
  // "buffer_pool" on before its closing brace.
  out.pop_back();
  out += ",\"buffer_pool\":" + buffer_pool_json() + "}";
  return out;
}

/// The --metrics section for table reports.
std::string metrics_table() {
  std::string out = "\n== metrics ==\n";
  out += obs::Registry::instance().snapshot().to_table();
  const BufferPool::Stats s = BufferPool::aggregate_stats();
  char line[256];
  std::snprintf(line, sizeof line,
                "buffer pool: hits=%llu fresh=%llu oversize=%llu "
                "outstanding=%llu cached=%llu blocks / %llu bytes\n",
                static_cast<unsigned long long>(s.pool_hits),
                static_cast<unsigned long long>(s.fresh_allocs),
                static_cast<unsigned long long>(s.oversize_allocs),
                static_cast<unsigned long long>(s.outstanding),
                static_cast<unsigned long long>(s.cached_blocks),
                static_cast<unsigned long long>(s.cached_bytes));
  out += line;
  return out;
}

}  // namespace

bool parse_u64_token(const char* s, u64& out) {
  if (s == nullptr || !std::isdigit(static_cast<unsigned char>(*s))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  out = v;
  return true;
}

CliOptions parse_cli(int argc, char** argv, CliOptions defaults,
                     bool scenario_flags) {
  CliOptions opts = std::move(defaults);
  // Call sites print their own (literal, compiler-checked) message first,
  // then `return fail();` to append the usage line and flag the error.
  auto fail = [&]() -> CliOptions& {
    usage(argv[0], scenario_flags);
    opts.ok = false;
    return opts;
  };
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--json") == 0) {
      opts.json = true;
      continue;
    }
    if (std::strcmp(flag, "--resume") == 0) {
      opts.config.resume = true;
      continue;
    }
    if (std::strcmp(flag, "--metrics") == 0) {
      opts.metrics = true;
      continue;
    }
    if (std::strcmp(flag, "--dist-worker") == 0) {
      opts.dist.worker_mode = true;
      continue;
    }
    const bool takes_value =
        std::strcmp(flag, "--workers") == 0 ||
        std::strcmp(flag, "--dist-fd-in") == 0 ||
        std::strcmp(flag, "--dist-fd-out") == 0 ||
        std::strcmp(flag, "--dist-worker-id") == 0 ||
        std::strcmp(flag, "--dist-kill-worker") == 0 ||
        std::strcmp(flag, "--dist-kill-after") == 0 ||
        std::strcmp(flag, "--trials") == 0 ||
        std::strcmp(flag, "--threads") == 0 ||
        std::strcmp(flag, "--seed") == 0 ||
        std::strcmp(flag, "--journal") == 0 ||
        std::strcmp(flag, "--out") == 0 ||
        std::strcmp(flag, "--trace") == 0 ||
        std::strcmp(flag, "--trace-index") == 0 ||
        std::strcmp(flag, "--dump") == 0 ||
        std::strcmp(flag, "--dump-on") == 0 ||
        std::strcmp(flag, "--progress") == 0 ||
        std::strcmp(flag, "--log-level") == 0 ||
        (scenario_flags && std::strcmp(flag, "--filter") == 0);
    if (!takes_value) {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], flag);
      return fail();
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: flag '%s' requires a value\n", argv[0], flag);
      return fail();
    }
    const char* value = argv[++i];
    u64 parsed = 0;
    if (std::strcmp(flag, "--trials") == 0) {
      if (!parse_u64_token(value, parsed) || parsed == 0 ||
          parsed > std::numeric_limits<u32>::max()) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '--trials' "
                     "(want an integer in 1..4294967295)\n",
                     argv[0], value);
        return fail();
      }
      opts.config.trials = static_cast<u32>(parsed);
    } else if (std::strcmp(flag, "--threads") == 0) {
      if (!parse_u64_token(value, parsed) ||
          parsed > std::numeric_limits<u32>::max()) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '--threads' "
                     "(want an unsigned integer; 0 = all cores, "
                     "capped at 1024)\n",
                     argv[0], value);
        return fail();
      }
      opts.config.threads = static_cast<u32>(parsed);
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!parse_u64_token(value, parsed)) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '--seed' "
                     "(want an unsigned 64-bit integer)\n",
                     argv[0], value);
        return fail();
      }
      opts.config.seed = parsed;
    } else if (std::strcmp(flag, "--journal") == 0) {
      opts.config.journal_dir = value;
    } else if (std::strcmp(flag, "--out") == 0) {
      opts.out = value;
    } else if (std::strcmp(flag, "--trace") == 0) {
      opts.config.trace_path = value;
    } else if (std::strcmp(flag, "--dump") == 0) {
      opts.config.dump_dir = value;
    } else if (std::strcmp(flag, "--dump-on") == 0) {
      if (std::strcmp(value, "auto") != 0 &&
          std::strcmp(value, "error") != 0 &&
          std::strcmp(value, "timeout") != 0 &&
          std::strcmp(value, "attack-failed") != 0 &&
          std::strcmp(value, "always") != 0) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '--dump-on' (want "
                     "auto, error, timeout, attack-failed or always)\n",
                     argv[0], value);
        return fail();
      }
      opts.config.dump_on = value;
    } else if (std::strcmp(flag, "--progress") == 0) {
      opts.config.progress_path = value;
    } else if (std::strcmp(flag, "--workers") == 0) {
      if (!parse_u64_token(value, parsed) || parsed > 256) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '--workers' "
                     "(want an integer in 0..256; >= 2 runs that many "
                     "worker processes)\n",
                     argv[0], value);
        return fail();
      }
      opts.dist.workers = static_cast<u32>(parsed);
    } else if (std::strcmp(flag, "--dist-fd-in") == 0 ||
               std::strcmp(flag, "--dist-fd-out") == 0) {
      if (!parse_u64_token(value, parsed) ||
          parsed > std::numeric_limits<int>::max()) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '%s' "
                     "(want an inherited file descriptor number)\n",
                     argv[0], value, flag);
        return fail();
      }
      (std::strcmp(flag, "--dist-fd-in") == 0 ? opts.dist.fd_in
                                              : opts.dist.fd_out) =
          static_cast<int>(parsed);
    } else if (std::strcmp(flag, "--dist-worker-id") == 0) {
      if (!parse_u64_token(value, parsed) || parsed > 256) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '--dist-worker-id'\n",
                     argv[0], value);
        return fail();
      }
      opts.dist.worker_id = static_cast<u32>(parsed);
    } else if (std::strcmp(flag, "--dist-kill-worker") == 0) {
      if (!parse_u64_token(value, parsed) || parsed > 256) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '--dist-kill-worker' "
                     "(want a worker index)\n",
                     argv[0], value);
        return fail();
      }
      opts.dist.kill_worker = static_cast<int>(parsed);
    } else if (std::strcmp(flag, "--dist-kill-after") == 0) {
      if (!parse_u64_token(value, parsed)) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '--dist-kill-after' "
                     "(want a trial count)\n",
                     argv[0], value);
        return fail();
      }
      opts.dist.kill_after = parsed;
    } else if (std::strcmp(flag, "--trace-index") == 0) {
      if (!parse_u64_token(value, parsed)) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '--trace-index' "
                     "(want a flattened trial index, "
                     "scenario_index * trials + trial_index)\n",
                     argv[0], value);
        return fail();
      }
      opts.config.trace_index = parsed;
    } else if (std::strcmp(flag, "--log-level") == 0) {
      const std::optional<LogLevel> level = parse_log_level(value);
      if (!level) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '--log-level' "
                     "(want trace, debug, info, warn or off)\n",
                     argv[0], value);
        return fail();
      }
      Logger::set_level(*level);
    } else {
      opts.filter = value;
    }
  }
  if (opts.config.resume && opts.config.journal_dir.empty()) {
    std::fprintf(stderr, "%s: '--resume' requires '--journal DIR'\n",
                 argv[0]);
    return fail();
  }
  if (opts.dist.worker_mode &&
      (opts.dist.fd_in < 0 || opts.dist.fd_out < 0 ||
       opts.config.journal_dir.empty())) {
    std::fprintf(stderr,
                 "%s: '--dist-worker' needs '--dist-fd-in N', "
                 "'--dist-fd-out N' and '--journal DIR' (it is spawned by "
                 "the coordinator, not invoked by hand)\n",
                 argv[0]);
    return fail();
  }
  if (!opts.dist.worker_mode && opts.dist.workers >= 2) {
    if (opts.config.journal_dir.empty()) {
      std::fprintf(stderr, "%s: '--workers' requires '--journal DIR'\n",
                   argv[0]);
      return fail();
    }
    // Worker registries never reach the coordinator, so --metrics would
    // print an empty counter section rather than fail.
    if (!opts.config.trace_path.empty() || !opts.config.dump_dir.empty() ||
        opts.metrics) {
      std::fprintf(stderr,
                   "%s: '--trace'/'--dump'/'--metrics' are not supported "
                   "with '--workers' (trials execute in worker processes)\n",
                   argv[0]);
      return fail();
    }
    // argv for worker re-exec: everything except the coordinator-only
    // flags (--workers would recurse; the kill hook must fire exactly
    // once, in the coordinator).
    opts.dist.respawn_args.emplace_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--workers") == 0 ||
          std::strcmp(argv[i], "--dist-kill-worker") == 0 ||
          std::strcmp(argv[i], "--dist-kill-after") == 0) {
        i++;  // skip the flag's value too
        continue;
      }
      // Workers never scan or resume the journal — the coordinator already
      // validated and cleaned it — and their report/metrics flags would be
      // dead weight; strip the ones that change observable behaviour.
      if (std::strcmp(argv[i], "--resume") == 0) continue;
      opts.dist.respawn_args.emplace_back(argv[i]);
    }
  }
  if (!opts.config.dump_dir.empty() && !DNSTIME_OBS) {
    std::fprintf(stderr,
                 "%s: '--dump' requires an observability build "
                 "(DNSTIME_OBS=1)\n",
                 argv[0]);
    return fail();
  }
  return opts;
}

bool write_report(const CliOptions& opts, const CampaignReport& report) {
  // Journaled runs carry no per-trial rows in memory — the shards hold
  // them — so their JSON serialises aggregates only. This also keeps the
  // output comparable across journaled runs, resumes and thread counts.
  const bool include_trials = opts.config.journal_dir.empty();
  std::string text;
  if (opts.json) {
    text = report.to_json(include_trials,
                          opts.metrics ? metrics_json() : std::string{}) +
           "\n";
  } else {
    text = report.to_table();
    if (opts.metrics) text += metrics_table();
  }
  if (opts.out.empty()) {
    if (std::fwrite(text.data(), 1, text.size(), stdout) != text.size()) {
      std::fprintf(stderr, "failed writing report to stdout\n");
      return false;
    }
    return true;
  }
  std::FILE* f = std::fopen(opts.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s' for writing: %s\n",
                 opts.out.c_str(), std::strerror(errno));
    return false;
  }
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) ==
                     text.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::fprintf(stderr, "failed writing report to '%s'\n", opts.out.c_str());
    return false;
  }
  return true;
}

}  // namespace dnstime::campaign
