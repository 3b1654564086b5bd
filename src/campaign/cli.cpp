#include "campaign/cli.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>

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

/// Parses a --dump-on predicate ("auto", "error", "timeout",
/// "attack-failed", "always"); nullopt on anything else.
std::optional<DumpOn> parse_dump_on(std::string_view s) {
  if (s == "auto") return DumpOn::kAuto;
  if (s == "error") return DumpOn::kError;
  if (s == "timeout") return DumpOn::kTimeout;
  if (s == "attack-failed") return DumpOn::kAttackFailed;
  if (s == "always") return DumpOn::kAlways;
  return std::nullopt;
}

/// Process-wide packet-buffer block counts as JSON.
std::string buffer_pool_json() {
  const BufferPool::Stats s = BufferPool::aggregate_stats();
  return "{\"fresh_allocs\":" + std::to_string(s.fresh_allocs) +
         ",\"outstanding\":" + std::to_string(s.outstanding) + "}";
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
  char line[128];
  std::snprintf(line, sizeof line, "buffer pool: fresh=%llu outstanding=%llu\n",
                static_cast<unsigned long long>(s.fresh_allocs),
                static_cast<unsigned long long>(s.outstanding));
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
  bool threads_given = false;
  bool dump_on_given = false;
  bool trace_index_given = false;
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
    const bool takes_value =
        std::strcmp(flag, "--workers") == 0 ||
        std::strcmp(flag, "--dist-kill-trial") == 0 ||
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
      threads_given = true;
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
      const std::optional<DumpOn> dump_on = parse_dump_on(value);
      if (!dump_on) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '--dump-on' (want "
                     "auto, error, timeout, attack-failed or always)\n",
                     argv[0], value);
        return fail();
      }
      opts.config.dump_on = *dump_on;
      dump_on_given = true;
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
      opts.config.workers = static_cast<u32>(parsed);
    } else if (std::strcmp(flag, "--dist-kill-trial") == 0) {
      if (!parse_u64_token(value, parsed)) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' for flag '--dist-kill-trial' "
                     "(want a flattened trial index)\n",
                     argv[0], value);
        return fail();
      }
      opts.config.kill_trial = parsed;
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
      trace_index_given = true;
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
  if (dump_on_given && opts.config.dump_dir.empty()) {
    std::fprintf(stderr, "%s: '--dump-on' requires '--dump DIR'\n",
                 argv[0]);
    return fail();
  }
  if (trace_index_given && opts.config.trace_path.empty()) {
    std::fprintf(stderr, "%s: '--trace-index' requires '--trace FILE'\n",
                 argv[0]);
    return fail();
  }
  if (opts.config.workers >= 2) {
    if (opts.config.journal_dir.empty()) {
      std::fprintf(stderr, "%s: '--workers' requires '--journal DIR'\n",
                   argv[0]);
      return fail();
    }
    if (threads_given) {
      std::fprintf(stderr,
                   "%s: '--threads' cannot be combined with '--workers' "
                   "(each worker process runs one trial at a time)\n",
                   argv[0]);
      return fail();
    }
    // Each worker process counts into its own registry, which never
    // reaches the parent that prints the report.
    if (opts.metrics) {
      std::fprintf(stderr,
                   "%s: '--metrics' is not supported with '--workers' "
                   "(the counters stay in the worker processes)\n",
                   argv[0]);
      return fail();
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
  } else if (!opts.out.empty()) {
    text = report.to_table();
    if (opts.metrics) text += metrics_table();
  } else if (opts.metrics) {
    // The program printed its own view of the report to stdout; only the
    // metrics block is left to write.
    text = metrics_table();
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
