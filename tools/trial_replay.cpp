// trial_replay: re-run one campaign trial on its own and print what the
// campaign records for it — the attack narrative (which spoofed fragment
// was reassembled, which cache entry it poisoned, which client adopted the
// poisoned answer, where the causal chain broke) or the sim-time trace.
//
// The trial runs through campaign::execute_trial, the path every campaign
// mode uses, identified by (campaign seed, scenario name, trial index). So
// `--json` writes exactly the bytes of the campaign's `--dump` file for
// that trial and `--trace` exactly the bytes of its `--trace` file, and a
// throwing trial is reported as the campaign reports it: as an error in
// the result, not a failed run.
//
// Usage:
//   trial_replay SCENARIO|HASH [--trial N] [--seed S] [--json | --trace]
//                [--out FILE]
//   trial_replay --list
//
//   SCENARIO|HASH  built-in scenario name (e.g. forensics/frag-filter), or
//                  the FNV-1a name hash that keys journal records (decimal
//                  or 0x-hex)
//   --trial N      trial index within the scenario (default 0)
//   --seed S       campaign seed (default 0x5eed, the CampaignConfig default)
//   --json         the narrative as JSON instead of text
//   --trace        the Chrome trace_event JSON (open in Perfetto)
//   --out FILE     write there instead of stdout
//   --list         print the built-in scenario names and exit
//
// Exit codes: 0 replayed (whatever the trial's outcome), 1 output I/O
// error, 2 usage error or a DNSTIME_OBS=0 build (nothing is recorded).
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "campaign/cli.h"
#include "campaign/scenario_spec.h"
#include "campaign/store/journal.h"
#include "campaign/trial.h"
#include "obs/provenance.h"
#include "obs/trace.h"

using namespace dnstime;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s SCENARIO|HASH [--trial N] [--seed S] "
               "[--json | --trace] [--out FILE]\n"
               "       %s --list\n",
               prog, prog);
  return 2;
}

/// A built-in scenario by name, else by FNV-1a name hash (0x-hex or
/// decimal); nullptr when neither matches.
const campaign::ScenarioSpec* find_scenario(
    const campaign::ScenarioRegistry& registry, const std::string& token) {
  if (const campaign::ScenarioSpec* spec = registry.find(token)) return spec;
  u64 hash = 0;
  if (token.size() > 2 && token[0] == '0' &&
      (token[1] == 'x' || token[1] == 'X')) {
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data() + 2, end, hash, 16);
    if (ec != std::errc{} || ptr != end) return nullptr;
  } else if (!campaign::parse_u64_token(token.c_str(), hash)) {
    return nullptr;
  }
  for (const campaign::ScenarioSpec& spec : registry.all()) {
    if (campaign::store::fnv1a(spec.name) == hash) return &spec;
  }
  return nullptr;
}

/// Human-readable chain + ring summary (`--json` is the same narrative as
/// the campaign's dump file).
std::string render_text(const obs::FlightRecorder& flight,
                        const std::string& scenario, u64 campaign_seed,
                        const campaign::TrialResult& result) {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof line,
                "%s trial %u (campaign seed %llu, trial seed %llu)\n",
                scenario.c_str(), result.trial,
                static_cast<unsigned long long>(campaign_seed),
                static_cast<unsigned long long>(result.seed));
  out += line;
  if (!result.error.empty()) {
    out += "result: ERROR: " + result.error + "\n";
  } else {
    std::snprintf(line, sizeof line,
                  "result: %s, duration %.1f s, clock shift %.1f s\n",
                  result.success ? "SUCCESS (clock shifted)"
                                 : "FAILED (clock not shifted)",
                  result.duration_s, result.clock_shift_s);
    out += line;
  }
  out += "\ncausal chain:\n";
  const char* broke = flight.chain_broke_at(result.success);
  for (std::size_t i = 0; i < obs::kChainStageCount; ++i) {
    const auto stage = static_cast<obs::ChainStage>(i);
    const char* name = obs::to_string(stage);
    const u64 count = stage == obs::ChainStage::kClockShifted
                          ? (result.success ? 1 : 0)
                          : flight.chain(stage).count;
    std::snprintf(line, sizeof line, "  [%c] %-28s", count > 0 ? 'x' : ' ',
                  name);
    out += line;
    if (count > 0 && stage != obs::ChainStage::kClockShifted) {
      const obs::FlightRecorder::ChainPoint& cp = flight.chain(stage);
      std::snprintf(line, sizeof line, " x%-8llu first @ %.3f s",
                    static_cast<unsigned long long>(count),
                    static_cast<double>(cp.first_ts_ns) / 1e9);
      out += line;
      if (cp.first_ref_seq != 0) {
        std::snprintf(line, sizeof line, "  packet #%u", cp.first_ref_seq);
        out += line;
      }
      if (cp.detail[0] != '\0') {
        out += "  ";
        out += cp.detail;
      }
    } else if (count > 0) {
      out += " (trial succeeded)";
    } else if (broke != nullptr && std::strcmp(name, broke) == 0) {
      out += " <-- attack broke here";
    }
    out += "\n";
  }
  const char* reached = flight.chain_reached(result.success);
  out += "\nchain reached: ";
  out += reached != nullptr ? reached : "(nothing)";
  if (broke != nullptr) {
    out += ", broke at: ";
    out += broke;
  }
  out += "\n";
  std::snprintf(line, sizeof line,
                "ring: %zu of %llu events held (%llu overwritten), "
                "%llu packets stamped\n",
                flight.size(),
                static_cast<unsigned long long>(flight.recorded()),
                static_cast<unsigned long long>(flight.overwritten()),
                static_cast<unsigned long long>(flight.stamps()));
  out += line;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* prog = argv[0];
  std::string token;
  std::string out_path;
  u64 campaign_seed = campaign::CampaignConfig{}.seed;
  u64 trial = 0;
  bool list = false;
  bool json = false;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--trial" || arg == "--seed" || arg == "--out") {
      if (++i >= argc) {
        std::fprintf(stderr, "%s: flag '%s' requires a value\n", prog,
                     arg.c_str());
        return usage(prog);
      }
      if (arg == "--out") {
        out_path = argv[i];
      } else if (!campaign::parse_u64_token(
                     argv[i], arg == "--trial" ? trial : campaign_seed) ||
                 trial > std::numeric_limits<u32>::max()) {
        std::fprintf(stderr, "%s: invalid value '%s' for flag '%s'\n", prog,
                     argv[i], arg.c_str());
        return usage(prog);
      }
    } else if (arg.empty() || arg[0] == '-' || !token.empty()) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", prog,
                   arg.c_str());
      return usage(prog);
    } else {
      token = arg;
    }
  }
  if (!DNSTIME_OBS) {
    std::fprintf(stderr,
                 "%s: this build has DNSTIME_OBS=0; recording is compiled "
                 "out, so a replay would show nothing\n",
                 prog);
    return 2;
  }

  const campaign::ScenarioRegistry registry =
      campaign::ScenarioRegistry::builtin();
  if (list) {
    for (const campaign::ScenarioSpec& spec : registry.all()) {
      std::printf("%s\n", spec.name.c_str());
    }
    return 0;
  }
  if (token.empty() || (json && trace)) return usage(prog);
  const campaign::ScenarioSpec* spec = find_scenario(registry, token);
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "%s: unknown scenario '%s' (not a built-in name or FNV-1a "
                 "name hash); valid names:\n",
                 prog, token.c_str());
    for (const campaign::ScenarioSpec& s : registry.all()) {
      std::fprintf(stderr, "  %s\n", s.name.c_str());
    }
    return 2;
  }

  obs::FlightRecorder flight;
  obs::TraceRecorder recorder;
  const campaign::TrialResult result =
      campaign::execute_trial(*spec, campaign_seed, static_cast<u32>(trial),
                              flight, trace ? &recorder : nullptr);
  const std::string text =
      trace  ? recorder.to_json()
      : json ? campaign::narrative_json(flight, result)
             : render_text(flight, spec->name, campaign_seed, result);

  std::FILE* f =
      out_path.empty() ? stdout : std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open '%s' for writing: %s\n", prog,
                 out_path.c_str(), std::strerror(errno));
    return 1;
  }
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::fprintf(stderr, "%s: failed writing '%s'\n", prog,
                 out_path.empty() ? "stdout" : out_path.c_str());
    return 1;
  }
  return 0;
}
