// campaign_diff — significance-annotated regression detection between two
// campaigns: the regression gate every perf and scenario PR runs in CI.
//
// Usage: campaign_diff BASELINE CANDIDATE [--alpha A]
//                      [--fail-on-regression THRESH] [--json] [--out PATH]
//
//   BASELINE / CANDIDATE   a campaign report JSON file, or a trial-journal
//                          directory (read via store::read_report)
//   --alpha A              significance level for verdict annotation
//                          (default 0.05)
//   --fail-on-regression T exit 1 if any scenario vanished from the
//                          candidate or any metric moved with p < T
//   --json                 machine-readable diff instead of the table
//   --out PATH             write the diff to PATH instead of stdout
//
// Exit codes (the CI contract):
//   0  diff computed; no gate requested, or the gate passed
//   1  --fail-on-regression given and a regression was detected
//   2  usage error, unreadable input, or malformed report JSON
//
// Against a pinned baseline artifact, any statistically significant
// movement — including an "improvement" — means the committed baseline no
// longer describes the code, so the gate counts every significant delta.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/diff/diff.h"
#include "campaign/diff/report_reader.h"
#include "obs/json_util.h"

using namespace dnstime;

namespace {

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s BASELINE CANDIDATE [--alpha A]\n"
               "       [--fail-on-regression THRESH] [--json] [--out PATH]\n"
               "  BASELINE/CANDIDATE: report JSON file or journal "
               "directory\n",
               prog);
}

/// Strict probability parse: a full floating-point token in (0, 1].
/// Garbage, trailing junk, negatives and 0 are errors — the same
/// no-silent-zeros rule the campaign CLI enforces for integers.
bool parse_probability(const char* s, double& out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (errno == ERANGE || *end != '\0' || !std::isfinite(v)) return false;
  if (v <= 0.0 || v > 1.0) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> inputs;
  campaign::diff::DiffOptions options;
  bool gate = false;
  double gate_threshold = 0.05;
  bool json = false;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--alpha") == 0 ||
               std::strcmp(arg, "--fail-on-regression") == 0 ||
               std::strcmp(arg, "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: flag '%s' requires a value\n", argv[0],
                     arg);
        usage(argv[0]);
        return 2;
      }
      const char* value = argv[++i];
      if (std::strcmp(arg, "--out") == 0) {
        out_path = value;
      } else {
        double parsed = 0.0;
        if (!parse_probability(value, parsed)) {
          std::fprintf(stderr,
                       "%s: invalid value '%s' for flag '%s' "
                       "(want a probability in (0, 1])\n",
                       argv[0], value, arg);
          usage(argv[0]);
          return 2;
        }
        if (std::strcmp(arg, "--alpha") == 0) {
          options.alpha = parsed;
        } else {
          gate = true;
          gate_threshold = parsed;
        }
      }
    } else if (arg[0] == '-' && arg[1] != '\0') {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg);
      usage(argv[0]);
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.size() != 2) {
    std::fprintf(stderr, "%s: expected exactly two inputs, got %zu\n",
                 argv[0], inputs.size());
    usage(argv[0]);
    return 2;
  }

  campaign::CampaignReport baseline, candidate;
  try {
    baseline = campaign::diff::load_report(inputs[0]);
    candidate = campaign::diff::load_report(inputs[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }

  campaign::diff::DiffResult diff =
      campaign::diff::diff_campaigns(baseline, candidate, options);
  std::string text = json ? diff.to_json() + "\n" : diff.to_table();

  if (out_path.empty()) {
    if (std::fwrite(text.data(), 1, text.size(), stdout) != text.size()) {
      std::fprintf(stderr, "failed writing diff to stdout\n");
      return 2;
    }
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open '%s' for writing: %s\n",
                   out_path.c_str(), std::strerror(errno));
      return 2;
    }
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
      std::fprintf(stderr, "failed writing diff to '%s'\n", out_path.c_str());
      return 2;
    }
  }

  if (gate) {
    const u32 regressions = diff.regressions(gate_threshold);
    if (regressions > 0) {
      std::fprintf(stderr,
                   "campaign_diff: %u regression(s) at p < %s "
                   "(baseline %s, candidate %s)\n",
                   regressions,
                   obs::json_number(gate_threshold).c_str(), inputs[0],
                   inputs[1]);
      return 1;
    }
  }
  return 0;
}
