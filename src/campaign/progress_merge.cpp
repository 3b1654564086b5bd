#include "campaign/progress_merge.h"

#include <cstdlib>
#include <cstring>

#include "common/stats.h"
#include "obs/json_util.h"

namespace dnstime::campaign {
namespace {

/// Finds `"key":` in a JSON line and parses the number after it. The
/// progress writers emit flat objects with unescaped keys, so a plain
/// substring probe is exact here.
bool find_number(const std::string& line, const char* key, double& out) {
  std::string probe = "\"";
  probe += key;
  probe += "\":";
  const std::size_t pos = line.find(probe);
  if (pos == std::string::npos) return false;
  const char* start = line.c_str() + pos + probe.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  out = v;
  return true;
}

bool find_u64(const std::string& line, const char* key, u64& out) {
  double v = 0.0;
  if (!find_number(line, key, v) || v < 0.0) return false;
  out = static_cast<u64>(v);
  return true;
}

/// Extracts the scenario name. Progress lines escape names via
/// obs::append_escaped, so stop at the first unescaped quote.
bool find_scenario(const std::string& line, std::string& out) {
  static const char probe[] = "\"scenario\":\"";
  const std::size_t pos = line.find(probe);
  if (pos == std::string::npos) return false;
  out.clear();
  for (std::size_t i = pos + sizeof(probe) - 1; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') return true;
    if (c == '\\' && i + 1 < line.size()) {
      out += line[++i];
      continue;
    }
    out += c;
  }
  return false;  // unterminated string
}

}  // namespace

std::string ProgressLine::encode() const {
  const Trial& t = trial;
  const Campaign& c = campaign;
  const WilsonInterval ci = wilson_interval(t.successes, t.done);
  std::string line;
  line.reserve(256);
  line += "{\"scenario\":\"";
  obs::append_escaped(line, t.scenario.c_str());
  line += "\",\"trial\":";
  line += std::to_string(t.trial);
  line += ",\"success\":";
  line += t.success ? "true" : "false";
  line += ",\"done\":";
  line += std::to_string(t.done);
  line += ",\"trials\":";
  line += std::to_string(t.trials);
  line += ",\"successes\":";
  line += std::to_string(t.successes);
  line += ",\"rate\":";
  obs::append_double(line, static_cast<double>(t.successes) /
                               static_cast<double>(t.done));
  line += ",\"wilson_low\":";
  obs::append_double(line, ci.low);
  line += ",\"wilson_high\":";
  obs::append_double(line, ci.high);
  line += ",\"campaign_done\":";
  line += std::to_string(c.done);
  line += ",\"campaign_total\":";
  line += std::to_string(c.total);
  line += ",\"elapsed_s\":";
  obs::append_double(line, c.elapsed_s);
  line += ",\"eta_s\":";
  obs::append_double(
      line, c.done == 0 ? 0.0
                        : c.elapsed_s * static_cast<double>(c.total - c.done) /
                              static_cast<double>(c.done));
  line += "}\n";
  return line;
}

void ProgressMerger::feed(std::size_t file_id, const char* data,
                          std::size_t len) {
  Stream& s = streams_[file_id];
  s.carry.append(data, len);
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = s.carry.find('\n', start);
    if (nl == std::string::npos) break;
    fold_line(file_id, s.carry.substr(start, nl - start));
    start = nl + 1;
  }
  s.carry.erase(0, start);
}

void ProgressMerger::fold_line(std::size_t file_id, const std::string& line) {
  if (line.empty()) return;
  lines_++;
  bool recognized = false;

  // Campaign-level facts ride on every line. campaign_done is a counter
  // all workers share, so the line with the largest value is the newest,
  // whichever stream it was read from. Its total, elapsed time and ETA are
  // taken with it, so the four always describe the same moment.
  u64 campaign_done = 0;
  if (find_u64(line, "campaign_done", campaign_done)) {
    if (campaign_done >= campaign_done_) {
      campaign_done_ = campaign_done;
      find_u64(line, "campaign_total", campaign_total_);
      find_number(line, "elapsed_s", elapsed_s_);
      find_number(line, "eta_s", eta_s_);
    }
    recognized = true;
  }

  std::string name;
  u64 done = 0;
  if (find_scenario(line, name) && find_u64(line, "done", done)) {
    auto [it, inserted] = index_.try_emplace(name, names_.size());
    if (inserted) {
      names_.push_back(name);
      trials_.push_back(0);
    }
    const std::size_t idx = it->second;
    u64 trials = 0;
    if (find_u64(line, "trials", trials) && trials > trials_[idx]) {
      trials_[idx] = trials;
    }
    Stream& s = streams_[file_id];
    if (s.cells.size() <= idx) s.cells.resize(idx + 1);
    // Counters are cumulative within a stream, so later lines supersede
    // earlier ones.
    s.cells[idx].done = done;
    find_u64(line, "successes", s.cells[idx].successes);
    recognized = true;
  }

  if (!recognized) bad_lines_++;
}

ProgressMerger::Snapshot ProgressMerger::snapshot() const {
  Snapshot snap;
  snap.campaign_done = campaign_done_;
  snap.campaign_total = campaign_total_;
  snap.elapsed_s = elapsed_s_;
  snap.eta_s = eta_s_;
  snap.lines = lines_;
  snap.bad_lines = bad_lines_;
  snap.rows.reserve(names_.size());
  for (std::size_t idx = 0; idx < names_.size(); ++idx) {
    MergedRow row;
    row.name = names_[idx];
    row.trials = trials_[idx];
    for (const auto& [id, stream] : streams_) {
      (void)id;
      if (stream.cells.size() <= idx) continue;
      row.done += stream.cells[idx].done;
      row.successes += stream.cells[idx].successes;
    }
    if (row.done > 0) {
      row.rate =
          static_cast<double>(row.successes) / static_cast<double>(row.done);
      const WilsonInterval ci = wilson_interval(
          static_cast<u32>(row.successes), static_cast<u32>(row.done));
      row.wilson_low = ci.low;
      row.wilson_high = ci.high;
    }
    snap.rows.push_back(std::move(row));
  }
  return snap;
}

}  // namespace dnstime::campaign
