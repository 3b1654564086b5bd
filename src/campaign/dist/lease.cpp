#include "campaign/dist/lease.h"

#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace dnstime::campaign::dist {
namespace {

void append_u64(std::string& out, u64 v) {
  char buf[21];
  int n = std::snprintf(buf, sizeof buf, "%llu",
                        static_cast<unsigned long long>(v));
  out.append(buf, static_cast<std::size_t>(n));
}

/// Strict decimal parse of [*pos, next space or end). Rejects empty
/// fields, non-digits and overflow; advances *pos past the field and one
/// separating space (if present).
bool parse_field(const std::string& line, std::size_t* pos, u64* out) {
  std::size_t i = *pos;
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return false;
  u64 v = 0;
  for (; i < line.size() && line[i] != ' '; ++i) {
    if (line[i] < '0' || line[i] > '9') return false;
    u64 d = static_cast<u64>(line[i] - '0');
    if (v > (std::numeric_limits<u64>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  if (i < line.size()) {
    i++;  // skip one separating space...
    if (i == line.size()) return false;  // ...which must not end the line
  }
  *pos = i;
  *out = v;
  return true;
}

}  // namespace

std::string Msg::encode() const {
  std::string out;
  switch (kind) {
    case Kind::Lease:
      out = "LEASE ";
      append_u64(out, a);
      out += ' ';
      append_u64(out, b);
      out += ' ';
      append_u64(out, shard_id);
      break;
    case Kind::Trim:
      out = "TRIM ";
      append_u64(out, a);
      break;
    case Kind::Fin:
      out = "FIN";
      break;
    case Kind::Done:
      out = "DONE ";
      append_u64(out, a);
      out += ' ';
      append_u64(out, b);
      break;
  }
  out += '\n';
  return out;
}

std::optional<Msg> Msg::parse(const std::string& line) {
  Msg m;
  std::size_t pos = line.find(' ');
  const std::string verb = line.substr(0, pos);
  pos = (pos == std::string::npos) ? line.size() : pos + 1;
  if (verb == "FIN") {
    if (pos != line.size()) return std::nullopt;
    m.kind = Kind::Fin;
    return m;
  }
  if (verb == "LEASE") {
    u64 shard = 0;
    if (!parse_field(line, &pos, &m.a) || !parse_field(line, &pos, &m.b) ||
        !parse_field(line, &pos, &shard) || pos != line.size() ||
        shard > std::numeric_limits<u32>::max()) {
      return std::nullopt;
    }
    m.kind = Kind::Lease;
    m.shard_id = static_cast<u32>(shard);
    return m;
  }
  if (verb == "TRIM") {
    if (!parse_field(line, &pos, &m.a) || pos != line.size()) {
      return std::nullopt;
    }
    m.kind = Kind::Trim;
    return m;
  }
  if (verb == "DONE") {
    if (!parse_field(line, &pos, &m.a) || !parse_field(line, &pos, &m.b) ||
        pos != line.size() || m.b > 1) {
      return std::nullopt;
    }
    m.kind = Kind::Done;
    return m;
  }
  return std::nullopt;
}

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

LeaseBook::LeaseBook(std::vector<TrialRange> pending, u64 total_trials,
                     u32 num_workers, u32 first_shard_id)
    : workers_(num_workers),
      done_(total_trials, u8{0}),
      next_shard_id_(first_shard_id) {
  for (const TrialRange& r : pending) {
    if (r.begin >= r.end || r.end > total_trials) {
      throw std::runtime_error("invalid pending trial range");
    }
    target_ += r.size();
    pool_.push_back(r);
  }
}

std::optional<LeaseBook::Assignment> LeaseBook::next_assignment(u32 worker) {
  WorkerState& w = workers_.at(worker);
  assert(!w.busy);
  Assignment a;
  if (!pool_.empty()) {
    TrialRange r = pool_.front();
    pool_.pop_front();
    a.lease = Lease{r.begin, r.end, next_shard_id_++};
  } else {
    // Steal: split the largest outstanding remainder. The victim keeps the
    // first half (it is already executing there) and is TRIMmed; the thief
    // takes the second half into a fresh shard. Remainders of one trial
    // are left alone — splitting them buys nothing and TRIM-racing a
    // nearly-done victim would only duplicate its last trial.
    u64 best_remaining = 1;  // require >= 2 to steal
    std::size_t victim = workers_.size();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (i == worker || !workers_[i].busy) continue;
      const u64 remaining = workers_[i].lease.end - workers_[i].progress;
      if (remaining > best_remaining) {
        best_remaining = remaining;
        victim = i;
      }
    }
    if (victim == workers_.size()) return std::nullopt;
    WorkerState& v = workers_[victim];
    const u64 split = v.progress + (v.lease.end - v.progress + 1) / 2;
    a.lease = Lease{split, v.lease.end, next_shard_id_++};
    a.stolen = true;
    a.victim = static_cast<u32>(victim);
    a.victim_new_end = split;
    v.lease.end = split;
  }
  w.busy = true;
  w.lease = a.lease;
  w.progress = a.lease.begin;
  return a;
}

void LeaseBook::mark_done(u32 worker, u64 flat_index) {
  if (flat_index < done_.size() && done_[flat_index] == 0) {
    done_[flat_index] = 1;
    done_count_++;
  }
  WorkerState& w = workers_.at(worker);
  if (w.busy && flat_index >= w.lease.begin && flat_index < w.lease.end &&
      flat_index >= w.progress) {
    w.progress = flat_index + 1;
    if (w.progress == w.lease.end) w.busy = false;
  }
}

void LeaseBook::worker_dead(u32 worker) {
  WorkerState& w = workers_.at(worker);
  if (w.busy && w.progress < w.lease.end) {
    // Reissue the unacked tail. Trials the dead worker journaled but never
    // acked get re-executed by whoever picks this up; the journal merge
    // dedupes the overlap, so correctness only needs coverage, not
    // precision.
    pool_.push_back({w.progress, w.lease.end});
  }
  w.busy = false;
}

bool LeaseBook::worker_busy(u32 worker) const {
  return workers_.at(worker).busy;
}

const Lease& LeaseBook::active_lease(u32 worker) const {
  return workers_.at(worker).lease;
}

}  // namespace dnstime::campaign::dist
