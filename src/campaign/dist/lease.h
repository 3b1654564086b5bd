// Lease protocol and work-stealing state machine for the distributed
// campaign coordinator (campaign/dist/coordinator.h).
//
// A campaign's work is its flattened trial range [0, scenarios * trials):
// per-trial seeds are pure functions of (campaign seed, scenario name,
// trial index), so any process may execute any trial and the journal merge
// reassembles global order. The coordinator owns a LeaseBook and hands out
// half-open ranges ("leases") to worker processes over a line protocol:
//
//   coordinator -> worker:
//     LEASE <begin> <end> <shard_id>\n   execute trials [begin, end),
//                                        journal them into shard <shard_id>
//     TRIM <new_end>\n                   shrink the active lease: stop
//                                        before flat index >= new_end
//     FIN\n                              no more work; exit 0
//   worker -> coordinator:
//     DONE <flat_index> <success>\n      one trial finished and its journal
//                                        frame is flushed
//
// TRIM is advisory and racy by design: the victim may have journaled trials
// past the new end before the message arrives. That overlap is harmless —
// the thief re-executes the same deterministic trials into its own shard
// and JournalMerge's cross-shard dedupe keeps exactly one copy.
//
// LeaseBook is a pure state machine (no I/O, no clocks) so the stealing,
// reissue and dedupe logic is unit-testable without processes.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "campaign/store/journal_reader.h"
#include "common/types.h"

namespace dnstime::campaign::dist {

using store::TrialRange;

/// One unit of handed-out work. Every lease gets a fresh shard id so each
/// (worker, lease) writes one shard with strictly ascending trial keys —
/// the ordering contract JournalMerge enforces per shard.
struct Lease {
  u64 begin = 0;
  u64 end = 0;  ///< exclusive; may shrink via TRIM after a steal
  u32 shard_id = 0;
  bool operator==(const Lease&) const = default;
};

/// Protocol codec: one message per line, space-separated decimal fields.
/// Parsers are strict (unknown verb, missing/overflowing/junk-trailing
/// fields all fail) because a desynchronised pipe must kill the run, not
/// corrupt the work accounting.
struct Msg {
  enum class Kind { Lease, Trim, Fin, Done };
  Kind kind = Kind::Fin;
  u64 a = 0;  ///< LEASE begin / TRIM new_end / DONE flat_index
  u64 b = 0;  ///< LEASE end / DONE success (0|1)
  u32 shard_id = 0;  ///< LEASE only

  [[nodiscard]] std::string encode() const;  ///< includes trailing '\n'
  /// Parses one line WITHOUT its trailing '\n'. nullopt on any malformation.
  [[nodiscard]] static std::optional<Msg> parse(const std::string& line);
};

/// Writes all of `data` to pipe `fd`, retrying short writes and EINTR.
/// False on any other write error (e.g. EPIPE once the peer is gone).
[[nodiscard]] bool write_all(int fd, const std::string& data);

/// Tracks outstanding leases, per-worker progress, and the global done set.
/// All mutation is driven by the coordinator's event loop; time never
/// appears here, so identical event sequences yield identical decisions.
class LeaseBook {
 public:
  /// `pending` is the not-yet-journaled work (store::pending_ranges), and
  /// `first_shard_id` the lowest shard id no existing file uses.
  LeaseBook(std::vector<TrialRange> pending, u64 total_trials,
            u32 num_workers, u32 first_shard_id);

  struct Assignment {
    Lease lease;
    bool stolen = false;
    u32 victim = 0;          ///< valid when stolen: worker to TRIM
    u64 victim_new_end = 0;  ///< valid when stolen: TRIM argument
  };

  /// Next lease for an idle worker: the front pool range if any, else half
  /// of the largest outstanding remainder (steal), else nullopt (park the
  /// worker — a later death may still produce work for it).
  [[nodiscard]] std::optional<Assignment> next_assignment(u32 worker);

  /// Records one DONE. Duplicate indices (reissued-lease overlap) are
  /// counted once. Advances the worker's progress watermark when the index
  /// belongs to its active lease.
  void mark_done(u32 worker, u64 flat_index);

  /// Returns the not-yet-done tail of the worker's active lease to the
  /// pool and clears the lease. Call on worker death; parked workers can
  /// then pick the remainder up via next_assignment.
  void worker_dead(u32 worker);

  /// True once every trial in every pending range is done.
  [[nodiscard]] bool all_done() const { return done_count_ == target_; }

  [[nodiscard]] u64 done_count() const { return done_count_; }
  [[nodiscard]] u64 target() const { return target_; }
  [[nodiscard]] bool worker_busy(u32 worker) const;
  /// The worker's active lease (begin frozen at assignment; end reflects
  /// TRIMs the book issued against it).
  [[nodiscard]] const Lease& active_lease(u32 worker) const;
  [[nodiscard]] u32 shard_ids_issued() const { return next_shard_id_; }

 private:
  struct WorkerState {
    bool busy = false;
    Lease lease;
    u64 progress = 0;  ///< next index the worker has NOT acked
  };

  std::deque<TrialRange> pool_;
  std::vector<WorkerState> workers_;
  std::vector<u8> done_;  ///< by flat index; dedupes reissued overlap
  u64 done_count_ = 0;
  u64 target_ = 0;  ///< trials needing execution (resume skips journaled)
  u32 next_shard_id_ = 0;
};

}  // namespace dnstime::campaign::dist
