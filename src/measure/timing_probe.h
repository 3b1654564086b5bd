// §VIII-B3 / Fig. 7: the timing side-channel cache test and why it fails.
//
// For each resolver, measure t_first (latency of the first query for
// pool.ntp.org IN NS) and t_avg (average latency of subsequent queries,
// which hit the cache); a cached record should give t_first ~ t_avg while
// a cache miss pays the extra resolver->nameserver round trip. Across a
// population with heterogeneous RTTs and jitter, the distribution of
// t_first - t_avg shows no clean threshold T — the paper's negative
// result, which we reproduce.
#pragma once

#include "common/histogram.h"
#include "measure/populations.h"

namespace dnstime::measure {

/// About 58% of the probed resolvers have the pool NS record cached; each
/// gets a first query and 4 follow-ups (Fig. 7).
struct TimingProbeConfig {
  std::size_t resolvers = 3000;
};

struct TimingProbeResult {
  std::size_t probed = 0;
  std::size_t cached_truth = 0;
  /// Fig. 7: distribution of t_first - t_avg in milliseconds, clamped to
  /// [-50, 200] as in the paper's plot.
  Histogram deltas{-50, 200, 50};
  std::vector<double> deltas_cached;     ///< ground-truth cached
  std::vector<double> deltas_noncached;  ///< ground-truth not cached

  /// Best achievable classification accuracy over all thresholds T for
  /// "cached iff t_first - t_avg < T" — the separability the paper found
  /// lacking ("no way to reasonably choose a value for T").
  [[nodiscard]] double best_threshold_accuracy() const;
};

[[nodiscard]] TimingProbeResult run_timing_probe(
    const TimingProbeConfig& config);

}  // namespace dnstime::measure
