// One simulated reception: a schedule replayed through a loss model into a
// decoding tracker (the Reality column of Fig. 3).

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "channel/loss_model.h"
#include "obs/obs.h"
#include "sim/tracker.h"
#include "util/stats.h"

namespace fecsched {

struct LossReport;

/// Outcome of one trial.
struct TrialResult {
  bool decoded = false;        ///< object recovered before schedule ended
  std::uint32_t n_needed = 0;  ///< packets received (duplicates included) when
                               ///< decoding completed; 0 if it never did
  std::uint32_t n_received = 0;  ///< packets received over the whole schedule
  std::uint32_t n_sent = 0;      ///< schedule length
  /// Peak decoder working memory in packet-sized symbols (see
  /// ErasureTracker::working_memory_symbols) — the paper's future-work
  /// "maximum memory requirements" metric.
  std::uint32_t peak_memory_symbols = 0;

  /// inefficiency ratio n_necessary_for_decoding / k (Sec. 4.1).
  [[nodiscard]] double inefficiency(std::uint32_t k) const noexcept {
    return static_cast<double>(n_needed) / static_cast<double>(k);
  }
  /// n_received / k — the ceiling any inefficiency can reach (Sec. 4.1).
  [[nodiscard]] double received_ratio(std::uint32_t k) const noexcept {
    return static_cast<double>(n_received) / static_cast<double>(k);
  }
};

/// The paper's decode statistic over a run of trials (Sec. 4.1): the
/// inefficiency ratio averaged over the trials that decoded, published
/// only when every trial decoded (the "-" cells of the appendix tables).
struct TrialStats {
  RunningStats inefficiency;    ///< over decoded trials only
  RunningStats received_ratio;  ///< n_received/k over all trials
  std::uint32_t failures = 0;   ///< trials that did not decode
  std::uint32_t trials = 0;
  /// Largest decoder working set seen by any trial, in packet-sized
  /// symbols (the paper's future-work memory metric).
  std::uint32_t peak_memory_symbols = 0;

  /// Fold in one trial of a k-source object.
  void add(const TrialResult& r, std::uint32_t k) noexcept {
    ++trials;
    peak_memory_symbols = std::max(peak_memory_symbols, r.peak_memory_symbols);
    received_ratio.add(r.received_ratio(k));
    if (r.decoded)
      inefficiency.add(r.inefficiency(k));
    else
      ++failures;
  }

  /// Paper rule: report a value only when every trial decoded.
  [[nodiscard]] bool reportable() const noexcept {
    return trials > 0 && failures == 0;
  }
};

/// Replay `schedule` through `channel` into `tracker`.
///
/// Every delivered packet counts towards n_received (duplicates too — they
/// consume channel capacity); the tracker decides which ones carry new
/// information.  The channel draws every scheduled packet, decoded or not,
/// so n_received reflects the full transmission (used by the paper's
/// n_received/k curves).
///
/// A trial runs in two passes: the channel pass draws each packet's fate
/// in transmission order and lists the arrivals; the tracker pass feeds
/// the arrivals in that order until the tracker completes.  Each trial
/// dispatches once to the concrete GilbertModel and RSE, LDGM or
/// replication tracker, so both passes call them directly; any other
/// loss model or tracker runs the same passes through the base class.
[[nodiscard]] TrialResult run_trial(ErasureTracker& tracker,
                                    std::span<const PacketId> schedule,
                                    LossModel& channel);

/// The same trial with observability through `hook`: identical channel
/// draws and tracker calls (bit-identical TrialResult), plus channel-draw
/// and decode phase timing (one call per draw and per packet fed;
/// obs::Hook::timed_pass), symbol-lifecycle trace events in slot order
/// (ids below `k` are sources), a release event per source and the grid.*
/// metrics.  Each overload instantiates one replay on its hook policy;
/// the dormant one compiles to the plain passes, so engines take this
/// overload only when the hook is engaged.
[[nodiscard]] TrialResult run_trial(ErasureTracker& tracker,
                                    std::span<const PacketId> schedule,
                                    LossModel& channel, std::uint32_t k,
                                    const obs::Hook& hook);

/// The adaptive engine's trial (sim/adaptive_compare): the same passes,
/// profiled through `hook` as above but with no trace events (the
/// engine's points carry no trial ordinals), and the adaptive.* metrics.
/// `report` receives the receiver's loss report over every sent packet
/// (LossReport::from_events).
[[nodiscard]] TrialResult run_trial(ErasureTracker& tracker,
                                    std::span<const PacketId> schedule,
                                    LossModel& channel, LossReport& report,
                                    const obs::Hook& hook);

}  // namespace fecsched
