// One simulated multipath streaming reception (src/mpath/): the
// stream/transmission workload — a paced source stream protected by
// sliding-window, replication, blocked-RSE or LDGM FEC — with the packet
// sequence spread over K paths by a PathScheduler, each path applying its
// own loss process, propagation delay and capacity (mpath/path).
//
// The sender produces exactly one packet per global slot, taking its
// emissions from the transmission core's emission plan (StreamCode::walk)
// — the one the single-path and net trials run.  The scheduler maps each
// emission to a path; the path assigns departure (FIFO + capacity) and
// arrival (+ propagation delay) times; the arrivals and the deadlines
// below are then replayed through a Resequencer in time order —
// cross-path reordering included — into the core's StreamReceiver.  The
// driver resolves every emission before replaying any, because each
// deadline needs the resolve times of packets sent after it.
//
// Loss declaration is deadline-driven: a source (or block) is declared
// unrecoverable one step after every packet that could still recover it
// has resolved — where a packet's resolve time is its (would-be) arrival
// time whether or not the channel erased it, i.e. the receiver times out
// on the latest possible useful arrival.  For the paced schemes the
// deadline additionally waits for the plan's window-slide line (the
// emission after which the plan gives the source up), matching the
// single-path trial's give-up slot exactly; and because in-order give-up
// is a prefix operation, each source's effective deadline is the running
// prefix max over all sources at or below it (under reordering a later
// source can time out earlier — its declaration waits so no
// still-coverable predecessor is discarded).
//
// Resequencer runs: the driver pushes each delivered packet's arrival
// into its path's run as the path transmits it, and every deadline into
// one more run.  A path is a FIFO link — departures strictly increase
// with the production slot and the propagation delay is constant — so
// its arrivals come in time order, with emission order breaking equal
// times.  The paced deadlines are running prefix maxima pushed by
// source, so they never decrease, and LDGM pushes one.  Only the RSE
// block deadlines (a block ends with its latest arrival, and under
// interleaving or reordering a later block can end first) may come out
// of order; Resequencer::drain sorts that run, about one event per
// block, and merges the rest as they are.
//
// Degenerate-config oracle: a 1-path PathSet with zero delay and unit
// capacity reproduces run_stream_trial *bit-identically* — same channel
// substream (mpath/path seeding), same emission slots, same
// decode/give-up call sequence, same DelayTracker timestamps.  The
// regression test in tests/mpath_test.cc pins this.

#pragma once

#include <cstdint>
#include <vector>

#include "adapt/channel_estimator.h"
#include "mpath/path.h"
#include "mpath/resequencer.h"
#include "mpath/scheduler.h"
#include "stream/stream_trial.h"

namespace fecsched {

namespace detail {
/// Per-emission transport outcome.  Exposed only so MpathTrialWorkspace
/// can own the buffers; the fields are an implementation detail of
/// mpath_trial.cc.
struct MpathTransport {
  std::vector<double> resolve;    ///< (would-be) arrival time, by emission
  std::vector<std::vector<bool>> path_events;  ///< loss trace per path
};
}  // namespace detail

/// Everything that defines one multipath streaming trial.
struct MpathTrialConfig {
  /// The FEC workload (scheme, scheduling, source_count, overhead, window,
  /// block_k, ...).  StreamScheduling::kCarousel is rejected: a carousel
  /// needs completion feedback no multipath sender has in this model.
  StreamTrialConfig stream;
  std::vector<PathSpec> paths;  ///< at least one
  PathScheduling scheduler = PathScheduling::kRoundRobin;
  /// Repair-packet path bias for PathScheduling::kWeighted (empty = path
  /// capacities) — the knob PathAdapter::allocate_overhead drives.
  std::vector<double> repair_weights;

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;
};

/// Outcome of one multipath trial.
struct MpathTrialResult {
  /// Delay / residual-loss metrics, identical semantics to the single-path
  /// trial (delays measured from production slot to in-order release).
  StreamTrialResult stream;
  std::vector<PathStats> paths;  ///< per-path counters
  /// Per-path compressed loss statistics in path-transmission order — the
  /// feedback PathAdapter's per-path ChannelEstimators consume.
  std::vector<LossReport> path_reports;
  /// Delivered packets that arrived after a later-emitted packet had
  /// already arrived (cross-path reordering experienced by the receiver).
  std::uint64_t reordered = 0;
  double reordered_fraction = 0.0;  ///< reordered / packets_received
};

/// Reusable per-trial state for run_mpath_trial (see StreamTrialWorkspace
/// for the contract: fully re-initialised per trial, reuse only saves
/// allocations).  The embedded stream workspace carries the code and the
/// receiver of the transmission core.
struct MpathTrialWorkspace {
  StreamTrialWorkspace stream;
  std::vector<Emission> emissions;
  std::vector<std::size_t> slid_after;  ///< paced: by source, see .cc
  detail::MpathTransport transport;
  std::vector<double> deadline;
  Resequencer queue;  ///< one run per path, then one of deadlines
};

/// Run one multipath trial.  All randomness (path channels, schedules,
/// LDGM graph, repair coefficients) derives from `seed`; path schedulers
/// are deterministic, so the trial is reproducible.
[[nodiscard]] MpathTrialResult run_mpath_trial(const MpathTrialConfig& cfg,
                                               std::uint64_t seed);

/// Workspace-reusing variant (identical output, fewer allocations).
[[nodiscard]] MpathTrialResult run_mpath_trial(const MpathTrialConfig& cfg,
                                               std::uint64_t seed,
                                               MpathTrialWorkspace& ws);

}  // namespace fecsched
