#include "sim/trial.h"

#include <algorithm>
#include <vector>

#include "adapt/channel_estimator.h"
#include "channel/gilbert.h"

namespace fecsched {

namespace {

/// The schedule slot of every packet the channel pass let through, in
/// transmission order; reused by every trial on this thread.  uint32
/// stores cannot alias the generator state the next draw reads, which a
/// byte-per-packet fate array would.
thread_local std::vector<std::uint32_t> t_arrived;

/// Hook policy of the plain trial: each pass is a plain loop.
struct Dormant {
  template <typename Body>
  std::uint64_t pass(obs::Phase, std::uint64_t max, Body&& body) const {
    std::uint64_t i = 0;
    while (i < max && body(i++)) {
    }
    return i;
  }
  void finish(const TrialResult&, std::span<const PacketId>,
              std::span<const std::uint32_t>) const {}
};

/// Hook policy of the observed trial: each pass is profiled whole
/// (obs::Hook::timed_pass), and once both passes are done the trace
/// events, per-source releases and grid.* metrics are written from the
/// arrival list.
class Observed {
 public:
  Observed(std::uint32_t k, const obs::Hook& hook) : k_(k), hook_(hook) {}

  template <typename Body>
  std::uint64_t pass(obs::Phase phase, std::uint64_t max, Body&& body) const {
    return hook_.timed_pass(phase, max, body);
  }

  void finish(const TrialResult& r, std::span<const PacketId> schedule,
              std::span<const std::uint32_t> arrived) const {
    // Each source is released at the end of the schedule: received
    // directly, or recovered because the whole object decoded.  Partial
    // (undecoded) LDGM recovery is not credited — the grid engine's
    // completion rule is all-or-nothing.  A decoded object releases every
    // source, so only an undecoded one needs the per-source fates.
    std::vector<char> got;
    if (!r.decoded) {
      got.assign(k_ + 1, 0);  // got[k_] absorbs every repair id
      for (const std::uint32_t slot : arrived)
        got[std::min(schedule[slot], k_)] = 1;
      got.pop_back();
    }
    if (hook_.tracing()) {
      trace_slots(r, schedule, arrived);
      const auto end_slot = static_cast<double>(schedule.size());
      for (std::uint32_t s = 0; s < k_; ++s)
        hook_.released(end_slot, s, r.decoded || got[s] != 0, 0.0);
    }
    // Residual loss runs over the sources in object order, counted
    // without branching on each source's fate.
    std::uint64_t residual_lost = 0;
    std::uint64_t residual_runs = 0;
    std::uint64_t max_run = 0;
    std::uint64_t run = 0;
    for (const char ok : got) {
      const std::uint64_t lost = ok == 0;
      residual_lost += lost;
      residual_runs += lost & (run == 0);  // a run starts here
      run = (run + 1) & (0 - lost);
      max_run = std::max(max_run, run);
    }

    hook_.count("grid.trials");
    hook_.count("grid.packets_sent", r.n_sent);
    hook_.count("grid.packets_received", r.n_received);
    if (r.decoded) hook_.count("grid.trials_decoded");
    hook_.count("grid.released", k_);
    hook_.count("grid.residual_lost", residual_lost);
    hook_.count("grid.residual_runs", residual_runs);
    hook_.gauge_max("grid.residual_max_run", max_run);
  }

 private:
  /// Symbol-lifecycle events in slot order: sent, then lost or received,
  /// then decoded at the arrival that completed the object.
  void trace_slots(const TrialResult& r, std::span<const PacketId> schedule,
                   std::span<const std::uint32_t> arrived) const {
    std::size_t next = 0;
    for (std::uint32_t i = 0; i < schedule.size(); ++i) {
      const auto slot = static_cast<double>(i);
      const PacketId id = schedule[i];
      const bool repair = id >= k_;
      hook_.sent(slot, id, repair);
      if (next < arrived.size() && arrived[next] == i) {
        hook_.received(slot, id, repair);
        if (++next == r.n_needed && r.decoded) hook_.decoded(slot, id);
      } else {
        hook_.lost(slot, id, repair);
      }
    }
  }

  std::uint32_t k_;
  const obs::Hook& hook_;
};

/// Hook policy of the adaptive engine's trial: each pass is profiled
/// whole, as in Observed; the arrival list becomes the loss report and
/// the adaptive.* metrics.
class Reported {
 public:
  Reported(LossReport& report, const obs::Hook& hook)
      : report_(report), hook_(hook) {}

  template <typename Body>
  std::uint64_t pass(obs::Phase phase, std::uint64_t max, Body&& body) const {
    return hook_.timed_pass(phase, max, body);
  }

  void finish(const TrialResult& r, std::span<const PacketId>,
              std::span<const std::uint32_t> arrived) const {
    std::vector<bool> lost(r.n_sent, true);
    for (const std::uint32_t slot : arrived) lost[slot] = false;
    report_ = LossReport::from_events(lost);
    hook_.count("adaptive.trials");
    hook_.count("adaptive.packets_sent", r.n_sent);
    hook_.count("adaptive.packets_received", r.n_received);
    if (r.decoded) hook_.count("adaptive.trials_decoded");
  }

 private:
  LossReport& report_;
  const obs::Hook& hook_;
};

/// One trial in two passes.  The channel pass draws every scheduled
/// packet's fate in transmission order, decoded or not (n_received counts
/// the whole schedule).  The tracker pass feeds the arrivals, duplicates
/// included, until the tracker completes: n_needed is the number fed.
template <typename Tracker, typename Channel, typename Hooks>
TrialResult replay(Tracker& tracker, std::span<const PacketId> schedule,
                   Channel& channel, const Hooks& hooks) {
  TrialResult r;
  r.n_sent = static_cast<std::uint32_t>(schedule.size());
  t_arrived.resize(schedule.size());
  std::uint32_t* const arrived = t_arrived.data();
  std::uint32_t m = 0;
  hooks.pass(obs::Phase::kChannelDraw, r.n_sent, [&](std::uint64_t i) {
    arrived[m] = static_cast<std::uint32_t>(i);
    m += !channel.lost();
    return true;
  });
  r.n_received = m;

  std::uint32_t peak = tracker.working_memory_symbols();
  const std::uint64_t fed =
      hooks.pass(obs::Phase::kDecode, m, [&](std::uint64_t j) {
        tracker.on_packet(schedule[arrived[j]]);
        peak = std::max(peak, tracker.working_memory_symbols());
        return !tracker.complete();
      });
  r.peak_memory_symbols = peak;
  r.decoded = fed != 0 && tracker.complete();
  if (r.decoded) r.n_needed = static_cast<std::uint32_t>(fed);
  hooks.finish(r, schedule, {arrived, m});
  return r;
}

/// Dispatch once per trial to the concrete (final) tracker type, so the
/// tracker pass calls on_packet directly; other trackers run the same
/// template through the base class.
template <typename Channel, typename Hooks>
TrialResult on_tracker(ErasureTracker& tracker,
                       std::span<const PacketId> schedule, Channel& channel,
                       const Hooks& hooks) {
  if (auto* t = dynamic_cast<RseTracker*>(&tracker))
    return replay(*t, schedule, channel, hooks);
  if (auto* t = dynamic_cast<LdgmTracker*>(&tracker))
    return replay(*t, schedule, channel, hooks);
  if (auto* t = dynamic_cast<ReplicationTracker*>(&tracker))
    return replay(*t, schedule, channel, hooks);
  return replay(tracker, schedule, channel, hooks);
}

/// The same for the channel: the Gilbert draw inlines into the channel
/// pass; every other loss model is called through LossModel.
template <typename Hooks>
TrialResult dispatch(ErasureTracker& tracker, std::span<const PacketId> schedule,
                     LossModel& channel, const Hooks& hooks) {
  if (auto* g = dynamic_cast<GilbertModel*>(&channel))
    return on_tracker(tracker, schedule, *g, hooks);
  return on_tracker(tracker, schedule, channel, hooks);
}

}  // namespace

TrialResult run_trial(ErasureTracker& tracker,
                      std::span<const PacketId> schedule, LossModel& channel) {
  return dispatch(tracker, schedule, channel, Dormant{});
}

TrialResult run_trial(ErasureTracker& tracker,
                      std::span<const PacketId> schedule, LossModel& channel,
                      std::uint32_t k, const obs::Hook& hook) {
  return dispatch(tracker, schedule, channel, Observed(k, hook));
}

TrialResult run_trial(ErasureTracker& tracker,
                      std::span<const PacketId> schedule, LossModel& channel,
                      LossReport& report, const obs::Hook& hook) {
  return dispatch(tracker, schedule, channel, Reported(report, hook));
}

}  // namespace fecsched
