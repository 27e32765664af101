// Reference grid trial loop for differential tests.
//
// The fused single-pass replay: each scheduled packet takes one virtual
// LossModel::lost() draw and, while the object is still undecoded, one
// virtual ErasureTracker::on_packet() call, with the observability hooks
// interleaved per packet.  run_trial (sim/trial.h) must agree with it on
// every TrialResult field, every trace event, every metric and every
// phase call count.  Kept as the engine loop was written, hook policies
// included; do not optimise it.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "channel/loss_model.h"
#include "obs/obs.h"
#include "sim/tracker.h"
#include "sim/trial.h"

namespace fecsched::reference {

namespace detail {

/// Hook policy of the plain loop: every hook compiles away.
struct Dormant {
  template <typename Draw>
  bool arrives(double, PacketId, Draw&& lost) const {
    return !lost();
  }
  template <typename Decode>
  void decode(Decode&& f) const {
    f();
  }
  void decoded(double, PacketId) const {}
  void finish(const TrialResult&, double) const {}
};

/// Hook policy of the observed loop: trace events, phase timing, and per
/// source delivery fates for the release events and grid.* metrics.
class Observed {
 public:
  Observed(std::uint32_t k, const obs::Hook& hook)
      : k_(k), hook_(hook), got_(k, 0) {}

  template <typename Draw>
  bool arrives(double slot, PacketId id, Draw&& lost) {
    const bool repair = id >= k_;
    hook_.sent(slot, id, repair);
    if (hook_.timed(obs::Phase::kChannelDraw, lost)) {
      hook_.lost(slot, id, repair);
      return false;
    }
    hook_.received(slot, id, repair);
    if (!repair) got_[id] = 1;
    return true;
  }
  template <typename Decode>
  void decode(Decode&& f) const {
    hook_.timed(obs::Phase::kDecode, f);
  }
  void decoded(double slot, PacketId id) const { hook_.decoded(slot, id); }

  /// Each source is released at the end of the schedule: received
  /// directly, or recovered because the whole object decoded.  Partial
  /// (undecoded) LDGM recovery is not credited — the grid engine's
  /// completion rule is all-or-nothing.
  void finish(const TrialResult& r, double end_slot) const {
    std::uint64_t residual_lost = 0;
    std::uint64_t residual_runs = 0;
    std::uint64_t max_run = 0;
    std::uint64_t run = 0;
    for (std::uint32_t s = 0; s < k_; ++s) {
      const bool ok = r.decoded || got_[s] != 0;
      hook_.released(end_slot, s, ok, 0.0);
      if (!ok) {
        ++residual_lost;
        max_run = std::max(max_run, ++run);
      } else if (run > 0) {
        ++residual_runs;
        run = 0;
      }
    }
    if (run > 0) ++residual_runs;

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
  std::uint32_t k_;
  const obs::Hook& hook_;
  std::vector<char> got_;
};

template <typename Hooks>
TrialResult replay(ErasureTracker& tracker, std::span<const PacketId> schedule,
                   LossModel& channel, Hooks& hooks) {
  TrialResult r;
  r.n_sent = static_cast<std::uint32_t>(schedule.size());
  r.peak_memory_symbols = tracker.working_memory_symbols();
  for (const PacketId& id : schedule) {
    const auto slot = static_cast<double>(&id - schedule.data());
    if (!hooks.arrives(slot, id, [&] { return channel.lost(); })) continue;
    ++r.n_received;
    if (r.decoded) continue;  // drain remaining losses for n_received only
    hooks.decode([&] { tracker.on_packet(id); });
    r.peak_memory_symbols =
        std::max(r.peak_memory_symbols, tracker.working_memory_symbols());
    if (tracker.complete()) {
      r.decoded = true;
      r.n_needed = r.n_received;
      hooks.decoded(slot, id);
    }
  }
  hooks.finish(r, static_cast<double>(schedule.size()));
  return r;
}

}  // namespace detail

inline TrialResult run_trial(ErasureTracker& tracker,
                             std::span<const PacketId> schedule,
                             LossModel& channel) {
  detail::Dormant hooks;
  return detail::replay(tracker, schedule, channel, hooks);
}

inline TrialResult run_trial(ErasureTracker& tracker,
                             std::span<const PacketId> schedule,
                             LossModel& channel, std::uint32_t k,
                             const obs::Hook& hook) {
  detail::Observed hooks(k, hook);
  return detail::replay(tracker, schedule, channel, hooks);
}

}  // namespace fecsched::reference
