// One simulated streaming reception: a paced source stream protected by a
// FEC scheme, replayed through a channel/ loss model into a delay tracker.
//
// This is the delay-axis counterpart of sim/trial: instead of "how many
// packets until the object decodes", it answers "how long until each
// source packet can be released in order" (stream/delay_tracker) under
// the four protection schemes of stream/transmission.  The trial is the
// transmission core's slot loop over a single channel: the channel
// transmits exactly one packet per slot, and all delays are measured in
// slots from the source's own transmission slot.

#pragma once

#include <cstdint>

#include "channel/loss_model.h"
#include "stream/transmission.h"

namespace fecsched {

/// Reusable per-trial state for run_stream_trial: the code, the receiver
/// (decoders and delay tracker) and their sizeable per-trial vectors.
/// Sweeps keep one workspace per worker thread so the inner trial loop
/// stops allocating; every member is fully re-initialised at the start of
/// each trial, so reuse never changes a result bit (the threads=1-vs-N
/// grid tests pin this).
struct StreamTrialWorkspace {
  StreamCode code;
  StreamReceiver receiver;
};

/// Run one streaming trial.  The channel is reset from `seed`; all other
/// randomness (schedules, LDGM graph, repair coefficients) derives from
/// `seed` too, so the trial is reproducible.
[[nodiscard]] StreamTrialResult run_stream_trial(const StreamTrialConfig& cfg,
                                                 LossModel& channel,
                                                 std::uint64_t seed);

/// Workspace-reusing variant (identical output, fewer allocations).
[[nodiscard]] StreamTrialResult run_stream_trial(const StreamTrialConfig& cfg,
                                                 LossModel& channel,
                                                 std::uint64_t seed,
                                                 StreamTrialWorkspace& ws);

}  // namespace fecsched
