#include "stream/stream_trial.h"

#include "obs/obs.h"
#include "util/rng.h"

namespace fecsched {

namespace {

/// The single-path link: one draw of the trial's channel per slot.
class ChannelLink {
 public:
  ChannelLink(LossModel& channel, const obs::Hook& hook)
      : channel_(channel), hook_(hook) {}

  Arrival transmit(const Emission& e, std::uint64_t /*slot*/) {
    const bool delivered = hook_.timed(obs::Phase::kChannelDraw,
                                       [&] { return !channel_.lost(); });
    return {delivered ? &e : nullptr, {}, true};
  }
  void step() {}

 private:
  LossModel& channel_;
  const obs::Hook& hook_;
};

}  // namespace

StreamTrialResult run_stream_trial(const StreamTrialConfig& cfg,
                                   LossModel& channel, std::uint64_t seed,
                                   StreamTrialWorkspace& ws) {
  cfg.validate();
  const obs::Hook hook;
  hook.timed(obs::Phase::kEncode, [&] { ws.code.build(cfg, seed); });
  if (!ws.code.paced())
    hook.timed(obs::Phase::kSchedule, [&] { ws.code.schedule(); });
  ws.receiver.reset(ws.code, hook);

  channel.reset(derive_seed(seed, {0}));
  ChannelLink link(channel, hook);
  StreamTrialResult result = run_slots(ws.code, ws.receiver, link, hook);
  count_stream_metrics(hook, "stream", result, cfg.source_count);
  return result;
}

StreamTrialResult run_stream_trial(const StreamTrialConfig& cfg,
                                   LossModel& channel, std::uint64_t seed) {
  StreamTrialWorkspace ws;
  return run_stream_trial(cfg, channel, seed, ws);
}

}  // namespace fecsched
