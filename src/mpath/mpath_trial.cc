#include "mpath/mpath_trial.h"

#include <algorithm>
#include <stdexcept>

#include "fec/block_partition.h"
#include "mpath/resequencer.h"
#include "obs/obs.h"

namespace fecsched {

void MpathTrialConfig::validate() const {
  stream.validate();
  if (stream.scheduling == StreamScheduling::kCarousel)
    throw std::invalid_argument(
        "MpathTrialConfig: kCarousel needs completion feedback no multipath "
        "sender has in this model");
  if (paths.empty())
    throw std::invalid_argument("MpathTrialConfig: at least one path");
  for (const PathSpec& p : paths) p.validate();
  if (!repair_weights.empty() && repair_weights.size() != paths.size())
    throw std::invalid_argument(
        "MpathTrialConfig: repair_weights must have one entry per path");
}

namespace {

/// Event discriminators for the Resequencer replay.
constexpr std::uint32_t kArrival = 0;
constexpr std::uint32_t kDeadline = 1;

using Transport = detail::MpathTransport;

/// Records the emission plan: every emission, and for every source the
/// last emission before the plan's line that gives it up (the paced
/// window-slide witness).
struct PlanRecorder {
  std::vector<Emission>& emissions;
  std::vector<std::size_t>& slid_after;
  std::uint64_t given_up = 0;

  void emit(const Emission& e, std::uint64_t /*slot*/) {
    emissions.push_back(e);
  }
  void give_up(std::uint64_t horizon, std::uint64_t /*slot*/) {
    for (; given_up < horizon; ++given_up)
      slid_after[given_up] = emissions.size() - 1;
  }
  void release_block(std::uint32_t /*b*/, std::uint64_t /*slot*/) {}
  void step() {}
  [[nodiscard]] bool done() const { return false; }
  void flush(std::uint64_t slot) { give_up(slid_after.size(), slot); }
};

/// Dispatch every emission through the scheduler and the paths, filling
/// the workspace transport buffers in place and pushing each delivered
/// packet's arrival into its path's run of `queue` (run contract: see the
/// header).
void transmit_all(const std::vector<Emission>& emissions, PathSet& paths,
                  PathScheduler& scheduler, std::uint32_t arrival_phase,
                  Transport& t, Resequencer& queue, const obs::Hook& hook) {
  t.resolve.assign(emissions.size(), 0.0);
  for (auto& events : t.path_events) events.clear();
  t.path_events.resize(paths.size());
  for (std::size_t e = 0; e < emissions.size(); ++e) {
    const double slot = static_cast<double>(e);
    const bool repair = emissions[e].repair;
    const std::size_t path = hook.timed(obs::Phase::kSchedule, [&] {
      return scheduler.pick(paths, slot, repair);
    });
    const Transmission tx = hook.timed(obs::Phase::kChannelDraw, [&] {
      return paths.transmit(path, slot);
    });
    t.resolve[e] = tx.arrival;
    if (!tx.lost) queue.push(path, tx.arrival, arrival_phase, e, kArrival, e);
    t.path_events[path].push_back(tx.lost);
    if (hook.tracing()) {
      const std::uint64_t id = emissions[e].id;
      const auto path_id = static_cast<std::int32_t>(path);
      hook.sent(slot, id, repair, path_id);
      if (tx.lost)
        hook.lost(tx.arrival, id, repair, path_id);
      else
        hook.received(tx.arrival, id, repair, path_id);
    }
  }
}

/// Queue one deadline event per source (paced) or block (RSE), or one for
/// the whole stream (LDGM), into run `run`.
void push_deadlines(const StreamCode& code,
                    const std::vector<Emission>& emissions,
                    const std::vector<std::size_t>& slid_after,
                    const Transport& transport, std::vector<double>& deadline,
                    Resequencer& queue, std::size_t run) {
  const std::uint32_t S = code.config().source_count;
  const std::vector<double>& resolve = transport.resolve;
  if (code.paced()) {
    // Deadline of source s: one step past the latest (would-be) arrival
    // of anything that can still matter for it — the source itself, every
    // repair whose window covers it, and the last emission before the
    // plan's line that gives it up.  The witness term makes the 1-path
    // degenerate case give up in exactly the single-path trial's slot.
    //
    // Paced windows never move back, so the repairs covering s are a run
    // of the repair sequence whose ends only move forward as s grows.
    // `covering` holds that run's candidates for the latest arrival:
    // emission indices from `head` on, in emission order, with strictly
    // decreasing arrivals, so its front is the run's maximum.
    const std::vector<std::uint64_t>& send = code.send_slots();
    deadline.resize(S);
    std::vector<std::size_t> covering;
    std::size_t head = 0;
    std::size_t next = 0;
    std::uint64_t first = 0, last = 0;
    for (std::uint32_t s = 0; s < S; ++s) {
      for (; next < emissions.size(); ++next) {
        const Emission& r = emissions[next];
        if (!r.repair) continue;
        if (r.first > s) break;
        if (r.first < first || r.last < last)
          throw std::logic_error("mpath: a paced repair window moved back");
        first = r.first;
        last = r.last;
        while (covering.size() > head &&
               resolve[covering.back()] <= resolve[next])
          covering.pop_back();
        covering.push_back(next);
      }
      while (head < covering.size() && emissions[covering[head]].last <= s)
        ++head;
      deadline[s] = std::max(resolve[send[s]], resolve[slid_after[s]]);
      if (head < covering.size())
        deadline[s] = std::max(deadline[s], resolve[covering[head]]);
    }
    // Paced tie-break: deadlines (phase 0) before arrivals (phase 1) at
    // the same instant, matching the single-path give-up-then-receive
    // order.
    //
    // Give-up is a prefix operation on the decoder (give_up_before), so
    // the effective deadline is the running prefix max: under cross-path
    // reordering deadline[s] is not monotone in s, and declaring the whole
    // prefix at a later source's earlier deadline would discard repairs
    // that could still recover an earlier source.  The prefix max fires
    // each give-up only once every source at or below it is past its own
    // deadline; on a single path deadlines are already monotone and this
    // is the identity (the degenerate oracle is unaffected).
    double prefix_max = 0.0;
    for (std::uint32_t s = 0; s < S; ++s) {
      prefix_max = std::max(prefix_max, deadline[s]);
      queue.push(run, prefix_max + 1.0, 0, s, kDeadline, s);
    }
    return;
  }
  // Block tie-break: arrivals (phase 0) before block/stream deadlines
  // (phase 1) at the same instant — a block's last packet may complete it
  // in the very slot the block would otherwise be declared dead, exactly
  // like the single-path trial.
  if (const RsePlan* plan = code.rse().get()) {
    deadline.assign(plan->block_count(), 0.0);
    for (std::size_t e = 0; e < emissions.size(); ++e) {
      const std::uint32_t b =
          plan->position(static_cast<PacketId>(emissions[e].id)).block;
      deadline[b] = std::max(deadline[b], resolve[e]);
    }
    for (std::uint32_t b = 0; b < plan->block_count(); ++b)
      queue.push(run, deadline[b], 1, b, kDeadline, b);
  } else {
    queue.push(run, *std::max_element(resolve.begin(), resolve.end()) + 1.0,
               1, 0, kDeadline, 0);
  }
}

}  // namespace

MpathTrialResult run_mpath_trial(const MpathTrialConfig& cfg,
                                 std::uint64_t seed,
                                 MpathTrialWorkspace& ws) {
  cfg.validate();
  PathSet paths(cfg.paths);
  paths.reset(seed);
  PathScheduler scheduler(cfg.scheduler, paths, cfg.repair_weights);
  const obs::Hook hook;
  const std::uint32_t S = cfg.stream.source_count;

  StreamCode& code = ws.stream.code;
  hook.timed(obs::Phase::kEncode, [&] { code.build(cfg.stream, seed); });
  if (!code.paced())
    hook.timed(obs::Phase::kSchedule, [&] { code.schedule(); });
  StreamReceiver& receiver = ws.stream.receiver;
  receiver.reset(code, hook);

  ws.emissions.clear();
  ws.slid_after.assign(code.paced() ? S : 0, 0);
  PlanRecorder recorder{ws.emissions, ws.slid_after};
  code.walk(recorder);
  const std::vector<Emission>& emissions = ws.emissions;
  Resequencer& queue = ws.queue;
  queue.reset(paths.size() + 1);
  transmit_all(emissions, paths, scheduler, code.paced() ? 1 : 0,
               ws.transport, queue, hook);
  const Transport& transport = ws.transport;
  push_deadlines(code, emissions, ws.slid_after, transport, ws.deadline, queue,
                 paths.size());

  std::uint64_t received = 0, reordered = 0, max_arrived = 0;
  bool any_arrived = false;
  const std::vector<const RxEvent*>& rx = hook.timed(
      obs::Phase::kResequence,
      [&]() -> const std::vector<const RxEvent*>& { return queue.drain(); });
  for (const RxEvent* ev : rx) {
    const double t = ev->time;
    if (ev->kind == kDeadline) {
      if (code.paced())
        receiver.give_up_before(ev->value + 1, t);
      else if (code.rse())
        receiver.release_block(static_cast<std::uint32_t>(ev->value), t);
      else
        receiver.flush(t);
      continue;
    }
    const std::uint64_t e = ev->value;
    ++received;
    if (any_arrived && e < max_arrived) ++reordered;
    max_arrived = std::max(max_arrived, e);
    any_arrived = true;
    receiver.on_packet(emissions[e], {}, t);
  }

  MpathTrialResult result;
  result.stream = receiver.result(emissions.size(), received);
  result.paths = paths.stats();
  result.path_reports.reserve(transport.path_events.size());
  for (const auto& events : transport.path_events)
    result.path_reports.push_back(LossReport::from_events(events));
  result.reordered = reordered;
  result.reordered_fraction =
      received ? static_cast<double>(reordered) / static_cast<double>(received)
               : 0.0;
  count_stream_metrics(hook, "mpath", result.stream, S);
  hook.count("mpath.reordered", reordered);
  return result;
}

MpathTrialResult run_mpath_trial(const MpathTrialConfig& cfg,
                                 std::uint64_t seed) {
  MpathTrialWorkspace ws;
  return run_mpath_trial(cfg, seed, ws);
}

}  // namespace fecsched
