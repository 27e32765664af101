#include "mpath/mpath_trial.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "fec/block_partition.h"
#include "fec/peeling_decoder.h"
#include "mpath/resequencer.h"
#include "obs/obs.h"
#include "sched/tx_models.h"
#include "stream/delay_tracker.h"
#include "stream/sliding_window.h"
#include "util/rng.h"

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

using Emission = detail::MpathEmission;
using Transport = detail::MpathTransport;

/// Dispatch every emission through the scheduler and the paths, filling
/// the workspace transport buffers in place.  `repair_id_base` maps an
/// emission to its trace packet id: sources keep their seq, repairs get
/// `repair_id_base + seq` (0 for block schemes, whose seq is already the
/// unified PacketId; S for paced schemes, whose repairs count from 0).
void transmit_all(const std::vector<Emission>& emissions, PathSet& paths,
                  PathScheduler& scheduler, Transport& t, const obs::Hook& hook,
                  std::uint64_t repair_id_base) {
  t.resolve.assign(emissions.size(), 0.0);
  t.delivered.assign(emissions.size(), 0);
  for (auto& events : t.path_events) events.clear();
  t.path_events.resize(paths.size());
  for (std::size_t e = 0; e < emissions.size(); ++e) {
    const double slot = static_cast<double>(e);
    const std::size_t path = hook.timed(obs::Phase::kSchedule, [&] {
      return scheduler.pick(paths, slot, emissions[e].is_repair);
    });
    const Transmission tx = hook.timed(obs::Phase::kChannelDraw, [&] {
      return paths.transmit(path, slot);
    });
    t.resolve[e] = tx.arrival;
    t.delivered[e] = tx.lost ? 0 : 1;
    t.path_events[path].push_back(tx.lost);
    if (hook.tracing()) {
      const std::uint64_t id = emissions[e].is_repair
                                   ? repair_id_base + emissions[e].seq
                                   : emissions[e].seq;
      const auto path_id = static_cast<std::int32_t>(path);
      hook.sent(slot, id, emissions[e].is_repair, path_id);
      if (tx.lost)
        hook.lost(tx.arrival, id, emissions[e].is_repair, path_id);
      else
        hook.received(tx.arrival, id, emissions[e].is_repair, path_id);
    }
  }
}

/// Shared aggregation tail (mirrors stream_trial's): tracker -> result.
MpathTrialResult finish(const DelayTracker& tracker, const PathSet& paths,
                        const Transport& transport, std::uint64_t sent,
                        std::uint64_t received, std::uint64_t reordered,
                        std::uint32_t source_count, const obs::Hook& hook) {
  MpathTrialResult result;
  result.stream.delay = tracker.summary();
  result.stream.residual = tracker.residual_loss();
  result.stream.delays = tracker.delays();
  result.stream.packets_sent = sent;
  result.stream.packets_received = received;
  result.stream.overhead_actual =
      static_cast<double>(sent - source_count) /
      static_cast<double>(source_count);
  result.stream.all_delivered =
      tracker.drained() && result.stream.residual.lost == 0;
  result.paths = paths.stats();
  result.path_reports.reserve(transport.path_events.size());
  for (const auto& events : transport.path_events)
    result.path_reports.push_back(LossReport::from_events(events));
  result.reordered = reordered;
  result.reordered_fraction =
      received ? static_cast<double>(reordered) / static_cast<double>(received)
               : 0.0;
  if (hook.counting()) {
    // Engine-side aggregates, computed from the tracker's own accounting
    // (independent of trace-event emission) so tools/trace_stats can
    // cross-check a JSONL trace against them.
    hook.count("mpath.trials");
    hook.count("mpath.packets_sent", sent);
    hook.count("mpath.packets_received", received);
    hook.count("mpath.reordered", reordered);
    hook.count("mpath.sources", source_count);
    hook.count("mpath.sources_delivered", result.stream.delay.delivered);
    hook.count("mpath.residual_lost", result.stream.residual.lost);
    hook.count("mpath.residual_runs", result.stream.residual.runs);
    hook.gauge_max("mpath.residual_max_run",
                   result.stream.residual.max_run_length);
  }
  return result;
}

// ------------------------------------------------- sliding / replication

MpathTrialResult run_paced_mpath(const MpathTrialConfig& cfg, PathSet& paths,
                                 PathScheduler& scheduler, std::uint64_t seed,
                                 MpathTrialWorkspace& ws) {
  const obs::Hook hook;
  const std::uint32_t S = cfg.stream.source_count;
  const std::uint32_t W = cfg.stream.window;
  const std::uint32_t interval = cfg.stream.repair_interval();
  const bool sliding = cfg.stream.scheme == StreamScheme::kSlidingWindow;

  SlidingWindowConfig sw;
  sw.window = W;
  sw.repair_interval = interval;
  sw.coefficients = cfg.stream.coefficients;
  sw.seed = derive_seed(seed, {2});
  hook.timed(obs::Phase::kEncode, [&] {
    if (ws.stream.decoder)
      ws.stream.decoder->reset(sw);
    else
      ws.stream.decoder.emplace(sw);
  });
  SlidingWindowDecoder& decoder = *ws.stream.decoder;

  // Emission sequence: identical to the single-path paced trial — sources
  // in order, one repair after every `interval`-th source, then a tail of
  // one window's worth of repairs.
  std::vector<Emission>& emissions = ws.emissions;
  emissions.clear();
  emissions.reserve(S + S / interval + (W + interval - 1) / interval + 1);
  std::vector<std::size_t>& source_slot = ws.source_slot;
  source_slot.assign(S, 0);
  std::uint64_t repairs = 0;
  const auto emit_repair = [&](std::uint64_t produced) {
    Emission e;
    e.is_repair = true;
    e.seq = repairs;
    e.last = produced;
    e.first = produced >= W ? produced - W : 0;
    const std::uint64_t span = std::min<std::uint64_t>(W, produced);
    e.dup_target = produced - 1 - repairs % span;
    ++repairs;
    emissions.push_back(e);
  };
  for (std::uint32_t s = 0; s < S; ++s) {
    source_slot[s] = emissions.size();
    emissions.push_back({false, s, 0, 0, 0});
    const std::uint64_t produced = s + 1;
    if (produced % interval == 0) emit_repair(produced);
  }
  const std::uint64_t tail = (W + interval - 1) / interval;
  for (std::uint64_t i = 0; i < tail; ++i) emit_repair(S);

  DelayTracker& tracker = ws.stream.tracker;
  tracker.reset();
  for (std::uint32_t s = 0; s < S; ++s)
    tracker.on_sent(s, static_cast<double>(source_slot[s]));

  transmit_all(emissions, paths, scheduler, ws.transport, hook, S);
  const Transport& transport = ws.transport;

  // Deadline of source s: one step past the latest (would-be) arrival of
  // anything that can still matter for it — the source itself, every
  // repair whose window covers it, and the window-slide witness (source
  // s+W, or the final emission for the tail).  The witness term makes the
  // 1-path degenerate case give up in exactly the single-path trial's
  // slot.
  std::vector<double>& deadline = ws.deadline;
  deadline.resize(S);
  const double final_resolve = transport.resolve.back();
  for (std::uint32_t s = 0; s < S; ++s) {
    double m = transport.resolve[source_slot[s]];
    m = std::max(m, s + W < S
                        ? transport.resolve[source_slot[s + W]]
                        : final_resolve);
    deadline[s] = m;
  }
  for (std::size_t e = 0; e < emissions.size(); ++e) {
    if (!emissions[e].is_repair) continue;
    for (std::uint64_t s = emissions[e].first;
         s < emissions[e].last && s < S; ++s)
      deadline[s] = std::max(deadline[s], transport.resolve[e]);
  }

  // Paced tie-break: deadlines (phase 0) before arrivals (phase 1) at the
  // same instant, matching the single-path give-up-then-receive order.
  //
  // Give-up is a prefix operation on the decoder (give_up_before), so the
  // effective deadline is the running prefix max: under cross-path
  // reordering deadline[s] is not monotone in s, and declaring the whole
  // prefix at a later source's earlier deadline would discard repairs
  // that could still recover an earlier source.  The prefix max fires
  // each give-up only once every source at or below it is past its own
  // deadline; on a single path deadlines are already monotone and this is
  // the identity (the degenerate oracle is unaffected).
  Resequencer& queue = ws.queue;
  queue.clear();
  for (std::size_t e = 0; e < emissions.size(); ++e)
    if (transport.delivered[e])
      queue.push(transport.resolve[e], 1, e, kArrival, e);
  double deadline_prefix_max = 0.0;
  for (std::uint32_t s = 0; s < S; ++s) {
    deadline_prefix_max = std::max(deadline_prefix_max, deadline[s]);
    queue.push(deadline_prefix_max + 1.0, 0, s, kDeadline, s);
  }

  // Replication baseline state.
  std::vector<char>& have = ws.stream.have;
  have.assign(S, 0);
  std::uint64_t repl_horizon = 0;

  std::uint64_t received = 0, reordered = 0, max_arrived = 0;
  bool any_arrived = false;
  const std::vector<RxEvent>& rx = hook.timed(
      obs::Phase::kResequence,
      [&]() -> const std::vector<RxEvent>& { return queue.drain(); });
  for (const RxEvent& ev : rx) {
    const double t = ev.time;
    if (ev.kind == kDeadline) {
      const auto s = static_cast<std::uint64_t>(ev.value);
      if (sliding) {
        for (std::uint64_t lost : hook.timed(obs::Phase::kDecode, [&] {
               return decoder.give_up_before(s + 1);
             }))
          tracker.on_lost(lost, t);
      } else {
        for (; repl_horizon < s + 1; ++repl_horizon)
          if (!have[repl_horizon]) tracker.on_lost(repl_horizon, t);
      }
      continue;
    }
    const std::uint64_t e = ev.value;
    ++received;
    if (any_arrived && e < max_arrived) ++reordered;
    max_arrived = std::max(max_arrived, e);
    any_arrived = true;
    const Emission& em = emissions[e];
    const auto deliver = [&](std::uint64_t s) {
      if (!have[s]) {
        have[s] = 1;
        tracker.on_available(s, t);
      }
    };
    if (em.is_repair) {
      if (sliding) {
        RepairPacket repair;
        repair.repair_seq = em.seq;
        repair.first = em.first;
        repair.last = em.last;
        for (std::uint64_t s : hook.timed(obs::Phase::kDecode, [&] {
               return decoder.on_repair(repair);
             }))
          tracker.on_available(s, t);
      } else {
        deliver(em.dup_target);
      }
    } else if (sliding) {
      for (std::uint64_t s : hook.timed(obs::Phase::kDecode, [&] {
             return decoder.on_source(em.seq);
           }))
        tracker.on_available(s, t);
    } else {
      deliver(em.seq);
    }
  }
  return finish(tracker, paths, transport, emissions.size(), received,
                reordered, S, hook);
}

// ----------------------------------------------------------- block codes

MpathTrialResult run_block_mpath(const MpathTrialConfig& cfg, PathSet& paths,
                                 PathScheduler& scheduler, std::uint64_t seed,
                                 MpathTrialWorkspace& ws) {
  const obs::Hook hook;
  const std::uint32_t S = cfg.stream.source_count;
  const double ratio = 1.0 + cfg.stream.overhead;
  const bool rse = cfg.stream.scheme == StreamScheme::kBlockRse;

  std::shared_ptr<const RsePlan> rse_plan;
  std::shared_ptr<const LdgmCode> ldgm;
  const PacketPlan* plan = nullptr;
  hook.timed(obs::Phase::kEncode, [&] {
    if (rse) {
      const auto cap = static_cast<std::uint32_t>(std::min(
          255.0, std::floor(static_cast<double>(cfg.stream.block_k) * ratio)));
      rse_plan = std::make_shared<RsePlan>(S, ratio, cap);
      plan = rse_plan.get();
    } else {
      LdgmParams params;
      params.k = S;
      params.n = std::max(
          S + 1, static_cast<std::uint32_t>(
                     std::llround(static_cast<double>(S) * ratio)));
      params.variant = cfg.stream.ldgm_variant;
      params.left_degree = cfg.stream.left_degree;
      params.triangle_extra_per_row = cfg.stream.triangle_extra_per_row;
      params.seed = derive_seed(seed, {3});
      ldgm = std::make_shared<LdgmCode>(params);
      plan = ldgm.get();
    }
  });

  Rng rng(derive_seed(seed, {1}));
  std::vector<PacketId>& schedule = ws.stream.schedule;
  hook.timed(obs::Phase::kSchedule, [&] {
    switch (cfg.stream.scheduling) {
      case StreamScheduling::kInterleaved:
        make_schedule(*plan, TxModel::kTx5Interleaved, rng, schedule);
        break;
      case StreamScheduling::kSequential:
      case StreamScheduling::kCarousel:  // rejected by validate()
        if (rse)
          per_block_sequential(*rse_plan, schedule);
        else
          make_schedule(*plan, TxModel::kTx1SeqSourceSeqParity, rng, schedule);
        break;
    }
  });

  std::vector<std::uint64_t>& tx_slot = ws.stream.tx_slot;
  tx_slot.assign(S, 0);
  for (std::size_t t = 0; t < schedule.size(); ++t)
    if (schedule[t] < S) tx_slot[schedule[t]] = t;
  DelayTracker& tracker = ws.stream.tracker;
  tracker.reset();
  for (std::uint32_t s = 0; s < S; ++s)
    tracker.on_sent(s, static_cast<double>(tx_slot[s]));

  std::vector<Emission>& emissions = ws.emissions;
  emissions.assign(schedule.size(), Emission{});
  for (std::size_t e = 0; e < schedule.size(); ++e) {
    emissions[e].is_repair = schedule[e] >= S;
    emissions[e].seq = schedule[e];
  }
  transmit_all(emissions, paths, scheduler, ws.transport, hook,
               /*repair_id_base=*/0);
  const Transport& transport = ws.transport;

  // Block tie-break: arrivals (phase 0) before block/stream deadlines
  // (phase 1) at the same instant — a block's last packet may complete it
  // in the very slot the block would otherwise be declared dead, exactly
  // like the single-path trial.
  Resequencer& queue = ws.queue;
  queue.clear();
  for (std::size_t e = 0; e < schedule.size(); ++e)
    if (transport.delivered[e])
      queue.push(transport.resolve[e], 0, e, kArrival, e);
  if (rse) {
    std::vector<double> block_deadline(rse_plan->block_count(), 0.0);
    for (std::size_t e = 0; e < schedule.size(); ++e) {
      const std::uint32_t b = rse_plan->position(schedule[e]).block;
      block_deadline[b] = std::max(block_deadline[b], transport.resolve[e]);
    }
    for (std::uint32_t b = 0; b < rse_plan->block_count(); ++b)
      queue.push(block_deadline[b], 1, b, kDeadline, b);
  } else {
    double last = 0.0;
    for (double r : transport.resolve) last = std::max(last, r);
    queue.push(last + 1.0, 1, 0, kDeadline, 0);
  }

  // Decode state (mirrors the single-path block trial).
  std::vector<char>& seen = ws.stream.seen;
  seen.assign(plan->n(), 0);
  std::vector<std::uint32_t>& block_received = ws.stream.block_received;
  std::vector<char>& block_decoded = ws.stream.block_decoded;
  if (rse) {
    block_received.assign(rse_plan->block_count(), 0);
    block_decoded.assign(rse_plan->block_count(), 0);
  }
  std::optional<PeelingDecoder>& peeler = ws.stream.peeler;
  if (!rse) {
    if (peeler)
      peeler->rebind(ldgm->matrix(), S);
    else
      peeler.emplace(ldgm->matrix(), S);
  }

  std::uint64_t received = 0, reordered = 0, max_arrived = 0;
  bool any_arrived = false;
  const std::vector<RxEvent>& rx = hook.timed(
      obs::Phase::kResequence,
      [&]() -> const std::vector<RxEvent>& { return queue.drain(); });
  for (const RxEvent& ev : rx) {
    const double t = ev.time;
    if (ev.kind == kDeadline) {
      if (rse) {
        const auto b = static_cast<std::uint32_t>(ev.value);
        if (block_decoded[b]) continue;
        const BlockInfo& info = rse_plan->block(b);
        for (std::uint32_t i = 0; i < info.k; ++i) {
          const PacketId src = info.source_offset + i;
          if (!seen[src]) {
            seen[src] = 1;  // released as lost: no later availability
            tracker.on_lost(src, t);
          }
        }
      } else {
        for (PacketId s = 0; s < S; ++s)
          if (!peeler->is_known(s)) tracker.on_lost(s, t);
      }
      continue;
    }
    const std::uint64_t e = ev.value;
    ++received;
    if (any_arrived && e < max_arrived) ++reordered;
    max_arrived = std::max(max_arrived, e);
    any_arrived = true;
    const PacketId id = schedule[e];
    if (seen[id]) continue;
    seen[id] = 1;
    if (rse) {
      const obs::PhaseScope decode_scope(hook.observer(), obs::Phase::kDecode);
      const BlockPosition pos = rse_plan->position(id);
      if (id < S) tracker.on_available(id, t);
      if (!block_decoded[pos.block]) {
        if (++block_received[pos.block] == rse_plan->block(pos.block).k) {
          // MDS: k_b distinct packets solve the block.
          block_decoded[pos.block] = 1;
          const BlockInfo& info = rse_plan->block(pos.block);
          for (std::uint32_t i = 0; i < info.k; ++i) {
            const PacketId src = info.source_offset + i;
            if (!seen[src]) {
              seen[src] = 1;
              tracker.on_available(src, t);
            }
          }
        }
      }
    } else {
      hook.timed(obs::Phase::kDecode, [&] { peeler->add_packet(id); });
      for (PacketId s : peeler->solved_sources()) tracker.on_available(s, t);
    }
  }
  return finish(tracker, paths, transport, schedule.size(), received,
                reordered, S, hook);
}

}  // namespace

MpathTrialResult run_mpath_trial(const MpathTrialConfig& cfg,
                                 std::uint64_t seed,
                                 MpathTrialWorkspace& ws) {
  cfg.validate();
  PathSet paths(cfg.paths);
  paths.reset(seed);
  PathScheduler scheduler(cfg.scheduler, paths, cfg.repair_weights);
  switch (cfg.stream.scheme) {
    case StreamScheme::kSlidingWindow:
    case StreamScheme::kReplication:
      return run_paced_mpath(cfg, paths, scheduler, seed, ws);
    case StreamScheme::kBlockRse:
    case StreamScheme::kLdgm:
      return run_block_mpath(cfg, paths, scheduler, seed, ws);
  }
  throw std::logic_error("run_mpath_trial: unreachable scheme");
}

MpathTrialResult run_mpath_trial(const MpathTrialConfig& cfg,
                                 std::uint64_t seed) {
  MpathTrialWorkspace ws;
  return run_mpath_trial(cfg, seed, ws);
}

}  // namespace fecsched
