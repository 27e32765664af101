#include "stream/transmission.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "sched/tx_models.h"
#include "util/rng.h"

namespace fecsched {

void StreamTrialConfig::validate() const {
  if (source_count == 0)
    throw std::invalid_argument("StreamTrialConfig: source_count must be >= 1");
  if (!(overhead > 0.0) || overhead > 4.0)
    throw std::invalid_argument(
        "StreamTrialConfig: overhead must be in (0, 4]");
  if ((scheme == StreamScheme::kSlidingWindow ||
       scheme == StreamScheme::kReplication) &&
      overhead > 1.0)
    throw std::invalid_argument(
        "StreamTrialConfig: the paced schemes emit at most one repair per "
        "source (overhead <= 1)");
  if (window == 0)
    throw std::invalid_argument("StreamTrialConfig: window must be >= 1");
  if (block_k == 0)
    throw std::invalid_argument("StreamTrialConfig: block_k must be >= 1");
  if (scheme == StreamScheme::kBlockRse &&
      static_cast<double>(block_k) * (1.0 + overhead) > 255.0)
    throw std::invalid_argument(
        "StreamTrialConfig: block_k * (1 + overhead) exceeds the RSE block "
        "cap of 255");
  if (max_cycles == 0)
    throw std::invalid_argument("StreamTrialConfig: max_cycles must be >= 1");
}

std::uint32_t StreamTrialConfig::repair_interval() const {
  // Clamp before narrowing: a vanishing overhead must yield a huge
  // interval (no repairs within any realistic stream), not a uint32 wrap
  // to a small one.
  const long long interval = std::llround(1.0 / overhead);
  return static_cast<std::uint32_t>(
      std::clamp<long long>(interval, 1, std::int64_t{1} << 30));
}

// ------------------------------------------------------------- StreamCode

StreamCode::StreamCode(const StreamTrialConfig& cfg, std::uint64_t seed) {
  build(cfg, seed);
  schedule();
}

void StreamCode::build(const StreamTrialConfig& cfg, std::uint64_t seed) {
  cfg_ = cfg;
  seed_ = seed;
  const std::uint32_t S = cfg.source_count;
  paced_ = cfg.scheme == StreamScheme::kSlidingWindow ||
           cfg.scheme == StreamScheme::kReplication;
  cycles_ = cfg.scheduling == StreamScheduling::kCarousel && !paced_
                ? cfg.max_cycles
                : 1;
  rse_.reset();
  ldgm_.reset();
  coding_seed_ = 0;
  if (paced_) {
    interval_ = cfg.repair_interval();
    sliding_.window = cfg.window;
    sliding_.repair_interval = static_cast<std::uint32_t>(interval_);
    sliding_.coefficients = cfg.coefficients;
    sliding_.seed = derive_seed(seed, {2});
    if (cfg.scheme == StreamScheme::kSlidingWindow)
      coding_seed_ = sliding_.seed;
    // Source s goes out after s sources and one repair per `interval`.
    send_slot_.resize(S);
    for (std::uint64_t s = 0; s < S; ++s) send_slot_[s] = s + s / interval_;
    return;
  }
  const double ratio = 1.0 + cfg.overhead;
  if (cfg.scheme == StreamScheme::kBlockRse) {
    const auto cap = static_cast<std::uint32_t>(std::min(
        255.0, std::floor(static_cast<double>(cfg.block_k) * ratio)));
    rse_ = std::make_shared<const RsePlan>(S, ratio, cap);
    return;
  }
  LdgmParams params;
  params.k = S;
  params.n = std::max(S + 1, static_cast<std::uint32_t>(std::llround(
                                 static_cast<double>(S) * ratio)));
  params.variant = cfg.ldgm_variant;
  params.left_degree = cfg.left_degree;
  params.triangle_extra_per_row = cfg.triangle_extra_per_row;
  params.seed = derive_seed(seed, {3});
  coding_seed_ = params.seed;
  ldgm_ = std::make_shared<const LdgmCode>(params);
}

void StreamCode::schedule() {
  if (paced_) return;
  const PacketPlan& plan =
      rse_ ? static_cast<const PacketPlan&>(*rse_) : *ldgm_;
  Rng rng(derive_seed(seed_, {1}));
  if (cfg_.scheduling == StreamScheduling::kInterleaved) {
    make_schedule(plan, TxModel::kTx5Interleaved, rng, schedule_);
  } else if (rse_) {
    // A streaming block-FEC sender flushes per block: each block's
    // sources, then its parity (not Tx_model_1's bulk order).
    schedule_.clear();
    for (std::uint32_t b = 0; b < rse_->block_count(); ++b) {
      const BlockInfo& info = rse_->block(b);
      for (std::uint32_t i = 0; i < info.n; ++i)
        schedule_.push_back(i < info.k ? info.source_offset + i
                                       : info.parity_offset + i - info.k);
    }
  } else {
    make_schedule(plan, TxModel::kTx1SeqSourceSeqParity, rng, schedule_);
  }

  const std::uint32_t S = cfg_.source_count;
  send_slot_.assign(S, 0);
  for (std::size_t t = 0; t < schedule_.size(); ++t)
    if (schedule_[t] < S) send_slot_[schedule_[t]] = t;

  // A single pass can give an RSE block up the moment its last packet has
  // gone out; a carousel always has another cycle coming.
  block_end_.clear();
  if (!rse_ || cycles_ != 1) return;
  std::vector<std::uint64_t> last(rse_->block_count(), 0);
  for (std::size_t t = 0; t < schedule_.size(); ++t)
    last[rse_->position(schedule_[t]).block] = t;
  block_end_.assign(schedule_.size(), kNoBlock);
  for (std::uint32_t b = 0; b < rse_->block_count(); ++b)
    block_end_[last[b]] = b;
}

std::uint64_t StreamCode::block_ids() const noexcept {
  if (rse_) return rse_->n();
  return ldgm_ ? ldgm_->n() : 0;
}

// --------------------------------------------------------- StreamReceiver

void StreamReceiver::reset(const StreamCode& code, const obs::Hook& hook,
                           std::size_t payload_bytes, Sink sink) {
  const StreamTrialConfig& cfg = code.config();
  code_ = &code;
  hook_ = hook;
  scheme_ = cfg.scheme;
  sources_ = cfg.source_count;
  sink_ = std::move(sink);
  released_ = 0;

  tracker_.reset();
  const std::vector<std::uint64_t>& send = code.send_slots();
  for (std::uint64_t s = 0; s < sources_; ++s)
    tracker_.on_sent(s, static_cast<double>(send[s]));

  switch (scheme_) {
    case StreamScheme::kSlidingWindow:
      if (sliding_ && sliding_->symbol_size() == payload_bytes)
        sliding_->reset(code.sliding());
      else
        sliding_.emplace(code.sliding(), payload_bytes);
      break;
    case StreamScheme::kReplication:
      have_.assign(sources_, 0);
      horizon_ = 0;
      break;
    case StreamScheme::kBlockRse:
    case StreamScheme::kLdgm:
      seen_.assign(code.block_ids(), 0);
      if (code.rse()) {
        block_received_.assign(code.rse()->block_count(), 0);
        block_decoded_.assign(code.rse()->block_count(), 0);
        if (payload_bytes > 0)
          rse_bytes_.emplace(code.rse(), payload_bytes);
        else
          rse_bytes_.reset();
      } else if (peeler_) {
        peeler_->rebind(code.ldgm()->matrix(), cfg.source_count, payload_bytes);
      } else {
        peeler_.emplace(code.ldgm()->matrix(), cfg.source_count, payload_bytes);
      }
      break;
  }
  payload_bytes_ = payload_bytes;
}

void StreamReceiver::available(std::uint64_t s, double t,
                               std::span<const std::uint8_t> bytes) {
  tracker_.on_available(s, t);
  if (sink_) sink_(s, bytes);
}

void StreamReceiver::on_packet(const Emission& packet,
                               std::span<const std::uint8_t> payload,
                               double t) {
  switch (scheme_) {
    case StreamScheme::kSlidingWindow: {
      const std::vector<std::uint64_t>& newly = hook_.timed(
          obs::Phase::kDecode, [&]() -> const std::vector<std::uint64_t>& {
            if (!packet.repair) return sliding_->on_source(packet.id, payload);
            repair_.repair_seq = packet.id - sources_;
            repair_.first = packet.first;
            repair_.last = packet.last;
            repair_.payload.assign(payload.begin(), payload.end());
            return sliding_->on_repair(repair_);
          });
      for (std::uint64_t s : newly)
        available(s, t, payload_bytes_ ? sliding_->symbol(s)
                                       : std::span<const std::uint8_t>{});
      return;
    }
    case StreamScheme::kReplication: {
      // The original and every duplicate deliver the source.
      const std::uint64_t s = packet.repair ? packet.dup : packet.id;
      if (!have_[s]) {
        have_[s] = 1;
        available(s, t, payload);
      }
      return;
    }
    case StreamScheme::kBlockRse:
    case StreamScheme::kLdgm:
      break;
  }
  if (seen_[packet.id]) return;
  seen_[packet.id] = 1;
  const auto id = static_cast<PacketId>(packet.id);
  if (scheme_ == StreamScheme::kBlockRse) {
    hook_.timed(obs::Phase::kDecode, [&] { rse_packet(id, payload, t); });
    return;
  }
  hook_.timed(obs::Phase::kDecode, [&] { peeler_->add_packet(id, payload); });
  for (PacketId s : peeler_->solved_sources()) {
    ++released_;
    available(s, t, payload_bytes_ ? peeler_->symbol(s)
                                   : std::span<const std::uint8_t>{});
  }
}

void StreamReceiver::rse_packet(PacketId id,
                                std::span<const std::uint8_t> payload,
                                double t) {
  const RsePlan& plan = *code_->rse();
  const BlockPosition pos = plan.position(id);
  if (id < sources_) {
    ++released_;
    available(id, t, payload);
  }
  if (block_decoded_[pos.block]) return;
  if (rse_bytes_) rse_bytes_->on_packet(id, payload);
  const BlockInfo& info = plan.block(pos.block);
  if (++block_received_[pos.block] < info.k) return;
  // MDS: k_b distinct packets solve the block (sim/tracker rule); every
  // source not received directly is recovered now.
  block_decoded_[pos.block] = 1;
  for (std::uint32_t i = 0; i < info.k; ++i) {
    const PacketId src = info.source_offset + i;
    if (seen_[src]) continue;
    seen_[src] = 1;
    ++released_;
    available(src, t, rse_bytes_ ? std::span<const std::uint8_t>(
                                       rse_bytes_->source_symbol(src))
                                 : std::span<const std::uint8_t>{});
  }
}

void StreamReceiver::lose(PacketId src, double t) {
  if (seen_[src]) return;
  seen_[src] = 1;  // released as lost: no later availability
  ++released_;
  tracker_.on_lost(src, t);
}

void StreamReceiver::give_up_before(std::uint64_t horizon, double t) {
  if (scheme_ == StreamScheme::kSlidingWindow) {
    for (std::uint64_t s : hook_.timed(
             obs::Phase::kDecode, [&]() -> const std::vector<std::uint64_t>& {
               return sliding_->give_up_before(horizon);
             }))
      tracker_.on_lost(s, t);
    return;
  }
  for (; horizon_ < horizon; ++horizon_)
    if (!have_[horizon_]) tracker_.on_lost(horizon_, t);
}

void StreamReceiver::release_block(std::uint32_t b, double t) {
  if (block_decoded_[b]) return;
  const BlockInfo& info = code_->rse()->block(b);
  for (std::uint32_t i = 0; i < info.k; ++i) lose(info.source_offset + i, t);
}

void StreamReceiver::flush(double t) {
  switch (scheme_) {
    case StreamScheme::kSlidingWindow:
    case StreamScheme::kReplication:
      give_up_before(sources_, t);
      return;
    case StreamScheme::kBlockRse:
      for (std::uint32_t b = 0; b < code_->rse()->block_count(); ++b)
        release_block(b, t);
      return;
    case StreamScheme::kLdgm:
      for (PacketId s = 0; s < sources_; ++s)
        if (!peeler_->is_known(s)) lose(s, t);
      return;
  }
}

StreamTrialResult StreamReceiver::result(std::uint64_t sent,
                                         std::uint64_t received) const {
  StreamTrialResult result;
  result.delay = tracker_.summary();
  result.residual = tracker_.residual_loss();
  result.delays = tracker_.delays();
  result.packets_sent = sent;
  result.packets_received = received;
  result.overhead_actual = static_cast<double>(sent - sources_) /
                           static_cast<double>(sources_);
  result.all_delivered = tracker_.drained() && result.residual.lost == 0;
  return result;
}

void count_stream_metrics(const obs::Hook& hook, std::string_view engine,
                          const StreamTrialResult& result,
                          std::uint64_t sources) {
  if (!hook.counting()) return;
  const auto count = [&](std::string_view name, std::uint64_t n) {
    hook.count(std::string(engine) + '.' + std::string(name), n);
  };
  count("trials", 1);
  count("packets_sent", result.packets_sent);
  count("packets_received", result.packets_received);
  count("sources", sources);
  count("sources_delivered", result.delay.delivered);
  count("residual_lost", result.residual.lost);
  count("residual_runs", result.residual.runs);
  hook.gauge_max(std::string(engine) + ".residual_max_run",
                 result.residual.max_run_length);
  obs::observe_release_delays(hook.observer()->metrics(), result.delays);
}

}  // namespace fecsched
