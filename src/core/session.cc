#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fec/block_partition.h"
#include "fec/ge_decoder.h"
#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "fec/replication.h"
#include "fec/rse_object.h"
#include "sched/tx_models.h"
#include "util/rng.h"

namespace fecsched {

namespace {

constexpr std::uint64_t kTagSchedule = 11;
constexpr std::uint64_t kTagGraph = 12;

std::vector<std::vector<std::uint8_t>> symbolize(
    std::span<const std::uint8_t> object, std::uint32_t k, std::size_t payload) {
  std::vector<std::vector<std::uint8_t>> symbols(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    symbols[i].assign(payload, 0);
    const std::size_t off = static_cast<std::size_t>(i) * payload;
    const std::size_t len = std::min(payload, object.size() - off);
    std::copy(object.begin() + static_cast<std::ptrdiff_t>(off),
              object.begin() + static_cast<std::ptrdiff_t>(off + len),
              symbols[i].begin());
  }
  return symbols;
}

LdgmParams ldgm_params_from(const TransmissionInfo& info) {
  LdgmParams params;
  params.k = info.k;
  params.n = info.n;
  params.variant = ldgm_variant(info.code);
  params.left_degree = info.left_degree;
  params.triangle_extra_per_row = info.triangle_extra_per_row;
  params.seed = info.graph_seed;
  return params;
}

}  // namespace

// ---------------------------------------------------------------- sender

struct SenderSession::Impl {
  TransmissionInfo info;
  std::vector<PacketId> schedule;
  // Source symbols in object order; parity symbols by parity index.
  std::vector<std::vector<std::uint8_t>> source;
  std::vector<std::vector<std::uint8_t>> parity;
  std::shared_ptr<const RsePlan> rse_plan;              // RSE only
  std::shared_ptr<const ReplicationPlan> repl_plan;     // replication only
  std::shared_ptr<const LdgmCode> ldgm;                 // LDGM only
};

SenderSession::SenderSession(std::span<const std::uint8_t> object,
                             const SenderConfig& config)
    : impl_(std::make_unique<Impl>()) {
  if (object.empty())
    throw std::invalid_argument("SenderSession: empty object");
  if (config.payload_size == 0)
    throw std::invalid_argument("SenderSession: zero payload size");

  auto& d = *impl_;
  const auto k = static_cast<std::uint32_t>(
      (object.size() + config.payload_size - 1) / config.payload_size);
  d.info.code = config.code;
  d.info.k = k;
  d.info.payload_size = config.payload_size;
  d.info.object_size = object.size();
  d.info.left_degree = config.left_degree;
  d.info.triangle_extra_per_row = config.triangle_extra_per_row;
  d.info.replication_copies = config.replication_copies;
  d.info.max_block_n = config.max_block_n;
  d.info.expansion_ratio = config.expansion_ratio;
  d.source = symbolize(object, k, config.payload_size);

  const PacketPlan* plan = nullptr;
  switch (config.code) {
    case CodeKind::kRse: {
      d.rse_plan = std::make_shared<const RsePlan>(k, config.expansion_ratio,
                                                   config.max_block_n);
      d.info.n = d.rse_plan->n();
      const RseObjectEncoder encoder(d.rse_plan, d.source);
      d.parity.reserve(d.info.n - k);
      for (PacketId id = k; id < d.info.n; ++id)
        d.parity.push_back(encoder.payload(id));
      plan = d.rse_plan.get();
      break;
    }
    case CodeKind::kReplication: {
      d.repl_plan = std::make_shared<const ReplicationPlan>(
          k, config.replication_copies);
      d.info.n = d.repl_plan->n();
      plan = d.repl_plan.get();
      break;
    }
    default: {
      LdgmParams params;
      params.k = k;
      params.n = static_cast<std::uint32_t>(
          std::llround(config.expansion_ratio * k));
      if (params.n <= k)
        throw std::invalid_argument("SenderSession: LDGM needs ratio > 1");
      params.variant = ldgm_variant(config.code);
      // Tiny objects can have fewer check rows than the requested left
      // degree; clamp like the reference codec so small files still encode.
      params.left_degree = std::min(config.left_degree, params.n - k);
      d.info.left_degree = params.left_degree;
      params.triangle_extra_per_row = config.triangle_extra_per_row;
      params.seed = derive_seed(config.seed, {kTagGraph});
      d.info.graph_seed = params.seed;
      d.info.n = params.n;
      d.ldgm = std::make_shared<const LdgmCode>(params);
      d.parity = d.ldgm->encode(d.source);
      plan = d.ldgm.get();
      break;
    }
  }

  Rng rng(derive_seed(config.seed, {kTagSchedule}));
  d.schedule = make_schedule(*plan, config.tx, rng, {config.tx6_source_fraction});
  if (config.n_sent != 0)
    d.schedule = truncate_schedule(std::move(d.schedule), config.n_sent);
}

SenderSession::~SenderSession() = default;
SenderSession::SenderSession(SenderSession&&) noexcept = default;
SenderSession& SenderSession::operator=(SenderSession&&) noexcept = default;

const TransmissionInfo& SenderSession::info() const noexcept {
  return impl_->info;
}

std::uint32_t SenderSession::packet_count() const noexcept {
  return static_cast<std::uint32_t>(impl_->schedule.size());
}

const std::vector<PacketId>& SenderSession::schedule() const noexcept {
  return impl_->schedule;
}

std::span<const std::uint8_t> SenderSession::payload_of(PacketId id) const {
  const auto& d = *impl_;
  if (id >= d.info.n)
    throw std::invalid_argument("SenderSession::payload_of: bad id");
  if (d.repl_plan) return d.source[d.repl_plan->source_of(id)];
  if (id < d.info.k) return d.source[id];
  return d.parity[id - d.info.k];
}

WirePacket SenderSession::packet(std::uint32_t seq) const {
  if (seq >= packet_count())
    throw std::invalid_argument("SenderSession::packet: seq out of range");
  const PacketId id = impl_->schedule[seq];
  return WirePacket{id, payload_of(id)};
}

// -------------------------------------------------------------- receiver

struct ReceiverSession::Impl {
  TransmissionInfo info;
  bool ge_fallback = false;
  std::uint32_t received = 0;

  // RSE path.
  std::shared_ptr<const RsePlan> rse_plan;
  std::unique_ptr<RseObjectDecoder> rse;

  // LDGM path.
  std::shared_ptr<const LdgmCode> ldgm;
  std::unique_ptr<PeelingDecoder> peeler;

  // Replication path.
  std::shared_ptr<const ReplicationPlan> repl_plan;
  std::vector<std::vector<std::uint8_t>> repl_symbols;
  std::uint32_t repl_have = 0;

  [[nodiscard]] bool complete() const {
    if (rse) return rse->complete();
    if (peeler) return peeler->source_complete();
    return repl_have == info.k;
  }
};

ReceiverSession::ReceiverSession(const TransmissionInfo& info, bool ge_fallback)
    : impl_(std::make_unique<Impl>()) {
  auto& d = *impl_;
  if (info.k == 0 || info.payload_size == 0)
    throw std::invalid_argument("ReceiverSession: malformed TransmissionInfo");
  if (info.object_size >
      static_cast<std::uint64_t>(info.k) * info.payload_size)
    throw std::invalid_argument("ReceiverSession: object larger than k symbols");
  d.info = info;
  d.ge_fallback = ge_fallback;
  switch (info.code) {
    case CodeKind::kRse:
      d.rse_plan = std::make_shared<const RsePlan>(info.k, info.expansion_ratio,
                                                   info.max_block_n);
      if (d.rse_plan->n() != info.n)
        throw std::invalid_argument("ReceiverSession: inconsistent RSE n");
      d.rse = std::make_unique<RseObjectDecoder>(d.rse_plan, info.payload_size);
      break;
    case CodeKind::kReplication:
      d.repl_plan = std::make_shared<const ReplicationPlan>(
          info.k, info.replication_copies);
      if (d.repl_plan->n() != info.n)
        throw std::invalid_argument("ReceiverSession: inconsistent repl n");
      d.repl_symbols.resize(info.k);
      break;
    default:
      d.ldgm = std::make_shared<const LdgmCode>(ldgm_params_from(info));
      d.peeler = std::make_unique<PeelingDecoder>(d.ldgm->matrix(), info.k,
                                                  info.payload_size);
      break;
  }
}

ReceiverSession::~ReceiverSession() = default;
ReceiverSession::ReceiverSession(ReceiverSession&&) noexcept = default;
ReceiverSession& ReceiverSession::operator=(ReceiverSession&&) noexcept = default;

bool ReceiverSession::on_packet(PacketId id,
                                std::span<const std::uint8_t> payload) {
  auto& d = *impl_;
  if (id >= d.info.n)
    throw std::invalid_argument("ReceiverSession::on_packet: bad id");
  if (payload.size() != d.info.payload_size)
    throw std::invalid_argument("ReceiverSession::on_packet: bad payload size");
  ++d.received;
  if (d.complete()) return true;
  if (d.rse) {
    d.rse->on_packet(id, payload);
  } else if (d.peeler) {
    d.peeler->add_packet(id, payload);
  } else {
    const PacketId src = d.repl_plan->source_of(id);
    if (d.repl_symbols[src].empty()) {
      d.repl_symbols[src].assign(payload.begin(), payload.end());
      ++d.repl_have;
    }
  }
  return d.complete();
}

bool ReceiverSession::complete() const noexcept { return impl_->complete(); }

std::uint32_t ReceiverSession::packets_received() const noexcept {
  return impl_->received;
}

bool ReceiverSession::finish() {
  auto& d = *impl_;
  if (d.peeler && d.ge_fallback && !d.peeler->source_complete())
    ge_solve(*d.peeler);
  return d.complete();
}

std::vector<std::uint8_t> ReceiverSession::object() const {
  const auto& d = *impl_;
  if (!d.complete())
    throw std::logic_error("ReceiverSession::object: not complete");
  std::vector<std::uint8_t> out;
  out.reserve(d.info.object_size);
  for (std::uint32_t i = 0; i < d.info.k && out.size() < d.info.object_size;
       ++i) {
    std::span<const std::uint8_t> sym;
    if (d.rse)
      sym = d.rse->source_symbol(i);
    else if (d.peeler)
      sym = d.peeler->symbol(i);
    else
      sym = d.repl_symbols[i];
    const std::size_t want =
        std::min<std::size_t>(sym.size(), d.info.object_size - out.size());
    out.insert(out.end(), sym.begin(), sym.begin() + static_cast<std::ptrdiff_t>(want));
  }
  return out;
}

}  // namespace fecsched
