#include "net/sender.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "util/rng.h"

namespace fecsched::net {

void NetSender::source_payload(std::uint64_t seed, std::uint64_t s,
                               std::size_t bytes,
                               std::vector<std::uint8_t>& out) {
  // Each generator word, least significant byte first.  Whole words go
  // out as one 8-byte store: byte-wide stores through `out` may alias the
  // generator state, so the compiler would reload it after every byte.
  Rng rng(derive_seed(seed, {4, s}));
  out.resize(bytes);
  std::uint8_t* const p = out.data();
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w = rng();
    if constexpr (std::endian::native == std::endian::big)
      w = __builtin_bswap64(w);
    std::memcpy(p + i, &w, 8);
  }
  if (i < bytes)
    for (std::uint64_t w = rng(); i < bytes; ++i, w >>= 8)
      p[i] = static_cast<std::uint8_t>(w);
}

NetSender::NetSender(const StreamCode& code, std::size_t payload_bytes,
                     std::uint64_t seed, std::uint32_t object_id)
    : code_(code),
      payload_bytes_(payload_bytes),
      seed_(seed),
      object_id_(object_id) {
  const auto all_sources = [&] {
    std::vector<std::vector<std::uint8_t>> sources(code.config().source_count);
    for (std::uint64_t s = 0; s < sources.size(); ++s)
      source_payload(seed, s, payload_bytes, sources[s]);
    return sources;
  };
  switch (code.config().scheme) {
    case StreamScheme::kSlidingWindow:
      encoder_.emplace(code.sliding(), payload_bytes);
      break;
    case StreamScheme::kReplication:
      break;
    case StreamScheme::kBlockRse:
      // The encoder keeps the one copy of every payload it sends.
      rse_.emplace(code.rse(), all_sources());
      break;
    case StreamScheme::kLdgm:
      payloads_ = all_sources();
      parity_ = code.ldgm()->encode(payloads_);
      break;
  }
}

void NetSender::frame(const Emission& e, DataFrame& out) {
  const std::uint64_t S = code_.config().source_count;
  out.scheme = static_cast<std::uint8_t>(code_.config().scheme);
  out.object_id = object_id_;
  out.coding_seed = code_.coding_seed();
  out.repair = e.repair;
  out.symbol_id = e.id;
  out.span_first = 0;
  out.span_last = 0;
  if (rse_) {
    out.payload = rse_->payload(static_cast<PacketId>(e.id));
  } else if (!code_.paced()) {
    out.payload = e.repair ? parity_[e.id - S] : payloads_[e.id];
  } else if (!e.repair) {
    source_payload(seed_, e.id, payload_bytes_, out.payload);
    if (encoder_) encoder_->push_source(out.payload);
  } else if (encoder_) {
    encoder_->make_repair(repair_);
    if (S + repair_.repair_seq != e.id || repair_.last != e.last)
      throw std::logic_error("NetSender: repair framed out of plan order");
    out.span_first = repair_.first;
    out.span_last = repair_.last;
    out.payload = repair_.payload;
  } else {
    // Replication: the frame names the source it duplicates.
    out.span_first = e.dup;
    out.span_last = e.dup;
    source_payload(seed_, e.dup, payload_bytes_, out.payload);
  }
}

}  // namespace fecsched::net
