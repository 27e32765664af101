#include "fec/rse_object.h"

#include <stdexcept>

namespace fecsched {

namespace {

/// The generator of `blk`'s geometry, built on first use.  An RFC 5052
/// partition has at most two geometries, so the search is short and
/// every block of one geometry shares one generator.
const RseCodec& codec_for(std::vector<RseCodec>& codecs, const BlockInfo& blk) {
  for (const RseCodec& c : codecs)
    if (c.k() == blk.k && c.n() == blk.n) return c;
  return codecs.emplace_back(blk.k, blk.n);
}

}  // namespace

RseObjectEncoder::RseObjectEncoder(
    std::shared_ptr<const RsePlan> plan,
    std::span<const std::vector<std::uint8_t>> source)
    : plan_(std::move(plan)) {
  if (!plan_) throw std::invalid_argument("RseObjectEncoder: null plan");
  if (source.size() != plan_->k())
    throw std::invalid_argument("RseObjectEncoder: expected k source symbols");
  // Validate once up front, then run every block through the unchecked
  // flat encode core (no intermediate per-block parity vectors).
  const std::size_t sym = source.empty() ? 0 : source[0].size();
  for (const auto& s : source)
    if (s.size() != sym)
      throw std::invalid_argument("RseObjectEncoder: symbol size mismatch");
  source_.assign(source.begin(), source.end());
  parity_.resize(plan_->n() - plan_->k());
  for (auto& p : parity_) p.resize(sym);
  const std::uint8_t* source_rows[RseCodec::kMaxN];
  std::uint8_t* parity_rows[RseCodec::kMaxN];
  std::vector<RseCodec> codecs;
  for (std::uint32_t b = 0; b < plan_->block_count(); ++b) {
    const BlockInfo& blk = plan_->block(b);
    const RseCodec& codec = codec_for(codecs, blk);
    for (std::uint32_t j = 0; j < blk.k; ++j)
      source_rows[j] = source_[blk.source_offset + j].data();
    for (std::uint32_t i = 0; i < blk.n - blk.k; ++i)
      parity_rows[i] = parity_[blk.parity_offset - plan_->k() + i].data();
    codec.encode_into(source_rows, sym, parity_rows);
  }
}

const std::vector<std::uint8_t>& RseObjectEncoder::payload(PacketId id) const {
  if (id >= plan_->n())
    throw std::invalid_argument("RseObjectEncoder::payload: bad id");
  return id < plan_->k() ? source_[id] : parity_[id - plan_->k()];
}

RseObjectDecoder::RseObjectDecoder(std::shared_ptr<const RsePlan> plan,
                                   std::size_t symbol_size)
    : plan_(std::move(plan)), symbol_size_(symbol_size) {
  if (!plan_) throw std::invalid_argument("RseObjectDecoder: null plan");
  blocks_.resize(plan_->block_count());
  seen_.assign(plan_->n(), 0);
}

bool RseObjectDecoder::on_packet(PacketId id,
                                 std::span<const std::uint8_t> payload) {
  if (id >= plan_->n())
    throw std::invalid_argument("RseObjectDecoder::on_packet: bad id");
  if (payload.size() != symbol_size_)
    throw std::invalid_argument("RseObjectDecoder::on_packet: bad symbol size");
  if (seen_[id]) return false;
  seen_[id] = 1;

  const BlockPosition pos = plan_->position(id);
  BlockState& st = blocks_[pos.block];
  if (st.decoded) return false;
  ++used_;
  st.received.push_back(
      RseCodec::Received{pos.index, {payload.begin(), payload.end()}});

  const BlockInfo& blk = plan_->block(pos.block);
  if (st.received.size() < blk.k) return false;

  const RseCodec& codec = codec_for(codecs_, blk);
  std::vector<ReceivedSymbol> views;
  views.reserve(st.received.size());
  for (const RseCodec::Received& r : st.received)
    views.push_back({r.index, r.payload.data()});
  st.source.resize(blk.k);
  std::uint8_t* source_rows[RseCodec::kMaxN];
  for (std::uint32_t j = 0; j < blk.k; ++j) {
    st.source[j].resize(symbol_size_);
    source_rows[j] = st.source[j].data();
  }
  codec.decode_into(views, symbol_size_, source_rows, workspace_);
  st.received.clear();
  st.received.shrink_to_fit();
  st.decoded = true;
  ++decoded_blocks_;
  return complete();
}

const std::vector<std::uint8_t>&
RseObjectDecoder::source_symbol(PacketId id) const {
  if (id >= plan_->k())
    throw std::invalid_argument("RseObjectDecoder::source_symbol: not a source id");
  const BlockPosition pos = plan_->position(id);
  const BlockState& st = blocks_[pos.block];
  if (!st.decoded)
    throw std::logic_error("RseObjectDecoder::source_symbol: block not decoded");
  return st.source[pos.index];
}

}  // namespace fecsched
