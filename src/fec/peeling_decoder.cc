#include "fec/peeling_decoder.h"

#include <algorithm>
#include <stdexcept>

#include "gf/gf256_kernels.h"

namespace fecsched {

PeelingDecoder::PeelingDecoder(const SparseBinaryMatrix& h, std::uint32_t k,
                               std::size_t symbol_size)
    : h_(nullptr), k_(0), symbol_size_(0) {
  rebind(h, k, symbol_size);
}

void PeelingDecoder::rebind(const SparseBinaryMatrix& h, std::uint32_t k,
                            std::size_t symbol_size) {
  if (k == 0 || k >= h.cols())
    throw std::invalid_argument("PeelingDecoder: require 0 < k < n");
  if (h.rows() + k != h.cols())
    throw std::invalid_argument("PeelingDecoder: H must be (n-k) x n");
  h_ = &h;
  k_ = k;
  symbol_size_ = symbol_size;
  known_.resize(h.cols());
  // Every variable unknown: each row's degree and the XOR of its column
  // ids.  reset() copies this instead of walking H once per trial.
  initial_unknowns_.resize(h.rows());
  initial_xor_id_.resize(h.rows());
  for (std::uint32_t r = 0; r < h.rows(); ++r) {
    const auto cols = h.row(r);
    initial_unknowns_[r] = static_cast<std::uint32_t>(cols.size());
    std::uint32_t x = 0;
    for (std::uint32_t c : cols) x ^= c;
    initial_xor_id_[r] = x;
  }
  if (symbol_size_ > 0) {
    symbols_.resize(static_cast<std::size_t>(h.cols()) * symbol_size_);
    row_acc_.resize(static_cast<std::size_t>(h.rows()) * symbol_size_);
  } else {
    symbols_.clear();
    row_acc_.clear();
  }
  reset();
}

void PeelingDecoder::reset() {
  std::fill(known_.begin(), known_.end(), 0);
  row_unknowns_ = initial_unknowns_;
  row_xor_id_ = initial_xor_id_;
  if (symbol_size_ > 0) {
    std::fill(symbols_.begin(), symbols_.end(), 0);
    std::fill(row_acc_.begin(), row_acc_.end(), 0);
  }
  known_sources_ = 0;
  known_total_ = 0;
  ready_rows_.clear();
  solved_.clear();
}

std::span<const std::uint8_t> PeelingDecoder::symbol(PacketId id) const {
  if (symbol_size_ == 0)
    throw std::logic_error("PeelingDecoder::symbol: structure-only mode");
  if (id >= n() || !known_[id])
    throw std::logic_error("PeelingDecoder::symbol: variable unknown");
  return {symbols_.data() + static_cast<std::size_t>(id) * symbol_size_,
          symbol_size_};
}

std::span<const std::uint8_t>
PeelingDecoder::row_accumulator(std::uint32_t row) const {
  if (symbol_size_ == 0)
    throw std::logic_error("PeelingDecoder::row_accumulator: structure-only mode");
  if (row >= h_->rows())
    throw std::invalid_argument("PeelingDecoder::row_accumulator: bad row");
  return {row_acc_.data() + static_cast<std::size_t>(row) * symbol_size_,
          symbol_size_};
}

std::uint32_t PeelingDecoder::make_known(PacketId id, const std::uint8_t* payload) {
  known_[id] = 1;
  ++known_total_;
  if (id < k_) {
    ++known_sources_;
    solved_.push_back(id);
  }
  std::uint8_t* stored = nullptr;
  if (symbol_size_ > 0) {
    stored = symbols_.data() + static_cast<std::size_t>(id) * symbol_size_;
    if (payload != nullptr && payload != stored)
      std::copy(payload, payload + symbol_size_, stored);
  }
  const gf::Kernels& eng = gf::kernels();
  for (std::uint32_t r : h_->col(id)) {
    row_xor_id_[r] ^= id;
    if (symbol_size_ > 0)
      eng.xor_into(
          row_acc_.data() + static_cast<std::size_t>(r) * symbol_size_,
          stored, symbol_size_);
    if (--row_unknowns_[r] == 1) ready_rows_.push_back(r);
  }
  return 1;
}

std::uint32_t PeelingDecoder::solve(PacketId id, const std::uint8_t* payload) {
  solved_.clear();
  if (known_[id]) return 0;  // duplicate: no new information
  std::uint32_t newly = make_known(id, payload);
  while (!ready_rows_.empty()) {
    const std::uint32_t r = ready_rows_.back();
    ready_rows_.pop_back();
    if (row_unknowns_[r] != 1) continue;  // stale entry: solved meanwhile
    const PacketId missing = row_xor_id_[r];
    if (known_[missing]) continue;  // defensive; cannot normally happen
    const std::uint8_t* acc =
        symbol_size_ > 0
            ? row_acc_.data() + static_cast<std::size_t>(r) * symbol_size_
            : nullptr;
    // The single unknown of an equation equals the XOR of its known
    // members, which is exactly the row accumulator.
    newly += make_known(missing, acc);
  }
  return newly;
}

std::span<const PacketId> PeelingDecoder::solved_sources() {
  if (solved_.size() > 1) std::sort(solved_.begin(), solved_.end());
  return solved_;
}

std::uint32_t PeelingDecoder::add_packet(PacketId id,
                                         std::span<const std::uint8_t> payload) {
  if (id >= n())
    throw std::invalid_argument("PeelingDecoder::add_packet: bad id");
  if (symbol_size_ > 0 && payload.size() != symbol_size_)
    throw std::invalid_argument("PeelingDecoder::add_packet: bad payload size");
  return solve(id, payload.data());
}

std::uint32_t PeelingDecoder::force_known(PacketId id,
                                          std::span<const std::uint8_t> payload) {
  if (id >= n())
    throw std::invalid_argument("PeelingDecoder::force_known: bad id");
  if (symbol_size_ > 0 && payload.size() != symbol_size_)
    throw std::invalid_argument("PeelingDecoder::force_known: bad payload size");
  return solve(id, payload.data());
}

}  // namespace fecsched
