#include "stream/sliding_window.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace fecsched {

void SlidingWindowConfig::validate() const {
  if (window == 0)
    throw std::invalid_argument("SlidingWindowConfig: window must be >= 1");
  if (repair_interval == 0)
    throw std::invalid_argument(
        "SlidingWindowConfig: repair_interval must be >= 1");
}

namespace {

/// The coefficients of one repair: derive_seed(seed, {repair_seq}) once,
/// then one extend_seed per source, which is derive_seed(seed,
/// {repair_seq, source_seq}).
class RepairCoefficients {
 public:
  RepairCoefficients(const SlidingWindowConfig& cfg, std::uint64_t repair_seq)
      : binary_(cfg.coefficients == SlidingCoefficients::kBinary),
        prefix_(binary_ ? 0 : derive_seed(cfg.seed, {repair_seq})) {}

  std::uint8_t operator()(std::uint64_t source_seq) const {
    if (binary_) return 1;
    const std::uint64_t h = extend_seed(prefix_, source_seq);
    return static_cast<std::uint8_t>(1 + h % 255);
  }

 private:
  bool binary_;
  std::uint64_t prefix_;
};

}  // namespace

std::uint8_t sliding_coefficient(const SlidingWindowConfig& cfg,
                                 std::uint64_t repair_seq,
                                 std::uint64_t source_seq) {
  return RepairCoefficients(cfg, repair_seq)(source_seq);
}

// ---------------------------------------------------------------- encoder

SlidingWindowEncoder::SlidingWindowEncoder(const SlidingWindowConfig& config,
                                           std::size_t symbol_size)
    : config_(config), symbol_size_(symbol_size) {
  config_.validate();
  if (symbol_size_ > 0) history_.configure(config_.window, symbol_size_);
}

std::uint64_t SlidingWindowEncoder::push_source(
    std::span<const std::uint8_t> payload) {
  if (symbol_size_ > 0) {
    if (payload.size() != symbol_size_)
      throw std::invalid_argument(
          "SlidingWindowEncoder::push_source: payload size mismatch");
    std::memcpy(history_.row(next_ % config_.window), payload.data(),
                symbol_size_);
  }
  return next_++;
}

RepairPacket SlidingWindowEncoder::make_repair() {
  RepairPacket repair;
  make_repair(repair);
  return repair;
}

void SlidingWindowEncoder::make_repair(RepairPacket& out) {
  if (next_ == 0)
    throw std::logic_error(
        "SlidingWindowEncoder::make_repair: no source packets yet");
  out.repair_seq = repairs_++;
  out.last = next_;
  out.first = next_ >= config_.window ? next_ - config_.window : 0;
  if (symbol_size_ > 0) {
    out.payload.assign(symbol_size_, 0);
    const gf::Kernels& eng = gf::kernels();
    const RepairCoefficients coefficient(config_, out.repair_seq);
    constexpr std::size_t kBatch = 64;
    gf::AddmulTerm terms[kBatch];
    std::size_t nt = 0;
    for (std::uint64_t seq = out.first; seq < out.last; ++seq) {
      if (nt == kBatch) {
        eng.addmul_batch(out.payload.data(), terms, nt, symbol_size_);
        nt = 0;
      }
      terms[nt++] = {history_.row(seq % config_.window), coefficient(seq)};
    }
    eng.addmul_batch(out.payload.data(), terms, nt, symbol_size_);
  } else {
    out.payload.clear();
  }
}

// ---------------------------------------------------------------- decoder

namespace {

/// Word `w` of a seq-indexed bitset (0 past its end).
std::uint64_t word(const std::vector<std::uint64_t>& bits, std::uint64_t w) {
  return w < bits.size() ? bits[w] : 0;
}

/// The bits of word `w` whose seqs lie in [first, last); the word must
/// overlap that span.
std::uint64_t span_mask(std::uint64_t first, std::uint64_t last,
                        std::uint64_t w) {
  const std::uint64_t base = w << 6;
  const std::uint64_t lo = std::max(first, base) - base;       // 0..63
  const std::uint64_t hi = std::min(last, base + 64) - base;   // 1..64
  const std::uint64_t below_hi =
      hi == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1;
  return below_hi & (~std::uint64_t{0} << lo);
}

/// The index of the first non-zero byte of p[0, n), or n, read a word at
/// a time: a row that recovers a source is all zeros past its pivot.
std::size_t first_nonzero(const std::uint8_t* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof w);
    if (w != 0) break;
  }
  while (i < n && p[i] == 0) ++i;
  return i;
}

}  // namespace

SlidingWindowDecoder::SlidingWindowDecoder(const SlidingWindowConfig& config,
                                           std::size_t symbol_size)
    : config_(config), symbol_size_(symbol_size) {
  config_.validate();
}

void SlidingWindowDecoder::reset(const SlidingWindowConfig& config) {
  config_ = config;
  config_.validate();
  horizon_ = 0;
  known_n_ = 0;
  lost_n_ = 0;
  known_.clear();
  lost_.clear();
  symbols_.clear();
  for (Row& row : rows_) release(row);
  rows_.clear();
}

bool SlidingWindowDecoder::is_known(std::uint64_t seq) const {
  return word(known_, seq >> 6) >> (seq & 63) & 1;
}

bool SlidingWindowDecoder::is_lost(std::uint64_t seq) const {
  return word(lost_, seq >> 6) >> (seq & 63) & 1;
}

std::span<const std::uint8_t> SlidingWindowDecoder::symbol(
    std::uint64_t seq) const {
  if (symbol_size_ == 0)
    throw std::logic_error("SlidingWindowDecoder::symbol: structure-only mode");
  if (!is_known(seq))
    throw std::logic_error("SlidingWindowDecoder::symbol: seq not known");
  return symbols_[seq];
}

auto SlidingWindowDecoder::take_row(std::uint64_t pivot, std::size_t width)
    -> Row {
  Row row;
  if (!spare_.empty()) {
    row = std::move(spare_.back());
    spare_.pop_back();
  }
  row.pivot = pivot;
  row.coef.assign(width, 0);
  return row;
}

void SlidingWindowDecoder::release(Row& row) {
  spare_.push_back(std::move(row));
}

void SlidingWindowDecoder::learn(std::uint64_t seq,
                                 std::vector<std::uint8_t> payload) {
  if (known_.size() <= seq >> 6) known_.resize((seq >> 6) + 1, 0);
  known_[seq >> 6] |= std::uint64_t{1} << (seq & 63);
  ++known_n_;
  if (symbol_size_ > 0) {
    if (symbols_.size() <= seq) symbols_.resize(seq + 1);
    symbols_[seq] = std::move(payload);
  }
  newly_.push_back(seq);
}

void SlidingWindowDecoder::add_row(Row& dst, const Row& src, std::uint8_t f) {
  const std::size_t offset = src.pivot - dst.pivot;
  const std::size_t width = offset + src.coef.size();
  if (dst.coef.size() < width) dst.coef.resize(width, 0);
  const gf::Kernels& eng = gf::kernels();
  eng.addmul(dst.coef.data() + offset, src.coef.data(), src.coef.size(), f);
  if (symbol_size_ > 0)
    eng.addmul(dst.rhs.data(), src.rhs.data(), symbol_size_, f);
}

bool SlidingWindowDecoder::insert_row(Row row) {
  const std::size_t lead = first_nonzero(row.coef.data(), row.coef.size());
  if (lead == row.coef.size()) {
    release(row);
    return false;
  }
  if (lead > 0) {
    row.coef.erase(row.coef.begin(),
                   row.coef.begin() + static_cast<std::ptrdiff_t>(lead));
    row.pivot += lead;
  }
  if (row.coef[0] != 1) {
    const std::uint8_t inv = gf::inv(row.coef[0]);
    const gf::Kernels& eng = gf::kernels();
    eng.scale(row.coef.data(), row.coef.size(), inv);
    if (symbol_size_ > 0) eng.scale(row.rhs.data(), symbol_size_, inv);
  }
  // Only rows with an earlier pivot can hold the new pivot, and adding
  // the new row leaves their pivots in place: its other terms are free
  // columns to the right of the pivot.
  auto pos = rows_.begin();
  for (; pos != rows_.end() && pos->pivot < row.pivot; ++pos)
    if (const std::uint8_t c = pos->at(row.pivot)) add_row(*pos, row, c);
  rows_.insert(pos, std::move(row));
  return true;
}

void SlidingWindowDecoder::harvest() {
  // A single-term row's pivot is zero in every other row, so learning it
  // frees nothing further.
  auto out = rows_.begin();
  for (Row& row : rows_) {
    const std::size_t rest = row.coef.size() - 1;
    if (first_nonzero(row.coef.data() + 1, rest) == rest) {
      learn(row.pivot, std::move(row.rhs));
      release(row);
      continue;
    }
    if (&*out != &row) *out = std::move(row);
    ++out;
  }
  rows_.erase(out, rows_.end());
}

const std::vector<std::uint64_t>& SlidingWindowDecoder::on_source(
    std::uint64_t seq, std::span<const std::uint8_t> payload) {
  newly_.clear();
  if (is_known(seq) || is_lost(seq)) return newly_;  // duplicate or expired
  if (symbol_size_ > 0 && payload.size() != symbol_size_)
    throw std::invalid_argument(
        "SlidingWindowDecoder::on_source: payload size mismatch");
  learn(seq, {payload.begin(), payload.end()});
  // Only rows pivoted at or before seq can hold it; the last of them may
  // be the one pivoted on seq.
  auto it = rows_.begin();
  std::optional<obs::PhaseScope> phase_scope;
  for (; it != rows_.end() && it->pivot <= seq; ++it) {
    const std::uint8_t c = it->at(seq);
    if (c == 0) continue;
    // Profiler: the elimination is the matrix-inversion phase of the
    // sliding-window decode (src/obs/); dormant cost is one atomic load.
    if (!phase_scope)
      phase_scope.emplace(obs::current(), obs::Phase::kMatrixInvert);
    if (symbol_size_ > 0) gf::addmul(it->rhs, symbols_[seq], c);
    it->coef[seq - it->pivot] = 0;
  }
  if (!phase_scope) return newly_;
  if (const auto last = std::prev(it); last->pivot == seq) {
    // The row lost its pivot; its other terms are free columns, so it
    // re-enters the system as a freshly reduced row.
    Row row = std::move(*last);
    rows_.erase(last);
    insert_row(std::move(row));
  }
  harvest();
  return newly_;
}

const std::vector<std::uint64_t>& SlidingWindowDecoder::on_repair(
    const RepairPacket& repair) {
  newly_.clear();
  if (symbol_size_ > 0 && repair.payload.size() != symbol_size_)
    throw std::invalid_argument(
        "SlidingWindowDecoder::on_repair: payload size mismatch");
  // The span's fates first, 64 sources per word, so a repair that carries
  // nothing costs no coefficient, copy or byte operation.  Pinned on an
  // expired source: with in-order delivery (the horizon trails the newest
  // repair window) this cannot happen; under reordering, the expired term
  // could only be eliminated against another repair covering it, a
  // pairing this decoder does not chase.
  if (repair.first >= repair.last) return newly_;
  const std::uint64_t w0 = repair.first >> 6;
  const std::uint64_t w1 = (repair.last - 1) >> 6;
  std::uint64_t oldest = repair.last;
  std::uint64_t newest = 0;
  for (std::uint64_t w = w0; w <= w1; ++w) {
    const std::uint64_t mask = span_mask(repair.first, repair.last, w);
    if (word(lost_, w) & mask) return newly_;
    const std::uint64_t unknown = ~word(known_, w) & mask;
    if (unknown == 0) continue;
    if (oldest == repair.last) oldest = (w << 6) + std::countr_zero(unknown);
    newest = (w << 6) + 63 - std::countl_zero(unknown);
  }
  if (oldest == repair.last) return newly_;  // fully redundant
  const RepairCoefficients coefficient(config_, repair.repair_seq);
  Row row = take_row(oldest, newest - oldest + 1);
  // The known sources' terms leave the equation in one batch.
  scratch_batch_.clear();
  for (std::uint64_t w = w0; w <= w1; ++w) {
    const std::uint64_t mask = span_mask(repair.first, repair.last, w);
    const std::uint64_t known = word(known_, w) & mask;
    for (std::uint64_t m = ~known & mask; m != 0; m &= m - 1) {
      const std::uint64_t s = (w << 6) + std::countr_zero(m);
      row.coef[s - oldest] = coefficient(s);
    }
    if (symbol_size_ == 0) continue;
    for (std::uint64_t m = known; m != 0; m &= m - 1) {
      const std::uint64_t s = (w << 6) + std::countr_zero(m);
      scratch_batch_.push_back({symbols_[s].data(), coefficient(s)});
    }
  }
  if (symbol_size_ > 0) {
    row.rhs.assign(repair.payload.begin(), repair.payload.end());
    gf::kernels().addmul_batch(row.rhs.data(), scratch_batch_.data(),
                               scratch_batch_.size(), symbol_size_);
  }
  const obs::PhaseScope phase_scope(obs::current(), obs::Phase::kMatrixInvert);
  // Forward-reduce against the pivot rows.  A pivot row's other terms are
  // free columns, so eliminating one pivot never brings in another, and
  // no row pivoted before the repair's oldest unknown can match.  A row
  // pivoted past the repair row's end cannot match, nor can any after it:
  // the repair row only grows by rows that do match.
  for (auto it = std::lower_bound(
           rows_.begin(), rows_.end(), row.pivot,
           [](const Row& r, std::uint64_t s) { return r.pivot < s; });
       it != rows_.end(); ++it) {
    if (it->pivot - row.pivot >= row.coef.size()) break;
    if (const std::uint8_t c = row.coef[it->pivot - row.pivot])
      add_row(row, *it, c);
  }
  // A row with no coefficient left is a combination of pending rows.
  if (insert_row(std::move(row))) harvest();
  return newly_;
}

const std::vector<std::uint64_t>& SlidingWindowDecoder::give_up_before(
    std::uint64_t horizon) {
  newly_.clear();
  if (horizon <= horizon_) return newly_;
  // No source at or past the old horizon is lost yet.
  for (std::uint64_t w = horizon_ >> 6; w <= (horizon - 1) >> 6; ++w) {
    const std::uint64_t expired =
        span_mask(horizon_, horizon, w) & ~word(known_, w);
    if (expired == 0) continue;
    if (lost_.size() <= w) lost_.resize(w + 1, 0);
    lost_[w] |= expired;
    lost_n_ += static_cast<std::uint64_t>(std::popcount(expired));
    for (std::uint64_t m = expired; m != 0; m &= m - 1)
      newly_.push_back((w << 6) + std::countr_zero(m));
  }
  horizon_ = horizon;
  // Dropping every row that touches an expired source loses no
  // recoverable information: each row's *oldest* term is its pivot, and
  // a pivot appears in exactly one row.  A row touching an expired source
  // therefore has an expired pivot, and any linear combination of RREF
  // rows (with anything, including future repairs) retains every
  // participating pivot — so such rows can never help determine a
  // still-live source.  They are the rows pivoted below the horizon.
  auto end = rows_.begin();
  for (; end != rows_.end() && end->pivot < horizon; ++end) release(*end);
  rows_.erase(rows_.begin(), end);
  return newly_;
}

// ------------------------------------------------------- support structure

SparseBinaryMatrix sliding_support_matrix(const SlidingWindowConfig& config,
                                          std::uint32_t source_count) {
  config.validate();
  const std::uint32_t repairs = source_count / config.repair_interval;
  std::vector<SparseBinaryMatrix::Entry> entries;
  for (std::uint32_t r = 0; r < repairs; ++r) {
    const std::uint32_t produced = (r + 1) * config.repair_interval;
    const std::uint32_t first =
        produced >= config.window ? produced - config.window : 0;
    for (std::uint32_t s = first; s < produced; ++s)
      entries.push_back({r, s});
    entries.push_back({r, source_count + r});
  }
  return SparseBinaryMatrix(repairs, source_count + repairs,
                            std::move(entries));
}

}  // namespace fecsched
