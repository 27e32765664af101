#include "stream/sliding_window.h"

#include <algorithm>
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

std::uint8_t sliding_coefficient(const SlidingWindowConfig& cfg,
                                 std::uint64_t repair_seq,
                                 std::uint64_t source_seq) {
  if (cfg.coefficients == SlidingCoefficients::kBinary) return 1;
  const std::uint64_t h = derive_seed(cfg.seed, {repair_seq, source_seq});
  return static_cast<std::uint8_t>(1 + h % 255);
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
    constexpr std::size_t kBatch = 64;
    gf::AddmulTerm terms[kBatch];
    std::size_t nt = 0;
    for (std::uint64_t seq = out.first; seq < out.last; ++seq) {
      if (nt == kBatch) {
        eng.addmul_batch(out.payload.data(), terms, nt, symbol_size_);
        nt = 0;
      }
      terms[nt++] = {history_.row(seq % config_.window),
                     sliding_coefficient(config_, out.repair_seq, seq)};
    }
    eng.addmul_batch(out.payload.data(), terms, nt, symbol_size_);
  } else {
    out.payload.clear();
  }
}

// ---------------------------------------------------------------- decoder

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
  fate_.clear();
  symbols_.clear();
  rows_.clear();
}

bool SlidingWindowDecoder::is_known(std::uint64_t seq) const {
  return fate(seq) == 1;
}

bool SlidingWindowDecoder::is_lost(std::uint64_t seq) const {
  return fate(seq) == 2;
}

std::span<const std::uint8_t> SlidingWindowDecoder::symbol(
    std::uint64_t seq) const {
  if (symbol_size_ == 0)
    throw std::logic_error("SlidingWindowDecoder::symbol: structure-only mode");
  if (!is_known(seq))
    throw std::logic_error("SlidingWindowDecoder::symbol: seq not known");
  return symbols_[seq];
}

namespace {

// The term of column `seq` in an ascending term list, or end().
template <typename Terms>
auto find_term(Terms& terms, std::uint64_t seq) {
  const auto t = std::lower_bound(
      terms.begin(), terms.end(), seq,
      [](const auto& term, std::uint64_t s) { return term.first < s; });
  return t != terms.end() && t->first == seq ? t : terms.end();
}

}  // namespace

auto SlidingWindowDecoder::first_row_from(std::uint64_t seq)
    -> std::vector<Row>::iterator {
  return std::lower_bound(
      rows_.begin(), rows_.end(), seq,
      [](const Row& r, std::uint64_t s) { return r.pivot() < s; });
}

void SlidingWindowDecoder::learn(std::uint64_t seq,
                                 std::vector<std::uint8_t> payload,
                                 std::vector<std::uint64_t>& newly) {
  if (fate_.size() <= seq) fate_.resize(seq + 1, 0);
  fate_[seq] = 1;
  ++known_n_;
  if (symbol_size_ > 0) {
    if (symbols_.size() <= seq) symbols_.resize(seq + 1);
    symbols_[seq] = std::move(payload);
  }
  newly.push_back(seq);
}

void SlidingWindowDecoder::add_row(Row& dst, const Row& src, std::uint8_t f) {
  std::vector<Term>& out = scratch_terms_;
  out.clear();
  auto a = dst.terms.begin();
  auto b = src.terms.begin();
  while (a != dst.terms.end() || b != src.terms.end()) {
    if (b == src.terms.end() || (a != dst.terms.end() && a->first < b->first)) {
      out.push_back(*a++);
    } else if (a == dst.terms.end() || b->first < a->first) {
      out.emplace_back(b->first, gf::mul(f, b->second));
      ++b;
    } else {
      const std::uint8_t c = a->second ^ gf::mul(f, b->second);
      if (c != 0) out.emplace_back(a->first, c);
      ++a;
      ++b;
    }
  }
  dst.terms.swap(out);
  if (symbol_size_ > 0) gf::addmul(dst.rhs, src.rhs, f);
}

void SlidingWindowDecoder::insert_row(Row row) {
  const std::uint8_t lead = row.terms.front().second;
  if (lead != 1) {
    const std::uint8_t inv = gf::inv(lead);
    for (Term& term : row.terms) term.second = gf::mul(term.second, inv);
    if (symbol_size_ > 0) gf::scale(row.rhs, inv);
  }
  // Only rows with an earlier pivot can hold the new pivot, and adding
  // the new row leaves their pivots in place: its other terms are free
  // columns to the right of the pivot.
  const auto pos = first_row_from(row.pivot());
  for (auto it = rows_.begin(); it != pos; ++it) {
    const auto t = find_term(it->terms, row.pivot());
    if (t != it->terms.end()) add_row(*it, row, t->second);
  }
  rows_.insert(pos, std::move(row));
}

void SlidingWindowDecoder::harvest(std::vector<std::uint64_t>& newly) {
  // A single-term row's pivot is zero in every other row, so learning it
  // frees nothing further.
  auto out = rows_.begin();
  for (Row& row : rows_) {
    if (row.terms.size() == 1) {
      learn(row.pivot(), std::move(row.rhs), newly);
      continue;
    }
    if (&*out != &row) *out = std::move(row);
    ++out;
  }
  rows_.erase(out, rows_.end());
}

std::vector<std::uint64_t> SlidingWindowDecoder::on_source(
    std::uint64_t seq, std::span<const std::uint8_t> payload) {
  std::vector<std::uint64_t> newly;
  if (fate(seq) != 0) return newly;  // duplicate or past the deadline
  if (symbol_size_ > 0 && payload.size() != symbol_size_)
    throw std::invalid_argument(
        "SlidingWindowDecoder::on_source: payload size mismatch");
  learn(seq, {payload.begin(), payload.end()}, newly);
  // Only rows pivoted at or before seq can hold it; the last of them may
  // be the one pivoted on seq.
  const auto end = first_row_from(seq + 1);
  const bool pivoted = end != rows_.begin() && std::prev(end)->pivot() == seq;
  std::optional<obs::PhaseScope> phase_scope;
  for (auto it = rows_.begin(); it != end; ++it) {
    const auto t = find_term(it->terms, seq);
    if (t == it->terms.end()) continue;
    // Profiler: the elimination is the matrix-inversion phase of the
    // sliding-window decode (src/obs/); dormant cost is one atomic load.
    if (!phase_scope)
      phase_scope.emplace(obs::current(), obs::Phase::kMatrixInvert);
    if (symbol_size_ > 0) gf::addmul(it->rhs, symbols_[seq], t->second);
    it->terms.erase(t);
  }
  if (!phase_scope) return newly;
  if (pivoted) {
    // The row lost its pivot; its other terms are free columns, so it
    // re-enters the system as a freshly reduced row.
    Row row = std::move(*std::prev(end));
    rows_.erase(std::prev(end));
    insert_row(std::move(row));
  }
  harvest(newly);
  return newly;
}

std::vector<std::uint64_t> SlidingWindowDecoder::on_repair(
    const RepairPacket& repair) {
  std::vector<std::uint64_t> newly;
  if (symbol_size_ > 0 && repair.payload.size() != symbol_size_)
    throw std::invalid_argument(
        "SlidingWindowDecoder::on_repair: payload size mismatch");
  Row row;
  row.terms.reserve(std::min<std::uint64_t>(repair.last - repair.first,
                                            config_.window));
  row.rhs = repair.payload;
  for (std::uint64_t s = repair.first; s < repair.last; ++s) {
    const std::uint8_t f = fate(s);
    // Pinned on an expired source: with in-order delivery (the horizon
    // trails the newest repair window) this cannot happen; under
    // reordering, the expired term could only be eliminated against
    // another repair covering it, a pairing this decoder does not chase.
    if (f == 2) return newly;
    if (f == 0)
      row.terms.emplace_back(
          s, sliding_coefficient(config_, repair.repair_seq, s));
    else if (symbol_size_ > 0)
      gf::addmul(row.rhs, symbols_[s],
                 sliding_coefficient(config_, repair.repair_seq, s));
  }
  if (row.terms.empty()) return newly;  // fully redundant
  const obs::PhaseScope phase_scope(obs::current(), obs::Phase::kMatrixInvert);
  // Forward-reduce against the pivot rows.  A pivot row's other terms are
  // free columns, so eliminating one pivot never brings in another, and
  // no row pivoted before the repair's oldest unknown can match.
  for (auto it = first_row_from(row.pivot()); it != rows_.end(); ++it) {
    const auto t = find_term(row.terms, it->pivot());
    if (t != row.terms.end()) add_row(row, *it, t->second);
  }
  if (row.terms.empty()) return newly;  // a combination of pending rows
  insert_row(std::move(row));
  harvest(newly);
  return newly;
}

std::vector<std::uint64_t> SlidingWindowDecoder::give_up_before(
    std::uint64_t horizon) {
  std::vector<std::uint64_t> newly_lost;
  if (horizon <= horizon_) return newly_lost;
  if (fate_.size() < horizon) fate_.resize(horizon, 0);
  for (std::uint64_t seq = horizon_; seq < horizon; ++seq) {
    if (fate_[seq] == 0) {
      fate_[seq] = 2;
      ++lost_n_;
      newly_lost.push_back(seq);
    }
  }
  horizon_ = horizon;
  // Dropping every row that touches an expired source loses no
  // recoverable information: each row's *oldest* term is its pivot, and
  // a pivot appears in exactly one row.  A row touching an expired source
  // therefore has an expired pivot, and any linear combination of RREF
  // rows (with anything, including future repairs) retains every
  // participating pivot — so such rows can never help determine a
  // still-live source.  They are the rows pivoted below the horizon.
  rows_.erase(rows_.begin(), first_row_from(horizon));
  return newly_lost;
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
