#include "fec/rse.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "obs/obs.h"

namespace fecsched {

void gf256_invert_matrix(std::span<std::uint8_t> m, std::uint32_t size,
                         std::vector<std::uint8_t>& scratch) {
  const obs::PhaseScope phase_scope(obs::current(), obs::Phase::kMatrixInvert);
  if (m.size() != static_cast<std::size_t>(size) * size)
    throw std::invalid_argument("gf256_invert_matrix: bad dimensions");
  // Gauss-Jordan in place: the inverse replaces the matrix column by
  // column, so rows are s wide, not the 2s of an augmented [M | I].  In
  // `scratch`, rows padded to whole 64-byte vectors and aligned to 64,
  // then each step's pivot row.  At column `col` the first row at or below
  // col with a lead a != 0 there moves up to col and is scaled by 1/a;
  // then one addmul_matrix call adds f times it to every other row whose
  // col entry f is non-zero, the pivot row the one source.  The inverse's
  // column wants f/a in that entry, so the pivot row carries 1 + 1/a
  // there during the call (f + f * (1 + 1/a) = f/a) and 1/a after it;
  // no other row is written before the call.  Swapping two rows of M
  // swaps the same two columns of its inverse, so the swaps are undone
  // on the columns at the end, last first.
  constexpr std::size_t kAlign = 64;
  const std::size_t s = size;
  const std::size_t stride = (s + kAlign - 1) / kAlign * kAlign;
  scratch.assign(s * stride + kAlign + s * sizeof(std::uint32_t), 0);
  std::uint8_t* rows =
      scratch.data() +
      (-reinterpret_cast<std::uintptr_t>(scratch.data()) & (kAlign - 1));
  std::uint8_t* pivots = rows + s * stride;
  for (std::size_t i = 0; i < s; ++i)
    std::memcpy(rows + i * stride, m.data() + i * s, s);
  const gf::Kernels& eng = gf::kernels();
  // Rows per addmul_matrix call: every other row of any RSE system.
  constexpr std::size_t kGroup = 256;
  std::uint8_t* others[kGroup];
  std::uint8_t factors[kGroup];
  for (std::size_t col = 0; col < s; ++col) {
    std::size_t pivot = col;
    while (pivot < s && rows[pivot * stride + col] == 0) ++pivot;
    if (pivot == s)
      throw std::invalid_argument("gf256_invert_matrix: singular matrix");
    std::uint8_t* piv_row = rows + col * stride;
    if (pivot != col)
      std::swap_ranges(piv_row, piv_row + stride, rows + pivot * stride);
    const auto swapped = static_cast<std::uint32_t>(pivot);
    std::memcpy(pivots + col * sizeof swapped, &swapped, sizeof swapped);
    const std::uint8_t lead = piv_row[col];
    const std::uint8_t lead_inv = gf::inv(lead);
    piv_row[col] = lead ^ 1;  // scaled below to 1 + 1/a
    eng.scale(piv_row, stride, lead_inv);
    const std::uint8_t* source = piv_row;
    for (std::size_t first = 0; first < s; first += kGroup) {
      std::size_t count = 0;
      for (std::size_t i = first; i < std::min(s, first + kGroup); ++i) {
        std::uint8_t* row = rows + i * stride;
        if (i == col || row[col] == 0) continue;
        others[count] = row;
        factors[count++] = row[col];
      }
      eng.addmul_matrix(others, &source, factors, count, 1, stride);
    }
    piv_row[col] = lead_inv;
  }
  for (std::size_t i = 0; i < s; ++i)
    std::memcpy(m.data() + i * s, rows + i * stride, s);
  for (std::size_t col = s; col-- > 0;) {
    std::uint32_t pivot = 0;
    std::memcpy(&pivot, pivots + col * sizeof pivot, sizeof pivot);
    if (pivot == col) continue;
    for (std::size_t i = 0; i < s; ++i)
      std::swap(m[i * s + col], m[i * s + pivot]);
  }
}

void gf256_invert_matrix(std::vector<std::uint8_t>& m, std::uint32_t size) {
  std::vector<std::uint8_t> scratch;
  gf256_invert_matrix(std::span(m), size, scratch);
}

RseCodec::RseCodec(std::uint32_t k, std::uint32_t n) : k_(k), n_(n) {
  if (k == 0 || k > n || n > kMaxN)
    throw std::invalid_argument("RseCodec: require 1 <= k <= n <= 255, got k=" +
                                std::to_string(k) + " n=" + std::to_string(n));
  // Vandermonde V (n x k): V[i][j] = (alpha^i)^j.
  std::vector<std::uint8_t> v(static_cast<std::size_t>(n) * k);
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = 0; j < k; ++j)
      v[static_cast<std::size_t>(i) * k + j] =
          gf::alpha_pow(i * j);
  // Invert the top k x k square in place and form the systematic
  // generator M = V * inv(V_top); only the parity rows (k..n-1) need
  // materialising: one addmul_matrix call, V's bottom rows the
  // coefficients and inv(V_top)'s rows the sources.
  std::vector<std::uint8_t> scratch;
  gf256_invert_matrix(std::span(v).first(static_cast<std::size_t>(k) * k), k,
                      scratch);
  const std::uint32_t parity = n - k;
  parity_rows_.assign(static_cast<std::size_t>(parity) * k, 0);
  const std::uint8_t* inverse_rows[kMaxN];
  std::uint8_t* out_rows[kMaxN];
  for (std::uint32_t j = 0; j < k; ++j)
    inverse_rows[j] = v.data() + static_cast<std::size_t>(j) * k;
  for (std::uint32_t i = 0; i < parity; ++i)
    out_rows[i] = parity_rows_.data() + static_cast<std::size_t>(i) * k;
  gf::kernels().addmul_matrix(out_rows, inverse_rows,
                              v.data() + static_cast<std::size_t>(k) * k,
                              parity, k, k);
}

std::uint8_t RseCodec::coefficient(std::uint32_t i, std::uint32_t j) const {
  if (i >= n_ || j >= k_)
    throw std::invalid_argument("RseCodec::coefficient: index out of range");
  if (i < k_) return i == j ? 1 : 0;
  return parity_rows_[static_cast<std::size_t>(i - k_) * k_ + j];
}

void RseCodec::encode_into(const std::uint8_t* const* source_rows,
                           std::size_t symbol_size,
                           std::uint8_t* const* parity_rows) const {
  if (symbol_size == 0) return;
  for (std::uint32_t i = 0; i < n_ - k_; ++i)
    std::memset(parity_rows[i], 0, symbol_size);
  gf::kernels().addmul_matrix(parity_rows, source_rows, parity_rows_.data(),
                              n_ - k_, k_, symbol_size);
}

std::vector<std::vector<std::uint8_t>>
RseCodec::encode(std::span<const std::vector<std::uint8_t>> source) const {
  if (source.size() != k_)
    throw std::invalid_argument("RseCodec::encode: expected k source symbols");
  const std::size_t sym = source.empty() ? 0 : source[0].size();
  for (const auto& s : source)
    if (s.size() != sym)
      throw std::invalid_argument("RseCodec::encode: symbol size mismatch");
  const std::uint8_t* source_rows[kMaxN];
  std::uint8_t* parity_ptrs[kMaxN];
  for (std::uint32_t j = 0; j < k_; ++j) source_rows[j] = source[j].data();
  std::vector<std::vector<std::uint8_t>> parity(n_ - k_);
  for (std::uint32_t i = 0; i < n_ - k_; ++i) {
    parity[i].resize(sym);
    parity_ptrs[i] = parity[i].data();
  }
  encode_into(source_rows, sym, parity_ptrs);
  return parity;
}

void RseCodec::decode_into(std::span<const ReceivedSymbol> received,
                           std::size_t symbol_size,
                           std::uint8_t* const* source_rows,
                           RseWorkspace& ws) const {
  if (received.size() < k_)
    throw std::invalid_argument("RseCodec::decode: fewer than k packets");
  ws.seen_.assign(n_, 0);
  ws.parity_.clear();
  for (const ReceivedSymbol& r : received) {
    if (r.index >= n_)
      throw std::invalid_argument("RseCodec::decode: index out of range");
    if (ws.seen_[r.index])
      throw std::invalid_argument("RseCodec::decode: duplicate index");
    ws.seen_[r.index] = 1;
    if (r.index < k_) {
      // Systematic: source arrives verbatim.
      if (symbol_size > 0 && source_rows[r.index] != r.payload)
        std::memcpy(source_rows[r.index], r.payload, symbol_size);
    } else {
      ws.parity_.push_back(&r);
    }
  }

  // Erased source positions.
  ws.erased_.clear();
  for (std::uint32_t j = 0; j < k_; ++j)
    if (!ws.seen_[j]) ws.erased_.push_back(j);
  const auto e = static_cast<std::uint32_t>(ws.erased_.size());
  if (e == 0) return;
  if (ws.parity_.size() < e)
    throw std::invalid_argument("RseCodec::decode: not enough parity packets");

  // Build the e x e system over the erased columns using the first e
  // parity packets: A * s_erased = rhs, where rhs is the parity payload
  // minus the known-source contributions (one addmul_matrix call over
  // the parity rows' known-source coefficients).  Then the erased
  // sources are inv(A) * rhs, one more call.
  const std::uint32_t known = k_ - e;
  const std::uint8_t* known_rows[kMaxN];
  for (std::uint32_t j = 0, u = 0; j < k_; ++j)
    if (ws.seen_[j]) known_rows[u++] = source_rows[j];
  ws.a_.resize(static_cast<std::size_t>(e) * e);
  ws.known_.resize(static_cast<std::size_t>(e) * known);
  ws.rhs_.configure(e, symbol_size);
  std::uint8_t* rhs_rows[kMaxN];
  for (std::uint32_t t = 0; t < e; ++t) {
    const ReceivedSymbol& pkt = *ws.parity_[t];
    const std::uint32_t prow = pkt.index - k_;
    const std::uint8_t* row =
        &parity_rows_[static_cast<std::size_t>(prow) * k_];
    for (std::uint32_t u = 0; u < e; ++u)
      ws.a_[static_cast<std::size_t>(t) * e + u] = row[ws.erased_[u]];
    std::uint8_t* known_row =
        ws.known_.data() + static_cast<std::size_t>(t) * known;
    for (std::uint32_t j = 0; j < k_; ++j)
      if (ws.seen_[j]) *known_row++ = row[j];
    rhs_rows[t] = ws.rhs_.row(t);
    if (symbol_size > 0) std::memcpy(rhs_rows[t], pkt.payload, symbol_size);
  }
  const gf::Kernels& eng = gf::kernels();
  eng.addmul_matrix(rhs_rows, known_rows, ws.known_.data(), e, known,
                    symbol_size);
  gf256_invert_matrix(std::span(ws.a_), e, ws.inv_scratch_);
  std::uint8_t* erased_rows[kMaxN];
  for (std::uint32_t u = 0; u < e; ++u) {
    erased_rows[u] = source_rows[ws.erased_[u]];
    if (symbol_size > 0) std::memset(erased_rows[u], 0, symbol_size);
  }
  eng.addmul_matrix(erased_rows, rhs_rows, ws.a_.data(), e, e, symbol_size);
}

std::vector<std::vector<std::uint8_t>>
RseCodec::decode(std::span<const Received> received) const {
  if (received.size() < k_)
    throw std::invalid_argument("RseCodec::decode: fewer than k packets");
  const std::size_t sym = received[0].payload.size();
  std::vector<ReceivedSymbol> views;
  views.reserve(received.size());
  for (const Received& r : received) {
    if (r.index >= n_)
      throw std::invalid_argument("RseCodec::decode: index out of range");
    if (r.payload.size() != sym)
      throw std::invalid_argument("RseCodec::decode: symbol size mismatch");
    views.push_back({r.index, r.payload.data()});
  }
  std::vector<std::vector<std::uint8_t>> source(k_);
  std::uint8_t* source_ptrs[kMaxN];
  for (std::uint32_t j = 0; j < k_; ++j) {
    source[j].resize(sym);
    source_ptrs[j] = source[j].data();
  }
  RseWorkspace ws;
  decode_into(views, sym, source_ptrs, ws);
  return source;
}

}  // namespace fecsched
