#include "fec/rse.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "obs/obs.h"

namespace fecsched {

namespace {

// Dense row-major matrix product: out(a x c) = lhs(a x b) * rhs(b x c).
std::vector<std::uint8_t> gf_matmul(const std::vector<std::uint8_t>& lhs,
                                    const std::vector<std::uint8_t>& rhs,
                                    std::uint32_t a, std::uint32_t b,
                                    std::uint32_t c) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(a) * c, 0);
  for (std::uint32_t i = 0; i < a; ++i) {
    for (std::uint32_t t = 0; t < b; ++t) {
      const std::uint8_t coeff = lhs[static_cast<std::size_t>(i) * b + t];
      if (coeff == 0) continue;
      gf::addmul(std::span(out).subspan(static_cast<std::size_t>(i) * c, c),
                 std::span(rhs).subspan(static_cast<std::size_t>(t) * c, c),
                 coeff);
    }
  }
  return out;
}

}  // namespace

void gf256_invert_matrix(std::span<std::uint8_t> m, std::uint32_t size,
                         std::vector<std::uint8_t>& scratch) {
  const obs::PhaseScope phase_scope(obs::current(), obs::Phase::kMatrixInvert);
  if (m.size() != static_cast<std::size_t>(size) * size)
    throw std::invalid_argument("gf256_invert_matrix: bad dimensions");
  // Gauss-Jordan on one augmented [M | I] buffer whose rows are padded to
  // whole 32-byte chunks.  At column `col` no row yet to be a pivot has a
  // non-zero left of `col`, so the swap, the scale and every elimination
  // start at the chunk holding `col` and run to the row's end: one kernel
  // call each, on whole chunks only, with no scalar tail.
  constexpr std::size_t kChunk = 32;
  const std::size_t s = size;
  const std::size_t stride = (2 * s + kChunk - 1) / kChunk * kChunk;
  scratch.assign(s * stride, 0);
  std::uint8_t* aug = scratch.data();
  for (std::size_t i = 0; i < s; ++i) {
    std::memcpy(aug + i * stride, m.data() + i * s, s);
    aug[i * stride + s + i] = 1;
  }
  const gf::Kernels& eng = gf::kernels();
  for (std::size_t col = 0; col < s; ++col) {
    // Find a non-zero pivot in this column.
    std::size_t pivot = col;
    while (pivot < s && aug[pivot * stride + col] == 0) ++pivot;
    if (pivot == s)
      throw std::invalid_argument("gf256_invert_matrix: singular matrix");
    const std::size_t from = col / kChunk * kChunk;
    const std::size_t len = stride - from;
    std::uint8_t* piv_row = aug + col * stride + from;
    if (pivot != col)
      std::swap_ranges(piv_row, piv_row + len, aug + pivot * stride + from);
    // Normalise the pivot row, then eliminate the column from every other.
    eng.scale(piv_row, len, gf::inv(aug[col * stride + col]));
    for (std::size_t row = 0; row < s; ++row) {
      const std::uint8_t factor = aug[row * stride + col];
      if (row == col || factor == 0) continue;
      eng.addmul(aug + row * stride + from, piv_row, len, factor);
    }
  }
  for (std::size_t i = 0; i < s; ++i)
    std::memcpy(m.data() + i * s, aug + i * stride + s, s);
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
  // Invert the top k x k square and form the systematic generator
  // M = V * inv(V_top); only the parity rows (k..n-1) need materialising.
  std::vector<std::uint8_t> top(v.begin(),
                                v.begin() + static_cast<std::size_t>(k) * k);
  gf256_invert_matrix(top, k);
  const std::uint32_t parity = n - k;
  std::vector<std::uint8_t> bottom(
      v.begin() + static_cast<std::size_t>(k) * k, v.end());
  parity_rows_ = gf_matmul(bottom, top, parity, k, k);
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
  const gf::Kernels& eng = gf::kernels();
  gf::AddmulTerm terms[kMaxN];
  for (std::uint32_t i = 0; i < n_ - k_; ++i) {
    std::memset(parity_rows[i], 0, symbol_size);
    const std::uint8_t* row = &parity_rows_[static_cast<std::size_t>(i) * k_];
    std::size_t nt = 0;
    for (std::uint32_t j = 0; j < k_; ++j)
      if (row[j] != 0) terms[nt++] = {source_rows[j], row[j]};
    eng.addmul_batch(parity_rows[i], terms, nt, symbol_size);
  }
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
  // minus the known-source contributions.
  const gf::Kernels& eng = gf::kernels();
  gf::AddmulTerm terms[kMaxN];
  ws.a_.assign(static_cast<std::size_t>(e) * e, 0);
  ws.rhs_.configure(e, symbol_size);
  for (std::uint32_t t = 0; t < e; ++t) {
    const ReceivedSymbol& pkt = *ws.parity_[t];
    const std::uint32_t prow = pkt.index - k_;
    const std::uint8_t* row =
        &parity_rows_[static_cast<std::size_t>(prow) * k_];
    for (std::uint32_t u = 0; u < e; ++u)
      ws.a_[static_cast<std::size_t>(t) * e + u] = row[ws.erased_[u]];
    if (symbol_size > 0) std::memcpy(ws.rhs_.row(t), pkt.payload, symbol_size);
    std::size_t nt = 0;
    for (std::uint32_t j = 0; j < k_; ++j)
      if (ws.seen_[j] && row[j] != 0) terms[nt++] = {source_rows[j], row[j]};
    eng.addmul_batch(ws.rhs_.row(t), terms, nt, symbol_size);
  }
  gf256_invert_matrix(std::span(ws.a_), e, ws.inv_scratch_);
  for (std::uint32_t u = 0; u < e; ++u) {
    std::uint8_t* dst = source_rows[ws.erased_[u]];
    if (symbol_size > 0) std::memset(dst, 0, symbol_size);
    std::size_t nt = 0;
    for (std::uint32_t t = 0; t < e; ++t) {
      const std::uint8_t c = ws.a_[static_cast<std::size_t>(u) * e + t];
      if (c != 0) terms[nt++] = {ws.rhs_.row(t), c};
    }
    eng.addmul_batch(dst, terms, nt, symbol_size);
  }
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
