#include "fec/ldgm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

#include "gf/gf256_kernels.h"
#include "util/rng.h"

namespace fecsched {

LdgmVariant ldgm_variant(CodeKind code) {
  switch (code) {
    case CodeKind::kLdgmIdentity: return LdgmVariant::kIdentity;
    case CodeKind::kLdgmStaircase: return LdgmVariant::kStaircase;
    case CodeKind::kLdgmTriangle: return LdgmVariant::kTriangle;
    default:
      throw std::invalid_argument("ldgm_variant: " +
                                  std::string(to_string(code)) +
                                  " is not an LDGM code");
  }
}

namespace {

// Resolve the per-column left degrees: constant (regular code) or drawn
// from an irregular distribution assigned to randomly chosen columns.
std::vector<std::uint32_t> column_degrees(const LdgmParams& params, Rng& rng) {
  const std::uint32_t k = params.k;
  const std::uint32_t rows = params.n - params.k;
  if (params.irregular_left_degrees.empty())
    return std::vector<std::uint32_t>(k, params.left_degree);

  double fraction_sum = 0.0;
  for (const DegreeFraction& df : params.irregular_left_degrees) {
    if (df.degree == 0 || df.degree > rows)
      throw std::invalid_argument("LdgmCode: irregular degree out of [1, n-k]");
    if (df.fraction < 0.0)
      throw std::invalid_argument("LdgmCode: negative degree fraction");
    fraction_sum += df.fraction;
  }
  if (std::abs(fraction_sum - 1.0) > 1e-6)
    throw std::invalid_argument("LdgmCode: degree fractions must sum to 1");

  // Largest-remainder apportionment of the k columns to the groups.
  std::vector<std::uint32_t> counts(params.irregular_left_degrees.size(), 0);
  std::uint32_t assigned = 0;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t g = 0; g < counts.size(); ++g) {
    const double exact = params.irregular_left_degrees[g].fraction * k;
    counts[g] = static_cast<std::uint32_t>(exact);
    assigned += counts[g];
    remainders.push_back({exact - counts[g], g});
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < k; ++i, ++assigned)
    ++counts[remainders[i % remainders.size()].second];

  std::vector<std::uint32_t> degrees;
  degrees.reserve(k);
  for (std::size_t g = 0; g < counts.size(); ++g)
    for (std::uint32_t c = 0; c < counts[g]; ++c)
      degrees.push_back(params.irregular_left_degrees[g].degree);
  shuffle(degrees, rng);
  return degrees;
}

// Builds the left part H1: `degrees[col]` distinct ones per source column,
// spread as evenly as possible across the n-k rows.  A balanced bag of row
// indices is shuffled and consumed degree-at-a-time per column; a
// duplicate row within one column is swapped with the next compatible bag
// element (random replacement as a last resort).
void build_left_part(std::uint32_t k, std::uint32_t rows,
                     std::span<const std::uint32_t> degrees, Rng& rng,
                     std::vector<SparseBinaryMatrix::Entry>& entries) {
  std::size_t total = 0;
  for (std::uint32_t d : degrees) total += d;
  const std::size_t base = total / rows;
  const std::size_t remainder = total % rows;

  std::vector<std::uint32_t> bag;
  bag.reserve(total);
  // The `remainder` rows receiving one extra edge are chosen at random so
  // no systematic bias favours low row indices.
  std::vector<std::uint32_t> extra =
      sample_without_replacement(rows, static_cast<std::uint32_t>(remainder), rng);
  std::vector<char> gets_extra(rows, 0);
  for (std::uint32_t r : extra) gets_extra[r] = 1;
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::size_t count = base + (gets_extra[r] ? 1 : 0);
    for (std::size_t i = 0; i < count; ++i) bag.push_back(r);
  }
  shuffle(bag, rng);

  std::size_t pos = 0;
  for (std::uint32_t col = 0; col < k; ++col) {
    const std::size_t start = pos;
    for (std::uint32_t d = 0; d < degrees[col]; ++d) {
      const auto in_column = [&](std::uint32_t row) {
        for (std::size_t t = start; t < pos; ++t)
          if (bag[t] == row) return true;
        return false;
      };
      std::size_t probe = pos;
      while (probe < bag.size() && in_column(bag[probe])) ++probe;
      if (probe == bag.size()) {
        // Bag exhausted of compatible rows; draw a fresh distinct row.
        std::uint32_t r;
        do {
          r = static_cast<std::uint32_t>(rng.below(rows));
        } while (in_column(r));
        bag[pos] = r;
      } else if (probe != pos) {
        std::swap(bag[pos], bag[probe]);
      }
      entries.push_back({bag[pos], col});
      ++pos;
    }
  }
}

}  // namespace

LdgmCode::LdgmCode(const LdgmParams& params)
    : params_(params),
      h_([&params]() -> SparseBinaryMatrix {
        const std::uint32_t k = params.k;
        const std::uint32_t n = params.n;
        if (k == 0 || n <= k)
          throw std::invalid_argument("LdgmCode: require k >= 1 and n > k");
        const std::uint32_t rows = n - k;
        if (params.irregular_left_degrees.empty() &&
            (params.left_degree == 0 || params.left_degree > rows))
          throw std::invalid_argument(
              "LdgmCode: left_degree must be in [1, n-k]");

        Rng rng(params.seed);
        const std::vector<std::uint32_t> degrees = column_degrees(params, rng);
        std::vector<SparseBinaryMatrix::Entry> entries;
        entries.reserve(static_cast<std::size_t>(k) * params.left_degree +
                        2u * rows + rows * params.triangle_extra_per_row);
        build_left_part(k, rows, degrees, rng, entries);

        // Lower part P.
        for (std::uint32_t i = 0; i < rows; ++i)
          entries.push_back({i, k + i});  // diagonal (all variants)
        if (params.variant != LdgmVariant::kIdentity)
          for (std::uint32_t i = 1; i < rows; ++i)
            entries.push_back({i, k + i - 1});  // staircase sub-diagonal
        if (params.variant == LdgmVariant::kTriangle) {
          // Progressive dependency between check nodes: every check row i
          // (i >= 2) additionally references `triangle_extra_per_row`
          // uniformly chosen *earlier* parity packets (columns < i-1, i.e.
          // strictly below the staircase diagonal).  Early parity packets
          // thereby gain progressively more dependents, giving Fig. 2's
          // structure; per-row weight stays bounded so peeling keeps its
          // cascades (this rule reproduces the paper's Triangle-vs-
          // Staircase ordering; see bench_ablation_triangle_fill).
          for (std::uint32_t i = 2; i < rows; ++i)
            for (std::uint32_t f = 0; f < params.triangle_extra_per_row; ++f) {
              const auto col = static_cast<std::uint32_t>(rng.below(i - 1));
              entries.push_back({i, k + col});
            }
        }
        return SparseBinaryMatrix(rows, n, std::move(entries));
      }()) {}

void LdgmCode::encode_into(const std::uint8_t* const* source_rows,
                           std::size_t symbol_size,
                           std::uint8_t* const* parity_rows) const {
  if (symbol_size == 0) return;
  const std::uint32_t k = params_.k;
  const std::uint32_t rows = params_.n - k;
  const gf::Kernels& eng = gf::kernels();
  // Fixed-size term staging: rows are sparse (left_degree-ish entries),
  // but irregular codes can exceed any small bound, so full batches are
  // flushed — XOR accumulation makes the split exact.
  constexpr std::size_t kBatch = 64;
  gf::AddmulTerm terms[kBatch];
  for (std::uint32_t i = 0; i < rows; ++i) {
    std::uint8_t* acc = parity_rows[i];
    std::memset(acc, 0, symbol_size);
    std::size_t nt = 0;
    for (std::uint32_t col : h_.row(i)) {
      const std::uint8_t* operand = nullptr;
      if (col < k)
        operand = source_rows[col];
      else if (col != k + i)
        operand = parity_rows[col - k];  // strictly earlier parity: computed
      else
        continue;  // the diagonal is p_i itself
      if (nt == kBatch) {
        eng.addmul_batch(acc, terms, nt, symbol_size);
        nt = 0;
      }
      terms[nt++] = {operand, 1};
    }
    eng.addmul_batch(acc, terms, nt, symbol_size);
  }
}

std::vector<std::vector<std::uint8_t>>
LdgmCode::encode(std::span<const std::vector<std::uint8_t>> source) const {
  const std::uint32_t k = params_.k;
  const std::uint32_t rows = params_.n - k;
  if (source.size() != k)
    throw std::invalid_argument("LdgmCode::encode: expected k source symbols");
  const std::size_t sym = source.empty() ? 0 : source[0].size();
  for (const auto& s : source)
    if (s.size() != sym)
      throw std::invalid_argument("LdgmCode::encode: symbol size mismatch");

  std::vector<std::vector<std::uint8_t>> parity(rows);
  std::vector<const std::uint8_t*> source_rows(k);
  for (std::uint32_t j = 0; j < k; ++j) source_rows[j] = source[j].data();
  std::vector<std::uint8_t*> parity_ptrs(rows);
  for (std::uint32_t i = 0; i < rows; ++i) {
    parity[i].resize(sym);
    parity_ptrs[i] = parity[i].data();
  }
  encode_into(source_rows.data(), sym, parity_ptrs.data());
  return parity;
}

std::vector<PacketId> LdgmCode::interleaved_order() const {
  const std::uint64_t k = params_.k;
  const std::uint64_t n = params_.n;
  std::vector<PacketId> out;
  out.reserve(n);
  std::uint64_t si = 0, pi = 0;
  for (std::uint64_t t = 0; t < n; ++t) {
    // Keep emitted sources proportional: after t packets, ~t*k/n sources.
    if (si < k && si * n <= t * k)
      out.push_back(static_cast<PacketId>(si++));
    else
      out.push_back(static_cast<PacketId>(k + pi++));
  }
  return out;
}

std::string LdgmCode::ascii_art() const {
  std::string art;
  const std::uint32_t rows = h_.rows();
  art.reserve(static_cast<std::size_t>(rows) * (h_.cols() + 1));
  for (std::uint32_t r = 0; r < rows; ++r) {
    std::string line(h_.cols(), ' ');
    for (std::uint32_t c : h_.row(r)) line[c] = '1';
    art += line;
    art += '\n';
  }
  return art;
}

}  // namespace fecsched
