#include "fec/sparse_matrix.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace fecsched {

namespace {

// Turns per-bucket counts (count of b in ptr[b], ptr.back() == 0) into
// bucket ends: ptr[b] = end of bucket b, ptr.back() = total.  Scattering
// with `out[--ptr[b]] = x` then leaves ptr[b] = start of bucket b, the CSR
// offsets, and fills each bucket back to front.
void counts_to_ends(std::vector<std::uint32_t>& ptr) {
  std::uint32_t total = 0;
  for (std::size_t b = 0; b + 1 < ptr.size(); ++b) ptr[b] = total += ptr[b];
  ptr.back() = total;
}

}  // namespace

SparseBinaryMatrix::SparseBinaryMatrix(std::uint32_t rows, std::uint32_t cols,
                                       std::vector<Entry> entries)
    : rows_(rows), cols_(cols) {
  if (entries.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("SparseBinaryMatrix: offsets are 32-bit");
  for (const Entry& e : entries)
    if (e.row >= rows || e.col >= cols)
      throw std::invalid_argument("SparseBinaryMatrix: entry out of range");

  // Bucket the row ids by column.  The entries are released as soon as
  // they are bucketed, so the peak stays below entries + CSR + CSC.
  const auto total = static_cast<std::uint32_t>(entries.size());
  row_ptr_.assign(rows_ + 1, 0);
  col_ptr_.assign(cols_ + 1, 0);
  for (const Entry& e : entries) {
    ++row_ptr_[e.row];
    ++col_ptr_[e.col];
  }
  counts_to_ends(row_ptr_);
  counts_to_ends(col_ptr_);
  std::vector<std::uint32_t> rows_by_col(total);
  for (const Entry& e : entries) rows_by_col[--col_ptr_[e.col]] = e.row;
  std::vector<Entry>().swap(entries);

  // Scatter into rows, columns visited last to first: every row's columns
  // come out ascending, so duplicates sit next to each other.
  row_cols_.resize(total);
  for (std::uint32_t c = cols_; c-- > 0;)
    for (std::uint32_t i = col_ptr_[c]; i < col_ptr_[c + 1]; ++i)
      row_cols_[--row_ptr_[rows_by_col[i]]] = c;

  // Collapse the duplicates in place.
  std::uint32_t kept = 0;
  for (std::uint32_t r = 0; r < rows_; ++r) {
    const std::uint32_t begin = row_ptr_[r];
    const std::uint32_t end = row_ptr_[r + 1];
    row_ptr_[r] = kept;
    for (std::uint32_t i = begin; i < end; ++i)
      if (i == begin || row_cols_[i] != row_cols_[kept - 1])
        row_cols_[kept++] = row_cols_[i];
  }
  row_ptr_[rows_] = kept;
  row_cols_.resize(kept);

  // CSC from the deduplicated rows, rows visited last to first: every
  // column's rows come out ascending.  It reuses the bucket array.
  std::fill(col_ptr_.begin(), col_ptr_.end(), 0);
  for (const std::uint32_t c : row_cols_) ++col_ptr_[c];
  counts_to_ends(col_ptr_);
  col_rows_ = std::move(rows_by_col);
  col_rows_.resize(kept);
  for (std::uint32_t r = rows_; r-- > 0;)
    for (std::uint32_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      col_rows_[--col_ptr_[row_cols_[i]]] = r;
}

std::span<const std::uint32_t> SparseBinaryMatrix::row(std::uint32_t r) const {
  if (r >= rows_) throw std::invalid_argument("SparseBinaryMatrix::row: range");
  return {row_cols_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

std::span<const std::uint32_t> SparseBinaryMatrix::col(std::uint32_t c) const {
  if (c >= cols_) throw std::invalid_argument("SparseBinaryMatrix::col: range");
  return {col_rows_.data() + col_ptr_[c], col_ptr_[c + 1] - col_ptr_[c]};
}

bool SparseBinaryMatrix::at(std::uint32_t r, std::uint32_t c) const {
  const auto cols_of_row = row(r);
  return std::binary_search(cols_of_row.begin(), cols_of_row.end(), c);
}

}  // namespace fecsched
