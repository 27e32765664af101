// Immutable sparse binary matrix with both row-major and column-major
// adjacency (CSR in both orientations).  This is the parity-check matrix
// representation used by the LDGM codes: rows are check nodes, columns are
// message nodes (k source packets followed by n-k parity packets).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fecsched {

/// Sparse binary matrix, fixed after construction.
class SparseBinaryMatrix {
 public:
  struct Entry {
    std::uint32_t row;
    std::uint32_t col;
  };

  /// Build from an edge list.  Duplicate (row, col) entries are collapsed
  /// (binary matrix).  Entries must lie inside rows x cols (checked).
  /// Counting passes, no comparison sort: the row ids are bucketed by
  /// column, scattered into rows column by column (so each row's columns
  /// come out ascending and duplicates adjacent), deduplicated in place,
  /// and the CSC is filled from the rows in row order.  O(nnz + rows +
  /// cols) for any row length; the entry list is released after the first
  /// pass, so the peak stays under entries + CSR + CSC.
  SparseBinaryMatrix(std::uint32_t rows, std::uint32_t cols,
                     std::vector<Entry> entries);

  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }
  /// Number of non-zero entries.
  [[nodiscard]] std::size_t nnz() const noexcept { return row_cols_.size(); }

  /// Column indices of the non-zeros in row r, ascending.
  [[nodiscard]] std::span<const std::uint32_t> row(std::uint32_t r) const;
  /// Row indices of the non-zeros in column c, ascending.
  [[nodiscard]] std::span<const std::uint32_t> col(std::uint32_t c) const;

  [[nodiscard]] std::uint32_t row_degree(std::uint32_t r) const {
    return static_cast<std::uint32_t>(row(r).size());
  }
  [[nodiscard]] std::uint32_t col_degree(std::uint32_t c) const {
    return static_cast<std::uint32_t>(col(c).size());
  }

  /// Membership test, O(log row_degree).
  [[nodiscard]] bool at(std::uint32_t r, std::uint32_t c) const;

 private:
  std::uint32_t rows_;
  std::uint32_t cols_;
  std::vector<std::uint32_t> row_ptr_;   // rows_+1 offsets into row_cols_
  std::vector<std::uint32_t> row_cols_;
  std::vector<std::uint32_t> col_ptr_;   // cols_+1 offsets into col_rows_
  std::vector<std::uint32_t> col_rows_;
};

}  // namespace fecsched
