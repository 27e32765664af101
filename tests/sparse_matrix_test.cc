// SparseBinaryMatrix: CSR consistency in both orientations, and a
// differential check against the sort-based construction.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "fec/sparse_matrix.h"
#include "util/rng.h"

namespace fecsched {
namespace {

using Entry = SparseBinaryMatrix::Entry;

TEST(SparseMatrix, EmptyMatrix) {
  const SparseBinaryMatrix m(3, 4, {});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 0u);
  for (std::uint32_t r = 0; r < 3; ++r) EXPECT_TRUE(m.row(r).empty());
  for (std::uint32_t c = 0; c < 4; ++c) EXPECT_TRUE(m.col(c).empty());
}

TEST(SparseMatrix, BasicAdjacency) {
  const SparseBinaryMatrix m(2, 3, {{0, 0}, {0, 2}, {1, 1}, {1, 2}});
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(std::vector<std::uint32_t>(m.row(0).begin(), m.row(0).end()),
            (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(std::vector<std::uint32_t>(m.row(1).begin(), m.row(1).end()),
            (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(std::vector<std::uint32_t>(m.col(2).begin(), m.col(2).end()),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_TRUE(m.at(0, 0));
  EXPECT_FALSE(m.at(0, 1));
  EXPECT_TRUE(m.at(1, 2));
}

TEST(SparseMatrix, DuplicateEntriesCollapse) {
  const SparseBinaryMatrix m(2, 2, {{0, 1}, {0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.row_degree(0), 1u);
}

TEST(SparseMatrix, OutOfRangeEntryThrows) {
  EXPECT_THROW(SparseBinaryMatrix(2, 2, {{2, 0}}), std::invalid_argument);
  EXPECT_THROW(SparseBinaryMatrix(2, 2, {{0, 2}}), std::invalid_argument);
}

TEST(SparseMatrix, AccessorsRangeChecked) {
  const SparseBinaryMatrix m(2, 3, {});
  EXPECT_THROW((void)m.row(2), std::invalid_argument);
  EXPECT_THROW((void)m.col(3), std::invalid_argument);
}

TEST(SparseMatrix, UnsortedInputIsSorted) {
  const SparseBinaryMatrix m(3, 3, {{2, 2}, {0, 1}, {2, 0}, {0, 0}, {1, 1}});
  EXPECT_EQ(std::vector<std::uint32_t>(m.row(0).begin(), m.row(0).end()),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(std::vector<std::uint32_t>(m.row(2).begin(), m.row(2).end()),
            (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(std::vector<std::uint32_t>(m.col(0).begin(), m.col(0).end()),
            (std::vector<std::uint32_t>{0, 2}));
}

TEST(SparseMatrix, RowColViewsAgreeOnRandomMatrix) {
  Rng rng(77);
  constexpr std::uint32_t kRows = 64, kCols = 97;
  std::vector<Entry> entries;
  for (int i = 0; i < 800; ++i)
    entries.push_back({static_cast<std::uint32_t>(rng.below(kRows)),
                       static_cast<std::uint32_t>(rng.below(kCols))});
  const SparseBinaryMatrix m(kRows, kCols, entries);

  std::size_t row_sum = 0, col_sum = 0;
  for (std::uint32_t r = 0; r < kRows; ++r) {
    auto prev = UINT32_MAX;
    for (std::uint32_t c : m.row(r)) {
      EXPECT_TRUE(prev == UINT32_MAX || c > prev) << "row not ascending";
      prev = c;
      // Every row entry must appear in the column view.
      bool found = false;
      for (std::uint32_t rr : m.col(c)) found |= rr == r;
      EXPECT_TRUE(found);
      EXPECT_TRUE(m.at(r, c));
    }
    row_sum += m.row_degree(r);
  }
  for (std::uint32_t c = 0; c < kCols; ++c) {
    auto prev = UINT32_MAX;
    for (std::uint32_t r : m.col(c)) {
      EXPECT_TRUE(prev == UINT32_MAX || r > prev) << "col not ascending";
      prev = r;
    }
    col_sum += m.col_degree(c);
  }
  EXPECT_EQ(row_sum, m.nnz());
  EXPECT_EQ(col_sum, m.nnz());
}

// The sort-based construction the matrix was first written with: sort the
// entries by (row, col), drop duplicates, then fill CSR and CSC in that
// order.  Kept as it was written; do not optimise it.
struct ReferenceCsr {
  std::vector<std::uint32_t> row_ptr, row_cols, col_ptr, col_rows;
};

ReferenceCsr reference_build(std::uint32_t rows, std::uint32_t cols,
                             std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.row == b.row && a.col == b.col;
                            }),
                entries.end());
  ReferenceCsr m;
  m.row_ptr.assign(rows + 1, 0);
  for (const Entry& e : entries) {
    ++m.row_ptr[e.row + 1];
    m.row_cols.push_back(e.col);
  }
  for (std::uint32_t r = 0; r < rows; ++r) m.row_ptr[r + 1] += m.row_ptr[r];
  m.col_ptr.assign(cols + 1, 0);
  for (const Entry& e : entries) ++m.col_ptr[e.col + 1];
  for (std::uint32_t c = 0; c < cols; ++c) m.col_ptr[c + 1] += m.col_ptr[c];
  m.col_rows.resize(entries.size());
  std::vector<std::uint32_t> next(m.col_ptr.begin(), m.col_ptr.end() - 1);
  for (const Entry& e : entries) m.col_rows[next[e.col]++] = e.row;
  return m;
}

// Rebuilds the four arrays from the public spans and compares them with
// the reference's.
void expect_matches_reference(std::uint32_t rows, std::uint32_t cols,
                              const std::vector<Entry>& entries) {
  const SparseBinaryMatrix m(rows, cols, entries);
  const ReferenceCsr ref = reference_build(rows, cols, entries);
  ReferenceCsr got;
  got.row_ptr.push_back(0);
  for (std::uint32_t r = 0; r < m.rows(); ++r) {
    got.row_cols.insert(got.row_cols.end(), m.row(r).begin(), m.row(r).end());
    got.row_ptr.push_back(static_cast<std::uint32_t>(got.row_cols.size()));
  }
  got.col_ptr.push_back(0);
  for (std::uint32_t c = 0; c < m.cols(); ++c) {
    got.col_rows.insert(got.col_rows.end(), m.col(c).begin(), m.col(c).end());
    got.col_ptr.push_back(static_cast<std::uint32_t>(got.col_rows.size()));
  }
  ASSERT_EQ(m.rows(), rows);
  ASSERT_EQ(m.cols(), cols);
  ASSERT_EQ(m.nnz(), ref.row_cols.size());
  EXPECT_EQ(got.row_ptr, ref.row_ptr) << rows << "x" << cols;
  EXPECT_EQ(got.row_cols, ref.row_cols) << rows << "x" << cols;
  EXPECT_EQ(got.col_ptr, ref.col_ptr) << rows << "x" << cols;
  EXPECT_EQ(got.col_rows, ref.col_rows) << rows << "x" << cols;
}

TEST(SparseMatrixReference, ShapedCases) {
  expect_matches_reference(0, 0, {});
  expect_matches_reference(0, 5, {});
  expect_matches_reference(4, 0, {});
  expect_matches_reference(1, 1, {});
  expect_matches_reference(1, 1, {{0, 0}});
  expect_matches_reference(1, 1, {{0, 0}, {0, 0}, {0, 0}});
  // Unsorted, with duplicates, empty rows (1, 4) and empty columns (0, 5).
  expect_matches_reference(
      5, 6, {{3, 4}, {0, 1}, {3, 2}, {2, 3}, {0, 1}, {2, 1}, {3, 4}, {0, 3}});
  // One full row, one full column, each in descending order.
  std::vector<Entry> full_row, full_col;
  for (std::uint32_t c = 40; c-- > 0;) full_row.push_back({2, c});
  for (std::uint32_t r = 30; r-- > 0;) full_col.push_back({r, 5});
  expect_matches_reference(7, 40, full_row);
  expect_matches_reference(30, 9, full_col);
  std::vector<Entry> cross = full_row;
  cross.insert(cross.end(), full_col.begin(), full_col.end());
  expect_matches_reference(30, 40, cross);
  // Every cell, twice, in reverse order.
  std::vector<Entry> dense;
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint32_t r = 12; r-- > 0;)
      for (std::uint32_t c = 17; c-- > 0;) dense.push_back({r, c});
  expect_matches_reference(12, 17, dense);
}

TEST(SparseMatrixReference, RandomEntryLists) {
  Rng rng(2024);
  for (int round = 0; round < 2000; ++round) {
    const auto rows = static_cast<std::uint32_t>(1 + rng.below(60));
    const auto cols = static_cast<std::uint32_t>(1 + rng.below(90));
    const auto count = static_cast<std::size_t>(rng.below(501));
    std::vector<Entry> entries;
    entries.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      // Every fourth entry repeats an earlier one: duplicates land both
      // adjacent and far apart in the input.
      if (!entries.empty() && rng.below(4) == 0) {
        entries.push_back(entries[rng.below(entries.size())]);
        continue;
      }
      entries.push_back({static_cast<std::uint32_t>(rng.below(rows)),
                         static_cast<std::uint32_t>(rng.below(cols))});
    }
    expect_matches_reference(rows, cols, entries);
    if (HasFailure()) FAIL() << "round " << round;
  }
}

}  // namespace
}  // namespace fecsched
