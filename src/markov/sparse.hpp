// Minimal sparse-matrix support for the Markov solvers (CSC, double).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace multival::markov {

struct Triplet {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  double value = 0.0;
};

/// One stored (index, value) pair.  In a SparseMatrix column `col` holds
/// the row index; the steady-state and absorption solvers reuse the type
/// for their per-state adjacency lists, with `col` the other state.
struct Entry {
  std::uint32_t col = 0;
  double value = 0.0;
};

/// Immutable sparse matrix in column-major (CSC) layout, the layout that
/// y = x A reads.  Duplicate (row, col) triplets are summed in (row, col)
/// sort order, and each column keeps its entries in increasing row order,
/// so every product is summed in one fixed order.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  [[nodiscard]] static SparseMatrix from_triplets(std::size_t rows,
                                                  std::size_t cols,
                                                  std::vector<Triplet> ts);

  [[nodiscard]] std::size_t num_rows() const { return rows_; }
  [[nodiscard]] std::size_t num_cols() const {
    return col_ptr_.empty() ? 0 : col_ptr_.size() - 1;
  }
  [[nodiscard]] std::size_t num_nonzeros() const { return entries_.size(); }

  /// Column @p j as (row, value) entries sorted by row.
  [[nodiscard]] std::span<const Entry> column(std::size_t j) const;

  /// y = x A (row vector times matrix); x.size() == num_rows().
  [[nodiscard]] std::vector<double> multiply_left(
      std::span<const double> x) const;

 private:
  std::size_t rows_ = 0;
  std::vector<std::size_t> col_ptr_;  // size cols+1
  std::vector<Entry> entries_;        // (row, value) by column
};

}  // namespace multival::markov
