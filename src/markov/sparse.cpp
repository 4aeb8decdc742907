#include "markov/sparse.hpp"

#include <algorithm>
#include <stdexcept>

namespace multival::markov {

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> ts) {
  for (const Triplet& t : ts) {
    if (t.row >= rows || t.col >= cols) {
      throw std::out_of_range("SparseMatrix: triplet out of range");
    }
  }
  // Sum each run of duplicates in (row, col) sort order, in place.
  std::sort(ts.begin(), ts.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ts.size(); ++kept) {
    Triplet sum{ts[i].row, ts[i].col, 0.0};
    for (; i < ts.size() && ts[i].row == sum.row && ts[i].col == sum.col;
         ++i) {
      sum.value += ts[i].value;
    }
    ts[kept] = sum;
  }
  ts.resize(kept);
  // A counting sort by column keeps each column in increasing row order.
  SparseMatrix m;
  m.rows_ = rows;
  m.col_ptr_.assign(cols + 1, 0);
  for (const Triplet& t : ts) {
    ++m.col_ptr_[t.col + 1];
  }
  for (std::size_t c = 0; c < cols; ++c) {
    m.col_ptr_[c + 1] += m.col_ptr_[c];
  }
  m.entries_.resize(ts.size());
  std::vector<std::size_t> next(m.col_ptr_.begin(), m.col_ptr_.end() - 1);
  for (const Triplet& t : ts) {
    m.entries_[next[t.col]++] = Entry{t.row, t.value};
  }
  return m;
}

std::span<const Entry> SparseMatrix::column(std::size_t j) const {
  if (j + 1 >= col_ptr_.size()) {
    throw std::out_of_range("SparseMatrix::column");
  }
  return {entries_.data() + col_ptr_[j], col_ptr_[j + 1] - col_ptr_[j]};
}

std::vector<double> SparseMatrix::multiply_left(
    std::span<const double> x) const {
  if (x.size() != rows_) {
    throw std::invalid_argument("multiply_left: size mismatch");
  }
  std::vector<double> y(num_cols(), 0.0);
  for (std::size_t c = 0; c < y.size(); ++c) {
    double acc = 0.0;
    for (std::size_t k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k) {
      acc += x[entries_[k].col] * entries_[k].value;
    }
    y[c] = acc;
  }
  return y;
}

}  // namespace multival::markov
