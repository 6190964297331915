#include "workload/sparse.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace dxbsp::workload {

void CsrMatrix::validate() const {
  if (row_ptr.size() != rows + 1)
    throw std::invalid_argument("CsrMatrix: row_ptr size mismatch");
  if (row_ptr.front() != 0 || row_ptr.back() != col_idx.size())
    throw std::invalid_argument("CsrMatrix: row_ptr endpoints wrong");
  if (col_idx.size() != values.size())
    throw std::invalid_argument("CsrMatrix: values size mismatch");
  for (std::uint64_t r = 0; r < rows; ++r)
    if (row_ptr[r] > row_ptr[r + 1])
      throw std::invalid_argument("CsrMatrix: row_ptr not monotone");
  for (const auto c : col_idx)
    if (c >= cols) throw std::invalid_argument("CsrMatrix: column out of range");
}

std::vector<double> CsrMatrix::multiply_reference(
    const std::vector<double>& x) const {
  if (x.size() != cols)
    throw std::invalid_argument("CsrMatrix: x size mismatch");
  std::vector<double> y(rows, 0.0);
  for (std::uint64_t r = 0; r < rows; ++r)
    for (std::uint64_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i)
      y[r] += values[i] * x[col_idx[i]];
  return y;
}

CsrMatrix random_csr(std::uint64_t rows, std::uint64_t cols,
                     std::uint64_t nnz_per_row, std::uint64_t seed) {
  if (nnz_per_row > cols)
    throw std::invalid_argument("random_csr: nnz_per_row exceeds cols");
  util::Xoshiro256 rng(util::substream(seed, 20));
  CsrMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.reserve(rows + 1);
  m.row_ptr.push_back(0);
  m.col_idx.reserve(rows * nnz_per_row);
  m.values.reserve(rows * nnz_per_row);
  util::FlatMap64 seen;  // membership only: a key's first bump() adds it
  seen.reserve(nnz_per_row);
  std::vector<std::uint64_t> row_cols;
  row_cols.reserve(nnz_per_row);
  for (std::uint64_t r = 0; r < rows; ++r) {
    seen.clear();
    row_cols.clear();
    while (row_cols.size() < nnz_per_row) {
      const std::uint64_t c = rng.below(cols);
      if (seen.bump(c) == 1) row_cols.push_back(c);
    }
    // Deterministic order within the row: sorted columns (CSR convention).
    std::sort(row_cols.begin(), row_cols.end());
    for (const auto c : row_cols) {
      m.col_idx.push_back(c);
      m.values.push_back(rng.uniform());
    }
    m.row_ptr.push_back(m.col_idx.size());
  }
  return m;
}

CsrMatrix dense_column_csr(std::uint64_t rows, std::uint64_t cols,
                           std::uint64_t nnz_per_row,
                           std::uint64_t dense_col_len, std::uint64_t seed) {
  if (dense_col_len > rows)
    throw std::invalid_argument("dense_column_csr: dense column too long");
  if (cols < 2)
    throw std::invalid_argument("dense_column_csr: need at least 2 columns");
  CsrMatrix m = random_csr(rows, cols, nnz_per_row, seed);
  // Pick dense_col_len distinct rows; redirect their first entry to col 0.
  util::Xoshiro256 rng(util::substream(seed, 21));
  std::vector<std::uint64_t> row_ids(rows);
  for (std::uint64_t i = 0; i < rows; ++i) row_ids[i] = i;
  for (std::uint64_t i = 0; i < dense_col_len; ++i) {
    const std::uint64_t j = i + rng.below(rows - i);
    std::swap(row_ids[i], row_ids[j]);
  }
  for (std::uint64_t i = 0; i < dense_col_len; ++i) {
    const std::uint64_t r = row_ids[i];
    const std::uint64_t lo = m.row_ptr[r], hi = m.row_ptr[r + 1];
    if (lo == hi) continue;  // empty row (only when nnz_per_row == 0)
    // Remove any existing col-0 duplicates by construction: set the first
    // entry to column 0; if another entry in the row already is column 0,
    // the row simply keeps one col-0 entry (random_csr makes that rare).
    bool has_zero = false;
    for (std::uint64_t t = lo; t < hi; ++t) has_zero |= (m.col_idx[t] == 0);
    if (!has_zero) m.col_idx[lo] = 0;
  }
  return m;
}

std::uint64_t column_frequency(const CsrMatrix& m, std::uint64_t col) {
  std::uint64_t freq = 0;
  for (const auto c : m.col_idx) freq += (c == col);
  return freq;
}

void save_matrix_market(std::ostream& os, const CsrMatrix& m) {
  os << "%%MatrixMarket matrix coordinate real general\n";
  os << m.rows << " " << m.cols << " " << m.nnz() << "\n";
  for (std::uint64_t r = 0; r < m.rows; ++r)
    for (std::uint64_t i = m.row_ptr[r]; i < m.row_ptr[r + 1]; ++i)
      os << (r + 1) << " " << (m.col_idx[i] + 1) << " " << m.values[i]
         << "\n";
}

CsrMatrix load_matrix_market(std::istream& is) {
  std::string line;
  // Header line.
  if (!std::getline(is, line) ||
      line.rfind("%%MatrixMarket matrix coordinate", 0) != 0)
    throw std::runtime_error("load_matrix_market: missing header");
  const bool pattern = line.find(" pattern") != std::string::npos;
  // Skip comments.
  do {
    if (!std::getline(is, line))
      throw std::runtime_error("load_matrix_market: missing size line");
  } while (!line.empty() && line[0] == '%');

  std::istringstream size_line(line);
  std::uint64_t rows = 0, cols = 0, nnz = 0;
  if (!(size_line >> rows >> cols >> nnz))
    throw std::runtime_error("load_matrix_market: bad size line");

  // Coordinate triplets, bucketed by row then prefix-summed into CSR.
  std::vector<std::uint64_t> r_of(nnz), c_of(nnz);
  std::vector<double> v_of(nnz);
  for (std::uint64_t k = 0; k < nnz; ++k) {
    std::uint64_t r = 0, c = 0;
    double v = 1.0;
    if (!(is >> r >> c)) throw std::runtime_error(
        "load_matrix_market: truncated entries");
    if (!pattern && !(is >> v))
      throw std::runtime_error("load_matrix_market: missing value");
    if (r == 0 || c == 0 || r > rows || c > cols)
      throw std::runtime_error("load_matrix_market: index out of range");
    r_of[k] = r - 1;
    c_of[k] = c - 1;
    v_of[k] = v;
  }

  CsrMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.assign(rows + 1, 0);
  for (const auto r : r_of) ++m.row_ptr[r + 1];
  for (std::uint64_t r = 0; r < rows; ++r) m.row_ptr[r + 1] += m.row_ptr[r];
  m.col_idx.assign(nnz, 0);
  m.values.assign(nnz, 0.0);
  std::vector<std::uint64_t> cursor(m.row_ptr.begin(), m.row_ptr.end() - 1);
  for (std::uint64_t k = 0; k < nnz; ++k) {
    const std::uint64_t pos = cursor[r_of[k]]++;
    m.col_idx[pos] = c_of[k];
    m.values[pos] = v_of[k];
  }
  m.validate();
  return m;
}

}  // namespace dxbsp::workload
