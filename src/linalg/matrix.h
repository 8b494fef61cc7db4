#ifndef HTDP_LINALG_MATRIX_H_
#define HTDP_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "linalg/vector_ops.h"

namespace htdp {

/// Dense row-major matrix. Rows are samples in all htdp datasets, so row
/// access is the hot path and is contiguous.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  /// Adopts `data` (rows * cols entries, row-major) as the storage, with no
  /// zero-fill and no copy.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Pointer to the first element of row r (contiguous, cols() entries).
  double* Row(std::size_t r) { return data_.data() + r * cols_; }
  const double* Row(std::size_t r) const { return data_.data() + r * cols_; }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// out = M * x. Requires x.size() == cols(); resizes out to rows().
  /// Thread-parallel over rows; each row product runs through the
  /// lane-widened DotKernel (reassociated under SIMD, scalar reference
  /// under HTDP_SIMD=off -- see linalg/vector_ops.h).
  void MatVec(const Vector& x, Vector& out) const;

  /// out = M^T * x. Requires x.size() == rows(); resizes out to cols().
  /// Row-streaming lane-widened axpy updates; bit-identical in both SIMD
  /// modes.
  void MatTVec(const Vector& x, Vector& out) const;

  /// Returns the submatrix made of rows [begin, end).
  Matrix RowSlice(std::size_t begin, std::size_t end) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

}  // namespace htdp

#endif  // HTDP_LINALG_MATRIX_H_
