#include "linalg/matrix.h"

#include <cstddef>
#include <utility>

#include "util/check.h"
#include "util/parallel.h"

namespace htdp {

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  HTDP_CHECK_EQ(data_.size(), rows * cols);
}

void Matrix::MatVec(const Vector& x, Vector& out) const {
  HTDP_CHECK_EQ(x.size(), cols_);
  out.assign(rows_, 0.0);
  ParallelFor(rows_, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      out[r] = Dot(Row(r), x.data(), cols_);
    }
  });
}

void Matrix::MatTVec(const Vector& x, Vector& out) const {
  HTDP_CHECK_EQ(x.size(), rows_);
  out.assign(cols_, 0.0);
  // Row-major layout: accumulate row-by-row to keep streaming access. Each
  // row update is an elementwise axpy, so the lane-widened kernel changes
  // no bits (the cross-row accumulation order is unchanged).
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    AxpyKernel(xr, Row(r), out.data(), cols_);
  }
}

Matrix Matrix::RowSlice(std::size_t begin, std::size_t end) const {
  HTDP_CHECK_LE(begin, end);
  HTDP_CHECK_LE(end, rows_);
  Matrix out(end - begin, cols_);
  for (std::size_t r = begin; r < end; ++r) {
    const double* src = Row(r);
    double* dst = out.Row(r - begin);
    for (std::size_t c = 0; c < cols_; ++c) dst[c] = src[c];
  }
  return out;
}

}  // namespace htdp
