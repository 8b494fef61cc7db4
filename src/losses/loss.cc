#include "losses/loss.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "util/check.h"
#include "util/parallel.h"

namespace htdp {

namespace {

// The exact reductions split the rows into chunks of kChunkRows (the last
// one partial), with more rows per chunk once that would exceed kMaxChunks,
// which bounds the gradient's partials at kMaxChunks * d doubles. Each chunk
// sums its rows in row order and the partials add in chunk order. The
// bounds depend on m alone, so the result is the same at every worker count
// and under any scheduling.
constexpr std::size_t kChunkRows = 512;
constexpr std::size_t kMaxChunks = 64;

struct RowChunks {
  std::size_t rows;   // rows per chunk
  std::size_t count;  // number of chunks
};

RowChunks SplitRows(std::size_t m) {
  const std::size_t rows =
      std::max(kChunkRows, (m + kMaxChunks - 1) / kMaxChunks);
  return RowChunks{rows, (m + rows - 1) / rows};
}

// Runs body(c, lo, hi) for each chunk c = [lo, hi) of m rows; chunks run in
// parallel.
template <typename Body>
void ForEachRowChunk(const RowChunks& chunks, std::size_t m,
                     const Body& body) {
  ParallelFor(
      chunks.count,
      [&](std::size_t c_begin, std::size_t c_end) {
        for (std::size_t c = c_begin; c < c_end; ++c) {
          const std::size_t lo = c * chunks.rows;
          body(c, lo, std::min(lo + chunks.rows, m));
        }
      },
      /*min_parallel=*/2);
}

}  // namespace

double EmpiricalRisk(const Loss& loss, const DatasetView& view,
                     const Vector& w) {
  HTDP_CHECK_GT(view.size(), 0u);
  HTDP_CHECK_EQ(view.dim(), w.size());
  const std::size_t m = view.size();
  const RowChunks chunks = SplitRows(m);
  std::array<double, kMaxChunks> partial{};
  ForEachRowChunk(chunks, m,
                  [&](std::size_t c, std::size_t lo, std::size_t hi) {
                    double acc = 0.0;
                    for (std::size_t i = lo; i < hi; ++i) {
                      acc += loss.Value(view.Row(i), view.Label(i), w);
                    }
                    partial[c] = acc;
                  });
  double total = 0.0;
  for (std::size_t c = 0; c < chunks.count; ++c) total += partial[c];
  return total / static_cast<double>(m);
}

double EmpiricalRisk(const Loss& loss, const Dataset& data, const Vector& w) {
  return EmpiricalRisk(loss, FullView(data), w);
}

void EmpiricalGradient(const Loss& loss, const DatasetView& view,
                       const Vector& w, Vector& grad) {
  HTDP_CHECK_GT(view.size(), 0u);
  HTDP_CHECK_EQ(view.dim(), w.size());
  const std::size_t d = w.size();
  const std::size_t m = view.size();
  grad.assign(d, 0.0);

  double probe = 0.0;
  if (loss.GradientAsScaledFeature(view.Row(0), view.Label(0), w, &probe)) {
    // GLM path: grad = (1/m) sum_i scale_i x_i + ridge * w, accumulated in
    // one d-length partial per row chunk so the chunks run race-free.
    const RowChunks chunks = SplitRows(m);
    std::vector<double> partial(chunks.count * d, 0.0);
    ForEachRowChunk(chunks, m,
                    [&](std::size_t c, std::size_t lo, std::size_t hi) {
                      double* acc = partial.data() + c * d;
                      double scale = 0.0;
                      for (std::size_t i = lo; i < hi; ++i) {
                        HTDP_CHECK(loss.GradientAsScaledFeature(
                            view.Row(i), view.Label(i), w, &scale));
                        AxpyKernel(scale, view.Row(i), acc, d);
                      }
                    });
    for (std::size_t c = 0; c < chunks.count; ++c) {
      AxpyKernel(1.0, partial.data() + c * d, grad.data(), d);
    }
    const double inv_m = 1.0 / static_cast<double>(m);
    const double ridge = loss.RidgeCoefficient();
    for (std::size_t j = 0; j < d; ++j) {
      grad[j] = grad[j] * inv_m + ridge * w[j];
    }
    return;
  }

  Vector sample_grad(d);
  for (std::size_t i = 0; i < m; ++i) {
    loss.Gradient(view.Row(i), view.Label(i), w, sample_grad);
    Axpy(1.0, sample_grad, grad);
  }
  Scale(1.0 / static_cast<double>(m), grad);
}

double ExcessEmpiricalRisk(const Loss& loss, const Dataset& data,
                           const Vector& w, const Vector& w_ref) {
  return EmpiricalRisk(loss, data, w) - EmpiricalRisk(loss, data, w_ref);
}

}  // namespace htdp
