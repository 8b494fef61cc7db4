#include "core/robust_gradient.h"

#include <algorithm>
#include <cstddef>

#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace htdp {

namespace {

// Coordinate blocks are whole groups of this many coordinates: a multiple
// of every dispatched lane width (8 doubles at AVX-512, 4 at AVX2 and SSE2,
// 1 scalar), so a block's slice of a row splits into exactly the lane
// groups and the tail that a whole-row AccumulateContributions call uses.
constexpr std::size_t kLaneGroup = 8;

// Rows x coordinates one block must cover before a split pays for its
// dispatch: small folds (a few thousand elements, as in serving) run inline.
constexpr std::size_t kMinBlockElements = 32768;

}  // namespace

RobustGradientEstimator::RobustGradientEstimator(double scale, double beta)
    : estimator_(scale, beta) {}

void RobustGradientEstimator::Estimate(const Loss& loss,
                                       const DatasetView& view,
                                       const Vector& w, Vector& out,
                                       RobustGradientWorkspace* workspace)
    const {
  HTDP_TRACE_SPAN("robust.estimate");
  HTDP_CHECK_GT(view.size(), 0u);
  HTDP_CHECK_EQ(view.dim(), w.size());
  const std::size_t d = w.size();
  const std::size_t m = view.size();
  const double ridge = loss.RidgeCoefficient();

  RobustGradientWorkspace local;
  RobustGradientWorkspace& ws = workspace != nullptr ? *workspace : local;
  if (ws.row_scales.size() < m) ws.row_scales.resize(m);
  if (ws.row_buffer.size() < d) ws.row_buffer.resize(d);
  double* const scales = ws.row_scales.data();
  double* const row = ws.row_buffer.data();

  const std::size_t groups = (d + kLaneGroup - 1) / kLaneGroup;
  const std::size_t threads =
      static_cast<std::size_t>(parallel_internal::DispatchThreads());
  const std::size_t blocks = std::max<std::size_t>(
      1, std::min({threads, groups, m * d / kMinBlockElements}));

  // Pass 1: the per-row GLM scales, split by row.
  ParallelFor(
      blocks,
      [&](std::size_t b_begin, std::size_t b_end) {
        for (std::size_t b = b_begin; b < b_end; ++b) {
          const IndexRange rows = ParallelChunkBounds(m, blocks, b);
          for (std::size_t i = rows.begin; i < rows.end; ++i) {
            HTDP_CHECK(loss.GradientAsScaledFeature(view.Row(i),
                                                    view.Label(i), w,
                                                    &scales[i]))
                << loss.Name() << " has no scaled-feature gradient form";
          }
        }
      },
      /*min_parallel=*/2);

  // Pass 2: each block owns coordinates [j0, j1) of the row buffer and of
  // `out`, and walks all m rows in row order, so every coordinate's sum is
  // the serial one whatever the block count.
  out.assign(d, 0.0);
  ParallelFor(
      blocks,
      [&](std::size_t b_begin, std::size_t b_end) {
        for (std::size_t b = b_begin; b < b_end; ++b) {
          const IndexRange span = ParallelChunkBounds(groups, blocks, b);
          const std::size_t j0 = span.begin * kLaneGroup;
          const std::size_t j1 = std::min(span.end * kLaneGroup, d);
          const std::size_t width = j1 - j0;
          for (std::size_t i = 0; i < m; ++i) {
            ScaledSumKernel(scales[i], view.Row(i) + j0, ridge, w.data() + j0,
                            row + j0, width);
            estimator_.AccumulateContributions(row + j0, width,
                                               out.data() + j0);
          }
        }
      },
      /*min_parallel=*/2);
  Scale(1.0 / static_cast<double>(m), out);
}

double RobustGradientEstimator::Sensitivity(std::size_t m) const {
  return estimator_.Sensitivity(m);
}

}  // namespace htdp
