#ifndef HTDP_DATA_REAL_WORLD_SIM_H_
#define HTDP_DATA_REAL_WORLD_SIM_H_

#include <cstddef>
#include <string>

#include "data/dataset.h"
#include "rng/rng.h"

namespace htdp {

/// Simulated stand-ins for the four UCI datasets used in Figures 3 and 4.
///
/// The genuine datasets are not redistributable inside this repository, so
/// each simulator reproduces the properties the experiments depend on: the
/// paper's (n, d), heavy-tailed skewed features with correlated coordinates
/// (a low-rank lognormal factor model), and a planted linear / logistic
/// signal with heavy-tailed residuals. See "Deviations from the paper" in
/// README.md for the substitution rationale. data/csv.h loads the genuine
/// files when present.
struct RealWorldSpec {
  std::string name;
  std::size_t n = 0;  // paper's sample count
  std::size_t d = 0;  // paper's feature count
  bool classification = false;
};

/// Blog Feedback: n = 60021, d = 281, regression.
RealWorldSpec BlogFeedbackSpec();
/// Twitter: n = 583249, d = 77, regression.
RealWorldSpec TwitterSpec();
/// Winnipeg: n = 325834, d = 175, classification.
RealWorldSpec WinnipegSpec();
/// Year Prediction: n = 515345, d = 90, classification (per Figure 4 use).
RealWorldSpec YearPredictionSpec();

/// Generates a simulated dataset for `spec`, truncated to `n_cap` samples
/// (0 means the paper's full n). Features follow a rank-8 lognormal factor
/// model; labels come from a planted signal on the unit l1 ball plus
/// lognormal residual noise (regression) or the logistic link
/// (classification).
Dataset SimulateRealWorld(const RealWorldSpec& spec, std::size_t n_cap,
                          Rng& rng);

}  // namespace htdp

#endif  // HTDP_DATA_REAL_WORLD_SIM_H_
