#pragma once
// The alternative formula-inference algorithms of §4.4: multivariate
// linear regression (as used by LibreCAN) and degree-2 polynomial curve
// fitting with cross terms. Both solve ordinary least squares via the
// normal equations; both fail on the non-polynomial / outlier-laden cases
// GP handles, which is precisely Table 10's point.

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "correlate/correlate.hpp"

namespace dpr::regress {

struct FitResult {
  /// Basis functions over the X operands and their fitted coefficients.
  std::vector<double> coefficients;
  std::size_t n_vars = 1;
  bool polynomial = false;   // false: affine; true: degree-2 with crosses
  double mae = 1e300;        // on the training data
  std::string formula;

  double predict(std::span<const double> xs) const;
};

/// Y = b0 + b1*X0 (+ b2*X1). Returns nullopt for degenerate systems.
std::optional<FitResult> fit_linear(const correlate::Dataset& dataset);

/// Y = b0 + sum bi*Xi + sum bij*Xi*Xj + sum bii*Xi^2.
std::optional<FitResult> fit_polynomial(const correlate::Dataset& dataset);

/// A function of the X operands: a fitted formula's prediction or the
/// ground truth.
using Formula = std::function<double(std::span<const double>)>;

/// Relative deviation between `predict` and `truth` over the dataset's X
/// points — the §4.2/§4.3 criterion ("the outputs of the two formulas are
/// almost the same"). `mean` is the mean deviation. `max` is the worst
/// one: a formula with the right structure is uniformly close to the
/// ground truth, while a wrong structure fitted locally (a line through a
/// product surface) shows large pointwise errors even when the mean is
/// small. Both are 1e300 on an empty dataset.
struct RelativeError {
  double mean = 1e300;
  double max = 1e300;
};
RelativeError relative_error(const correlate::Dataset& dataset,
                             const Formula& predict, const Formula& truth);

/// The same criterion for a baseline fit, for Table 10.
RelativeError relative_error(const FitResult& result,
                             const correlate::Dataset& dataset,
                             const Formula& truth);

/// Least-squares solve of (A^T A) b = A^T y with partial pivoting;
/// exposed for tests. Rows of `rows` are the design-matrix rows.
std::optional<std::vector<double>> solve_least_squares(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& ys);

}  // namespace dpr::regress
