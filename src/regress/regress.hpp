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

/// `formula` at each of the dataset's X points, in point order.
std::vector<double> evaluate(const Formula& formula,
                             const correlate::Dataset& dataset);

/// Relative deviation between `predict` and the ground truth over the
/// dataset's X points — the §4.2/§4.3 criterion ("the outputs of the two
/// formulas are almost the same"). `expected` holds the truth at each
/// point (`evaluate(truth, dataset)`), so a caller judging several fits
/// of one dataset evaluates the truth once. `mean` is the mean
/// deviation. `max` is the worst one: a formula with the right structure
/// is uniformly close to the ground truth, while a wrong structure fitted
/// locally (a line through a product surface) shows large pointwise
/// errors even when the mean is small. Both are 1e300 on an empty
/// dataset. Throws std::invalid_argument when `expected` does not hold
/// one value per point.
struct RelativeError {
  double mean = 1e300;
  double max = 1e300;
};
RelativeError relative_error(const correlate::Dataset& dataset,
                             const Formula& predict,
                             std::span<const double> expected);

/// The same criterion for a baseline fit, for Table 10.
RelativeError relative_error(const FitResult& result,
                             const correlate::Dataset& dataset,
                             std::span<const double> expected);
RelativeError relative_error(const FitResult& result,
                             const correlate::Dataset& dataset,
                             const Formula& truth);

/// Appends the design-matrix row of operands `xs` to `design`: the
/// intercept 1, each X, then with `polynomial` each X_i*X_j for i <= j
/// (squares and cross terms). FitResult::predict sums the same terms in
/// the same order.
void append_basis_row(std::span<const double> xs, bool polynomial,
                      std::vector<double>& design);

/// Least-squares solve of (A^T A) b = A^T y with partial pivoting.
/// `design` is A, row-major, `width` columns per row and one row per
/// entry of `ys`; nullopt when the sizes disagree or the system is
/// degenerate.
std::optional<std::vector<double>> solve_least_squares(
    std::span<const double> design, std::size_t width,
    std::span<const double> ys);

}  // namespace dpr::regress
