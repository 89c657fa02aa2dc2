#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "regress/regress.hpp"
#include "util/rng.hpp"

namespace dpr::regress {
namespace {

correlate::Dataset make_dataset(
    std::size_t n_vars, const std::function<double(double, double)>& truth,
    std::size_t n = 40) {
  correlate::Dataset dataset;
  dataset.n_vars = n_vars;
  util::Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(0.0, 255.0);
    const double x1 = rng.uniform(0.0, 255.0);
    correlate::DataPoint p;
    p.xs = n_vars == 1 ? std::vector<double>{x0}
                       : std::vector<double>{x0, x1};
    p.y = truth(x0, x1);
    dataset.points.push_back(std::move(p));
  }
  return dataset;
}

TEST(LeastSquares, SolvesExactSystem) {
  // y = 2 + 3x; the design is row-major, two columns per row.
  const std::vector<double> design{1, 0, 1, 1, 1, 2, 1, 3};
  const std::vector<double> ys{2, 5, 8, 11};
  const auto sol = solve_least_squares(design, 2, ys);
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR((*sol)[0], 2.0, 1e-6);
  EXPECT_NEAR((*sol)[1], 3.0, 1e-6);
}

TEST(LeastSquares, RejectsEmptyAndMismatched) {
  EXPECT_EQ(solve_least_squares({}, 1, {}), std::nullopt);
  const std::vector<double> one{1.0};
  const std::vector<double> two{1.0, 2.0};
  EXPECT_EQ(solve_least_squares(one, 1, two), std::nullopt);
  // A design that is not `width` columns per target.
  const std::vector<double> three{1.0, 0.0, 1.0};
  EXPECT_EQ(solve_least_squares(three, 2, two), std::nullopt);
  EXPECT_EQ(solve_least_squares(two, 0, two), std::nullopt);
}

TEST(Linear, RecoversAffineFormula) {
  const auto dataset =
      make_dataset(1, [](double x, double) { return 0.1 * x - 40.0; });
  const auto fit = fit_linear(dataset);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->coefficients[0], -40.0, 1e-6);
  EXPECT_NEAR(fit->coefficients[1], 0.1, 1e-8);
  EXPECT_LT(fit->mae, 1e-6);
}

TEST(Linear, RecoversTwoVariableAffine) {
  const auto dataset = make_dataset(
      2, [](double x0, double x1) { return 64.0 * x0 + 0.25 * x1; });
  const auto fit = fit_linear(dataset);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->coefficients[1], 64.0, 1e-6);
  EXPECT_NEAR(fit->coefficients[2], 0.25, 1e-6);
}

TEST(Linear, CannotFitProduct) {
  // The paper's engine-RPM case: Y = X0*X1/5 (§4.4 cause (ii)).
  const auto dataset = make_dataset(
      2, [](double x0, double x1) { return x0 * x1 / 5.0; });
  const auto fit = fit_linear(dataset);
  ASSERT_TRUE(fit.has_value());
  const auto truth = [](std::span<const double> xs) {
    return xs[0] * xs[1] / 5.0;
  };
  EXPECT_GT(relative_error(*fit, dataset, truth).max, 0.10);
}

TEST(Polynomial, FitsProductViaCrossTerm) {
  const auto dataset = make_dataset(
      2, [](double x0, double x1) { return x0 * x1 / 5.0; });
  const auto fit = fit_polynomial(dataset);
  ASSERT_TRUE(fit.has_value());
  const auto truth = [](std::span<const double> xs) {
    return xs[0] * xs[1] / 5.0;
  };
  EXPECT_LT(relative_error(*fit, dataset, truth).mean, 0.01);
}

TEST(Polynomial, FitsQuadratic) {
  const auto dataset = make_dataset(
      1, [](double x, double) { return 0.004 * x * x + 2.0; });
  const auto fit = fit_polynomial(dataset);
  ASSERT_TRUE(fit.has_value());
  EXPECT_LT(fit->mae, 1e-6);
}

TEST(Baselines, OutliersCorruptLeastSquares) {
  // The §4.4 contrast: one gross OCR outlier shifts a plain LS fit
  // measurably.
  auto dataset =
      make_dataset(1, [](double x, double) { return 2.0 * x; }, 30);
  dataset.points[5].y *= 100.0;  // decimal-drop outlier
  const auto fit = fit_linear(dataset);
  ASSERT_TRUE(fit.has_value());
  const auto truth = [](std::span<const double> xs) { return 2.0 * xs[0]; };
  EXPECT_GT(relative_error(*fit, dataset, truth).mean, 0.03);
}

TEST(FitResult, PredictUsesChosenBasis) {
  const auto dataset = make_dataset(
      2, [](double x0, double x1) { return 1.0 + x0 + x1 + x0 * x1; });
  const auto fit = fit_polynomial(dataset);
  ASSERT_TRUE(fit.has_value());
  const std::vector<double> x{2.0, 3.0};
  EXPECT_NEAR(fit->predict(x), 1.0 + 2.0 + 3.0 + 6.0, 1e-6);
}

TEST(FitResult, PredictIsTheBasisRowDotProductBitForBit) {
  // predict sums the design-matrix terms of the fit, in column order,
  // without building the row: the intercept, each X, then X_i*X_j for
  // i <= j. The explicit row and dot product here must give the same
  // bits.
  for (const std::size_t n_vars : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(n_vars) + " vars");
    const auto dataset = make_dataset(n_vars, [n_vars](double x0, double x1) {
      if (n_vars == 1) x1 = 0.0;
      return 0.3 * x0 * x0 - 1.7 * x0 * x1 + 0.01 * x1 * x1 + 5.5;
    });
    const auto fit = fit_polynomial(dataset);
    ASSERT_TRUE(fit.has_value());
    ASSERT_EQ(fit->coefficients.size(), n_vars == 1 ? 3u : 6u);
    for (const auto& p : dataset.points) {
      std::vector<double> row{1.0};
      for (const double x : p.xs) row.push_back(x);
      for (std::size_t i = 0; i < p.xs.size(); ++i) {
        for (std::size_t j = i; j < p.xs.size(); ++j) {
          row.push_back(p.xs[i] * p.xs[j]);
        }
      }
      double expected = 0.0;
      for (std::size_t i = 0; i < row.size(); ++i) {
        expected += fit->coefficients[i] * row[i];
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fit->predict(p.xs)),
                std::bit_cast<std::uint64_t>(expected));
    }
  }
}

TEST(FitResult, FormulaRendering) {
  const auto dataset =
      make_dataset(1, [](double x, double) { return 2.0 * x + 1.0; });
  const auto fit = fit_linear(dataset);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NE(fit->formula.find("Y ="), std::string::npos);
  EXPECT_NE(fit->formula.find("X"), std::string::npos);
}

TEST(FitResult, TooFewPointsRejected) {
  correlate::Dataset dataset;
  dataset.n_vars = 1;
  dataset.points.push_back(correlate::DataPoint{{1.0}, 2.0});
  EXPECT_EQ(fit_linear(dataset), std::nullopt);
}

}  // namespace
}  // namespace dpr::regress
