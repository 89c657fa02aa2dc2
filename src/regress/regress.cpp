#include "regress/regress.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace dpr::regress {

namespace {

/// Calls `term` with each design-matrix term of operands `xs`, in column
/// order: the intercept, each X, then with `polynomial` the squares and
/// cross terms.
template <typename Term>
void for_each_basis_term(std::span<const double> xs, bool polynomial,
                         Term&& term) {
  term(1.0);  // intercept
  for (double x : xs) term(x);
  if (polynomial) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      for (std::size_t j = i; j < xs.size(); ++j) term(xs[i] * xs[j]);
    }
  }
}

std::string basis_name(std::size_t index, std::size_t n_vars,
                       bool polynomial) {
  auto var = [n_vars](std::size_t v) {
    std::string name(1, 'X');
    if (n_vars > 1) name += std::to_string(v);
    return name;
  };
  if (index == 0) return "";
  if (index <= n_vars) return var(index - 1);
  if (!polynomial) return "?";
  std::size_t k = n_vars + 1;
  for (std::size_t i = 0; i < n_vars; ++i) {
    for (std::size_t j = i; j < n_vars; ++j) {
      if (k == index) {
        return i == j ? var(i) + "^2" : var(i) + "*" + var(j);
      }
      ++k;
    }
  }
  return "?";
}

std::string render_formula(const std::vector<double>& coeffs,
                           std::size_t n_vars, bool polynomial) {
  std::ostringstream out;
  out.precision(4);
  out << "Y = ";
  bool first = true;
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    const double c = coeffs[i];
    if (std::abs(c) < 1e-10) continue;
    const std::string name = basis_name(i, n_vars, polynomial);
    if (!first) out << (c >= 0 ? " + " : " - ");
    if (first && c < 0) out << "-";
    out << std::abs(c);
    if (!name.empty()) out << "*" << name;
    first = false;
  }
  if (first) out << "0";
  return out.str();
}

}  // namespace

void append_basis_row(std::span<const double> xs, bool polynomial,
                      std::vector<double>& design) {
  for_each_basis_term(xs, polynomial,
                      [&design](double term) { design.push_back(term); });
}

std::optional<std::vector<double>> solve_least_squares(
    std::span<const double> design, std::size_t width,
    std::span<const double> ys) {
  if (ys.empty() || width == 0 || design.size() != ys.size() * width) {
    return std::nullopt;
  }
  const std::size_t n = width;

  // Normal equations: M = A^T A (n x n, row-major), v = A^T y.
  std::vector<double> m(n * n, 0.0);
  std::vector<double> v(n, 0.0);
  for (std::size_t r = 0; r < ys.size(); ++r) {
    const double* row = design.data() + r * n;
    for (std::size_t i = 0; i < n; ++i) {
      v[i] += row[i] * ys[r];
      for (std::size_t j = 0; j < n; ++j) m[i * n + j] += row[i] * row[j];
    }
  }
  // Ridge epsilon guards near-singular systems (constant columns).
  for (std::size_t i = 0; i < n; ++i) m[i * n + i] += 1e-9;

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(m[r * n + col]) > std::abs(m[pivot * n + col])) pivot = r;
    }
    if (std::abs(m[pivot * n + col]) < 1e-12) return std::nullopt;
    if (pivot != col) {
      std::swap_ranges(m.begin() + static_cast<std::ptrdiff_t>(col * n),
                       m.begin() + static_cast<std::ptrdiff_t>(col * n + n),
                       m.begin() + static_cast<std::ptrdiff_t>(pivot * n));
      std::swap(v[col], v[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = m[r * n + col] / m[col * n + col];
      for (std::size_t c = col; c < n; ++c) {
        m[r * n + c] -= factor * m[col * n + c];
      }
      v[r] -= factor * v[col];
    }
  }
  std::vector<double> solution(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double sum = v[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= m[i * n + j] * solution[j];
    solution[i] = sum / m[i * n + i];
  }
  return solution;
}

namespace {

std::optional<FitResult> fit(const correlate::Dataset& dataset,
                             bool polynomial) {
  if (dataset.points.size() < 4) return std::nullopt;
  const std::size_t n_vars = dataset.n_vars;
  const std::size_t width =
      1 + n_vars + (polynomial ? n_vars * (n_vars + 1) / 2 : 0);
  std::vector<double> design;
  std::vector<double> ys;
  design.reserve(dataset.points.size() * width);
  ys.reserve(dataset.points.size());
  for (const auto& p : dataset.points) {
    if (p.xs.size() != n_vars) continue;  // corrupt sample
    append_basis_row(p.xs, polynomial, design);
    ys.push_back(p.y);
  }
  if (ys.size() < 4) return std::nullopt;
  const auto solution = solve_least_squares(design, width, ys);
  if (!solution) return std::nullopt;

  FitResult result;
  result.coefficients = *solution;
  result.n_vars = dataset.n_vars;
  result.polynomial = polynomial;
  double total = 0.0;
  for (const auto& p : dataset.points) {
    total += std::abs(result.predict(p.xs) - p.y);
  }
  result.mae = total / static_cast<double>(dataset.points.size());
  result.formula =
      render_formula(result.coefficients, result.n_vars, polynomial);
  return result;
}

}  // namespace

double FitResult::predict(std::span<const double> xs) const {
  double y = 0.0;
  std::size_t i = 0;
  for_each_basis_term(xs, polynomial, [&](double term) {
    if (i < coefficients.size()) y += coefficients[i] * term;
    ++i;
  });
  return y;
}

std::optional<FitResult> fit_linear(const correlate::Dataset& dataset) {
  return fit(dataset, /*polynomial=*/false);
}

std::optional<FitResult> fit_polynomial(const correlate::Dataset& dataset) {
  return fit(dataset, /*polynomial=*/true);
}

std::vector<double> evaluate(const Formula& formula,
                             const correlate::Dataset& dataset) {
  std::vector<double> values;
  values.reserve(dataset.points.size());
  for (const auto& p : dataset.points) values.push_back(formula(p.xs));
  return values;
}

RelativeError relative_error(const correlate::Dataset& dataset,
                             const Formula& predict,
                             std::span<const double> expected) {
  if (expected.size() != dataset.points.size()) {
    throw std::invalid_argument("regress: one expected value per point");
  }
  if (dataset.points.empty()) return {};
  // Error scale: pointwise magnitude with a floor at 5% of the signal's
  // mean magnitude (so near-zero crossings don't explode the ratio and
  // tiny-valued signals aren't trivially "correct").
  double mean_abs = 0.0;
  for (const double truth : expected) mean_abs += std::abs(truth);
  mean_abs /= static_cast<double>(dataset.points.size());
  const double floor_scale = std::max(1e-9, 0.05 * mean_abs);
  double total = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < dataset.points.size(); ++i) {
    const double predicted = predict(dataset.points[i].xs);
    const double scale = std::max(floor_scale, std::abs(expected[i]));
    const double deviation = std::abs(predicted - expected[i]) / scale;
    total += deviation;
    worst = std::max(worst, deviation);
  }
  return {total / static_cast<double>(dataset.points.size()), worst};
}

RelativeError relative_error(const FitResult& result,
                             const correlate::Dataset& dataset,
                             std::span<const double> expected) {
  return relative_error(
      dataset,
      [&result](std::span<const double> xs) { return result.predict(xs); },
      expected);
}

RelativeError relative_error(const FitResult& result,
                             const correlate::Dataset& dataset,
                             const Formula& truth) {
  return relative_error(result, dataset, evaluate(truth, dataset));
}

}  // namespace dpr::regress
