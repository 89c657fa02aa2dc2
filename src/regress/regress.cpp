#include "regress/regress.hpp"

#include <cmath>
#include <sstream>

namespace dpr::regress {

namespace {

/// Design-matrix row for the chosen basis.
std::vector<double> basis_row(std::span<const double> xs, bool polynomial) {
  std::vector<double> row;
  row.push_back(1.0);  // intercept
  for (double x : xs) row.push_back(x);
  if (polynomial) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      for (std::size_t j = i; j < xs.size(); ++j) {
        row.push_back(xs[i] * xs[j]);  // squares and cross terms
      }
    }
  }
  return row;
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

std::optional<std::vector<double>> solve_least_squares(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& ys) {
  if (rows.empty() || rows.size() != ys.size()) return std::nullopt;
  const std::size_t n = rows.front().size();
  // Ragged rows would read past the short ones below; reject them.
  for (const auto& row : rows) {
    if (row.size() != n) return std::nullopt;
  }

  // Normal equations: M = A^T A (n x n), v = A^T y.
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  std::vector<double> v(n, 0.0);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      v[i] += rows[r][i] * ys[r];
      for (std::size_t j = 0; j < n; ++j) {
        m[i][j] += rows[r][i] * rows[r][j];
      }
    }
  }
  // Ridge epsilon guards near-singular systems (constant columns).
  for (std::size_t i = 0; i < n; ++i) m[i][i] += 1e-9;

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(m[r][col]) > std::abs(m[pivot][col])) pivot = r;
    }
    if (std::abs(m[pivot][col]) < 1e-12) return std::nullopt;
    std::swap(m[col], m[pivot]);
    std::swap(v[col], v[pivot]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = m[r][col] / m[col][col];
      for (std::size_t c = col; c < n; ++c) m[r][c] -= factor * m[col][c];
      v[r] -= factor * v[col];
    }
  }
  std::vector<double> solution(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double sum = v[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= m[i][j] * solution[j];
    solution[i] = sum / m[i][i];
  }
  return solution;
}

namespace {

std::optional<FitResult> fit(const correlate::Dataset& dataset,
                             bool polynomial) {
  if (dataset.points.size() < 4) return std::nullopt;
  std::vector<std::vector<double>> rows;
  std::vector<double> ys;
  rows.reserve(dataset.points.size());
  for (const auto& p : dataset.points) {
    if (p.xs.size() != dataset.n_vars) continue;  // corrupt sample
    rows.push_back(basis_row(p.xs, polynomial));
    ys.push_back(p.y);
  }
  if (rows.size() < 4) return std::nullopt;
  const auto solution = solve_least_squares(rows, ys);
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
  const auto row = basis_row(xs, polynomial);
  double y = 0.0;
  for (std::size_t i = 0; i < row.size() && i < coefficients.size(); ++i) {
    y += coefficients[i] * row[i];
  }
  return y;
}

std::optional<FitResult> fit_linear(const correlate::Dataset& dataset) {
  return fit(dataset, /*polynomial=*/false);
}

std::optional<FitResult> fit_polynomial(const correlate::Dataset& dataset) {
  return fit(dataset, /*polynomial=*/true);
}

RelativeError relative_error(const correlate::Dataset& dataset,
                             const Formula& predict, const Formula& truth) {
  if (dataset.points.empty()) return {};
  // Error scale: pointwise magnitude with a floor at 5% of the signal's
  // mean magnitude (so near-zero crossings don't explode the ratio and
  // tiny-valued signals aren't trivially "correct").
  double mean_abs = 0.0;
  for (const auto& p : dataset.points) mean_abs += std::abs(truth(p.xs));
  mean_abs /= static_cast<double>(dataset.points.size());
  const double floor_scale = std::max(1e-9, 0.05 * mean_abs);
  double total = 0.0;
  double worst = 0.0;
  for (const auto& p : dataset.points) {
    const double predicted = predict(p.xs);
    const double expected = truth(p.xs);
    const double scale = std::max(floor_scale, std::abs(expected));
    const double deviation = std::abs(predicted - expected) / scale;
    total += deviation;
    worst = std::max(worst, deviation);
  }
  return {total / static_cast<double>(dataset.points.size()), worst};
}

RelativeError relative_error(const FitResult& result,
                             const correlate::Dataset& dataset,
                             const Formula& truth) {
  return relative_error(
      dataset,
      [&result](std::span<const double> xs) { return result.predict(xs); },
      truth);
}

}  // namespace dpr::regress
