#include "screenshot/filter.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "cps/analyzer.hpp"
#include "util/stats.hpp"

namespace dpr::screenshot {

RangeLimits range_for(const std::string& name) {
  const auto has = [&name](const char* keyword) {
    return cps::contains_keyword(name, keyword);
  };
  if (has("engine speed") || has("rpm")) return {0.0, 20000.0};
  if (has("wheel speed") || has("vehicle speed")) return {0.0, 400.0};
  if (has("temperature")) return {-80.0, 1200.0};
  if (has("voltage")) return {0.0, 100.0};
  if (has("pressure")) return {-10.0, 5000.0};
  if (has("angle")) return {-900.0, 900.0};
  if (has("position") || has("level") || has("throttle")) return {-5.0, 150.0};
  if (has("torque")) return {-2000.0, 2000.0};
  return {-1e7, 1e7};  // generic guard against catastrophic misreads
}

std::vector<bool> outlier_mask(const std::vector<double>& values, double k) {
  std::vector<bool> keep(values.size(), true);
  if (values.size() < 4) return keep;
  const double med = util::median(values);
  double spread = util::mad(values, med);
  // Constant (or near-constant) series: allow small relative wiggle.
  if (spread < 1e-9) spread = std::max(1e-6, std::abs(med) * 0.05);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::abs(values[i] - med) > k * spread) keep[i] = false;
  }
  return keep;
}

std::vector<UiSample> filter_samples(std::vector<UiSample> samples,
                                     FilterStats* stats, double mad_k) {
  FilterStats local;

  // Group the numeric samples by signal name, in input order. The views
  // point into `samples`, which is not touched until the output loop.
  std::unordered_map<std::string_view, std::size_t> group_of;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!samples[i].value) continue;
    ++local.numeric_samples;
    const auto [it, added] =
        group_of.try_emplace(samples[i].name, groups.size());
    if (added) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  // Per signal: stage 1 (range check, one lookup per name), then stage 2
  // (outlier cut) over the values stage 1 kept.
  std::vector<bool> keep(samples.size(), true);
  std::vector<std::size_t> staged;
  std::vector<double> values;
  for (const auto& group : groups) {
    const RangeLimits limits = range_for(samples[group.front()].name);
    staged.clear();
    values.clear();
    for (const std::size_t i : group) {
      const double v = *samples[i].value;
      // A NaN passes both comparisons, and its ordering breaks stage 2's
      // median: non-finite values are range rejects.
      if (!std::isfinite(v) || v < limits.lo || v > limits.hi) {
        keep[i] = false;
        ++local.range_rejected;
      } else {
        staged.push_back(i);
        values.push_back(v);
      }
    }
    const auto mask = outlier_mask(values, mad_k);
    for (std::size_t j = 0; j < staged.size(); ++j) {
      if (!mask[j]) {
        keep[staged[j]] = false;
        ++local.outlier_rejected;
      }
    }
  }

  std::size_t kept = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!keep[i]) continue;
    if (kept != i) samples[kept] = std::move(samples[i]);
    ++kept;
  }
  samples.erase(samples.begin() + static_cast<std::ptrdiff_t>(kept),
                samples.end());
  if (stats) *stats = local;
  return samples;
}

}  // namespace dpr::screenshot
