#pragma once
// Shared helpers for the paper table (paper.cpp) and the benches.

#include <cstdio>
#include <string>
#include <vector>

#include "core/campaign.hpp"

namespace dpr::bench {

/// Campaign options used by the paper table: long enough windows for
/// stable datasets, GP sized to finish the 18-car sweep on a laptop.
inline core::CampaignOptions table_options() {
  core::CampaignOptions options;
  options.live_window = 16 * util::kSecond;
  options.video_fps = 10.0;
  options.gp.population = 192;
  options.gp.max_generations = 30;  // the paper's cap
  // Fan per-signal inferences across all cores (gp::infer_batch); the
  // recovered formulas are identical to a serial run.
  options.infer_threads = 0;
  return options;
}

/// Table 11's ten vehicles, the ones with ECU control records.
inline std::vector<vehicle::CarId> table11_cars() {
  return {vehicle::CarId::kA, vehicle::CarId::kD, vehicle::CarId::kE,
          vehicle::CarId::kF, vehicle::CarId::kH, vehicle::CarId::kI,
          vehicle::CarId::kJ, vehicle::CarId::kN, vehicle::CarId::kO,
          vehicle::CarId::kQ};
}

inline void print_rule(int width = 72) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline std::string percent(std::size_t num, std::size_t den) {
  if (den == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%",
                100.0 * static_cast<double>(num) /
                    static_cast<double>(den));
  return buf;
}

}  // namespace dpr::bench
