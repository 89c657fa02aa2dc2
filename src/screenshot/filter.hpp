#pragma once
// Screenshot analysis, filtering half (§3.3): the two-stage removal of
// incorrect ESV values produced by OCR errors.
//   Stage 1 — a plausible value range per ESV type (keyword-derived, as a
//             stand-in for the per-PID tables the paper cites).
//   Stage 2 — outlier detection over each signal's short time window: the
//             measured ESV cannot change greatly within seconds, so values
//             far from the series median (in MAD units) are OCR artifacts.

#include <string>
#include <vector>

#include "screenshot/extract.hpp"

namespace dpr::screenshot {

struct RangeLimits {
  double lo = -1e9;
  double hi = 1e9;
};

/// Plausible physical range for an ESV, keyed on its (OCR'd) name.
RangeLimits range_for(const std::string& name);

struct FilterStats {
  std::size_t numeric_samples = 0;
  std::size_t range_rejected = 0;
  std::size_t outlier_rejected = 0;
};

/// Apply both stages per signal name and return `samples` with the kept
/// ones compacted in place, in input order. Non-numeric samples (enum
/// states) pass through untouched; a non-finite value is a range reject.
/// `mad_k` is the outlier cut in MAD units.
std::vector<UiSample> filter_samples(std::vector<UiSample> samples,
                                     FilterStats* stats = nullptr,
                                     double mad_k = 10.0);

/// Stage-2 primitive, exposed for tests: keep values within
/// `k` * MAD of the median (with a relative floor for constant series).
std::vector<bool> outlier_mask(const std::vector<double>& values, double k);

}  // namespace dpr::screenshot
