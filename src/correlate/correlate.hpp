#pragma once
// Correlation of diagnostic traffic with UI video (§3.5 step 1, §9.4):
//   * clock alignment between the CAN-capture laptop and the video
//     smartphone — either NTP-style (small residual offset) or via the
//     well-documented OBD-II protocol: compute each OBD response's real
//     value from the standard formula, find it on screen, and take the
//     median time offset;
//   * (X, Y) pair construction — for every ESV raw value X (traffic
//     timestamp), find the nearest displayed value Y (video timestamp).

#include <optional>
#include <vector>

#include "frames/analysis.hpp"
#include "screenshot/extract.hpp"
#include "util/clock.hpp"

namespace dpr::correlate {

/// One aligned training pair: X operands (1 or 2 raw bytes / combined
/// value) with the displayed value Y.
struct DataPoint {
  std::vector<double> xs;
  double y = 0.0;
  util::SimTime x_time = 0;  // traffic timestamp (capture clock)
  util::SimTime y_time = 0;  // video timestamp (camera clock)
};

struct Dataset {
  std::size_t n_vars = 1;
  std::vector<DataPoint> points;
};

/// Time-stamped X observation (already sliced per signal).
struct XSample {
  util::SimTime timestamp = 0;
  std::vector<double> xs;
};

/// Time-stamped Y observation (already filtered per signal).
struct YSample {
  util::SimTime timestamp = 0;
  double y = 0.0;
};

/// Pair every X with the nearest-in-time Y under the clock mapping
/// `video_time ~= traffic_time + offset`; pairs farther apart than 800 ms
/// are dropped.
Dataset build_dataset(const std::vector<XSample>& xs,
                      const std::vector<YSample>& ys, util::SimTime offset);

struct AlignmentResult {
  util::SimTime offset = 0;   // video = traffic + offset
  std::size_t matched = 0;    // anchor points used
};

/// Latency estimation from value *changes*: whenever a signal's raw value
/// changes in traffic, the display must switch to the new value shortly
/// after; the median delay between an X change and the next Y change
/// estimates (clock offset + display latency) without any protocol
/// knowledge; delays above 1.5 s are not counted. `series` pairs each
/// signal's X samples with its Y samples.
std::optional<AlignmentResult> estimate_offset_by_changes(
    const std::vector<std::pair<std::vector<XSample>,
                                std::vector<YSample>>>& series);

/// OBD-II-based alignment (§9.4 method 2): `messages` is the assembled
/// traffic of an OBD warm-up phase; `samples` the UI samples of the same
/// window. A displayed value matches within 0.5% of the decoded one.
/// Returns nullopt if no anchors matched.
std::optional<AlignmentResult> align_with_obd(
    const std::vector<frames::DiagMessage>& messages,
    const std::vector<screenshot::UiSample>& samples);

}  // namespace dpr::correlate
