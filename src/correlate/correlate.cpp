#include "correlate/correlate.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "obd/pid.hpp"
#include "util/stats.hpp"

namespace dpr::correlate {

namespace {

/// build_dataset: the widest X-to-Y gap still paired.
constexpr util::SimTime kMaxGap = 800 * util::kMillisecond;
/// estimate_offset_by_changes: the longest X-change-to-repaint delay
/// counted.
constexpr util::SimTime kMaxLatency = 1500 * util::kMillisecond;
/// align_with_obd: relative tolerance of a displayed value match.
constexpr double kValueTolerance = 0.005;

}  // namespace

Dataset build_dataset(const std::vector<XSample>& xs,
                      const std::vector<YSample>& ys, util::SimTime offset) {
  Dataset dataset;
  if (xs.empty() || ys.empty()) return dataset;
  // A corrupted frame can truncate (or garble) a sample's field list, so
  // the signal's width is the widest sample seen and ragged samples are
  // dropped below — every emitted point has exactly n_vars xs, which
  // downstream fitters (regress normal equations, gp::SampleMatrix)
  // rely on.
  for (const auto& x : xs) {
    dataset.n_vars = std::max(dataset.n_vars, x.xs.size());
  }

  // Y samples are produced in time order; binary-search the nearest.
  std::vector<YSample> sorted = ys;
  std::sort(sorted.begin(), sorted.end(),
            [](const YSample& a, const YSample& b) {
              return a.timestamp < b.timestamp;
            });

  for (const auto& x : xs) {
    if (x.xs.size() != dataset.n_vars) continue;  // corrupt sample
    const util::SimTime target = x.timestamp + offset;
    const auto it = std::lower_bound(
        sorted.begin(), sorted.end(), target,
        [](const YSample& s, util::SimTime t) { return s.timestamp < t; });
    const YSample* best = nullptr;
    if (it != sorted.end()) best = &*it;
    if (it != sorted.begin()) {
      const YSample* prev = &*(it - 1);
      if (best == nullptr ||
          std::llabs(prev->timestamp - target) <
              std::llabs(best->timestamp - target)) {
        best = prev;
      }
    }
    if (best == nullptr) continue;
    if (std::llabs(best->timestamp - target) > kMaxGap) continue;
    dataset.points.push_back(
        DataPoint{x.xs, best->y, x.timestamp, best->timestamp});
  }
  return dataset;
}

std::optional<AlignmentResult> align_with_obd(
    const std::vector<frames::DiagMessage>& messages,
    const std::vector<screenshot::UiSample>& samples) {
  std::vector<double> offsets;
  // Previous decoded value per PID: only value *changes* anchor the
  // alignment — a stale frame can display an unchanged value, but only a
  // post-repaint frame can display a new one.
  std::map<std::uint8_t, double> previous;

  // Index the numeric samples by displayed name, time-sorted, so each
  // anchor binary-searches its first candidate at/after the message
  // instead of rescanning every sample (O((m+s) log s), not O(m*s)).
  // stable_sort keeps the original order among equal timestamps — the
  // legacy scan kept the first-seen sample on ties.
  std::map<std::string, std::vector<const screenshot::UiSample*>> by_name;
  for (const auto& sample : samples) {
    if (!sample.value) continue;
    by_name[sample.name].push_back(&sample);
  }
  for (auto& [name, bucket] : by_name) {
    std::stable_sort(bucket.begin(), bucket.end(),
                     [](const screenshot::UiSample* a,
                        const screenshot::UiSample* b) {
                       return a->timestamp < b->timestamp;
                     });
  }

  for (const auto& msg : messages) {
    // Only positive mode-01 responses anchor the alignment.
    if (msg.payload.size() < 3 || msg.payload[0] != 0x41) continue;
    const auto spec = obd::find_pid(msg.payload[1]);
    if (!spec || msg.payload.size() < 2 + spec->data_bytes) continue;
    const double real_value = spec->decode(std::span<const std::uint8_t>(
        msg.payload.data() + 2, spec->data_bytes));

    const double scale = std::max(1.0, std::abs(real_value));
    const auto prev = previous.find(msg.payload[1]);
    const bool had_prev = prev != previous.end();
    const double prev_value = had_prev ? prev->second : 0.0;
    // Anchor only on *large* changes so a stale frame showing the old
    // value cannot be mistaken for the new one.
    const bool changed =
        had_prev &&
        std::abs(prev_value - real_value) > 6.0 * kValueTolerance * scale;
    previous[msg.payload[1]] = real_value;
    if (!changed) continue;

    // First frame at/after the message that shows the *new* value:
    // jump to the message's timestamp, then walk forward to the first
    // value match.
    const auto bucket_it = by_name.find(spec->name);
    if (bucket_it == by_name.end()) continue;
    const auto& bucket = bucket_it->second;
    auto it = std::lower_bound(
        bucket.begin(), bucket.end(), msg.timestamp,
        [](const screenshot::UiSample* s, util::SimTime t) {
          return s->timestamp < t;
        });
    const screenshot::UiSample* best = nullptr;
    for (; it != bucket.end(); ++it) {
      if (std::abs(*(*it)->value - real_value) <= kValueTolerance * scale) {
        best = *it;
        break;
      }
    }
    if (best == nullptr) continue;
    offsets.push_back(
        static_cast<double>(best->timestamp - msg.timestamp));
  }

  if (offsets.empty()) return std::nullopt;
  AlignmentResult result;
  result.offset = static_cast<util::SimTime>(util::median(offsets));
  result.matched = offsets.size();
  return result;
}

std::optional<AlignmentResult> estimate_offset_by_changes(
    const std::vector<std::pair<std::vector<XSample>,
                                std::vector<YSample>>>& series) {
  std::vector<double> deltas;

  for (const auto& [xs, ys] : series) {
    if (xs.size() < 3 || ys.size() < 3) continue;
    // X change instants.
    std::vector<util::SimTime> x_changes;
    for (std::size_t i = 1; i < xs.size(); ++i) {
      if (xs[i].xs != xs[i - 1].xs) x_changes.push_back(xs[i].timestamp);
    }
    if (x_changes.empty()) continue;
    // Y change instants.
    std::vector<YSample> sorted = ys;
    std::sort(sorted.begin(), sorted.end(),
              [](const YSample& a, const YSample& b) {
                return a.timestamp < b.timestamp;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i].y == sorted[i - 1].y) continue;
      const util::SimTime y_time = sorted[i].timestamp;
      // Latest X change at/before this repaint.
      const auto it = std::upper_bound(x_changes.begin(), x_changes.end(),
                                       y_time);
      if (it == x_changes.begin()) continue;
      const util::SimTime delta = y_time - *(it - 1);
      if (delta >= 0 && delta <= kMaxLatency) {
        deltas.push_back(static_cast<double>(delta));
      }
    }
  }

  if (deltas.size() < 5) return std::nullopt;
  AlignmentResult result;
  result.offset = static_cast<util::SimTime>(util::median(deltas));
  result.matched = deltas.size();
  return result;
}

}  // namespace dpr::correlate
