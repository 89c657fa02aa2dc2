#include "screenshot/extract.hpp"

#include <algorithm>
#include <charconv>

namespace dpr::screenshot {

std::optional<double> parse_value(std::string_view text) {
  const char* const end = text.data() + text.size();
  double v = 0.0;
  const auto [stop, error] = std::from_chars(text.data(), end, v);
  if (error != std::errc() || stop != end) return std::nullopt;
  return v;
}

std::string_view strip_unit(std::string_view label) {
  const auto pos = label.rfind(" (");
  if (pos == std::string_view::npos || label.back() != ')') return label;
  return label.substr(0, pos);
}

std::vector<UiSample> extract_samples(const cps::VideoRecording& video,
                                      cps::OcrEngine& ocr) {
  // One slot per layout row seen so far, reused across frames: its texts
  // keep their capacity, and its flags say what this frame read. Rows are
  // looked up, never used as an index (a restored checkpoint may carry
  // any int); `order` lists the slots by ascending row.
  struct RowSlot {
    int row = 0;
    bool has_label = false, has_value = false;
    std::string label, value;
  };
  std::vector<RowSlot> slots;
  std::vector<std::size_t> order;
  std::string unused;  // a clickable left-half region's text

  // Every sample needs a value region on its row: reserve for those.
  std::size_t value_regions = 0;
  for (const auto& frame : video.frames) {
    for (const auto& region : frame.text_regions) {
      if (region.row >= 0 && region.bounds.x > frame.width / 2) {
        ++value_regions;
      }
    }
  }
  std::vector<UiSample> samples;
  samples.reserve(value_regions);

  for (const auto& frame : video.frames) {
    for (auto& slot : slots) slot.has_label = slot.has_value = false;
    for (const auto& region : frame.text_regions) {
      if (region.row < 0) continue;
      // Value regions sit in the right half of the screen; labels left.
      const bool is_value = region.bounds.x > frame.width / 2;
      if (!is_value && region.clickable) {
        ocr.read(region.truth, region.font_px, unused);  // not a label
        continue;
      }
      auto at = std::lower_bound(
          order.begin(), order.end(), region.row,
          [&slots](std::size_t i, int row) { return slots[i].row < row; });
      if (at == order.end() || slots[*at].row != region.row) {
        at = order.insert(at, slots.size());
        slots.emplace_back().row = region.row;
      }
      RowSlot& slot = slots[*at];
      ocr.read(region.truth, region.font_px,
               is_value ? slot.value : slot.label);
      (is_value ? slot.has_value : slot.has_label) = true;
    }
    for (const std::size_t i : order) {
      const RowSlot& slot = slots[i];
      if (!slot.has_label || !slot.has_value) continue;
      UiSample& sample = samples.emplace_back();
      sample.timestamp = frame.timestamp;
      sample.row = slot.row;
      sample.name = strip_unit(slot.label);
      sample.value_text = slot.value;
      sample.value = parse_value(slot.value);
    }
  }
  return samples;
}

}  // namespace dpr::screenshot
