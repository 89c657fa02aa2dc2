#include "screenshot/extract.hpp"

#include <algorithm>
#include <cstdlib>

namespace dpr::screenshot {

std::optional<double> parse_value(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  return v;
}

std::string strip_unit(const std::string& label) {
  const auto pos = label.rfind(" (");
  if (pos == std::string::npos) return label;
  if (label.back() != ')') return label;
  return label.substr(0, pos);
}

std::vector<UiSample> extract_samples(const cps::VideoRecording& video,
                                      cps::OcrEngine& ocr) {
  // One frame's label and value text per layout row. Rows are looked up,
  // never used as an index: a restored checkpoint may carry any int.
  struct RowText {
    int row = 0;
    std::optional<std::string> label, value;
  };
  std::vector<RowText> rows;
  std::vector<UiSample> samples;
  for (const auto& frame : video.frames) {
    rows.clear();
    for (const auto& region : frame.text_regions) {
      if (region.row < 0) continue;
      std::string text = ocr.read(region.truth, region.font_px);
      // Value regions sit in the right half of the screen; labels left.
      const bool is_value = region.bounds.x > frame.width / 2;
      if (!is_value && region.clickable) continue;
      auto it = std::find_if(rows.begin(), rows.end(), [&](const RowText& r) {
        return r.row == region.row;
      });
      if (it == rows.end()) it = rows.insert(it, RowText{region.row, {}, {}});
      (is_value ? it->value : it->label) = std::move(text);
    }
    std::sort(rows.begin(), rows.end(),
              [](const RowText& a, const RowText& b) { return a.row < b.row; });
    for (auto& row : rows) {
      if (!row.label || !row.value) continue;
      UiSample sample;
      sample.timestamp = frame.timestamp;
      sample.row = row.row;
      sample.name = strip_unit(*row.label);
      sample.value = parse_value(*row.value);
      sample.value_text = std::move(*row.value);
      samples.push_back(std::move(sample));
    }
  }
  return samples;
}

}  // namespace dpr::screenshot
