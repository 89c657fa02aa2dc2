#include "cps/analyzer.hpp"

#include <algorithm>
#include <functional>

namespace dpr::cps {

namespace {

/// find_icon: the least similarity score that matches.
constexpr double kIconThreshold = 0.80;

}  // namespace

bool contains_keyword(std::string_view text, std::string_view keyword) {
  // ASCII case folding, as std::tolower in the "C" locale: bytes >= 0x80
  // compare as they are.
  const auto fold = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  if (keyword.empty()) return true;  // as std::string::find("")
  return std::search(text.begin(), text.end(), keyword.begin(),
                     keyword.end(), [&fold](char a, char b) {
                       return fold(a) == fold(b);
                     }) != text.end();
}

UiAnalyzer::UiAnalyzer(OcrEngine& ocr, util::Rng rng)
    : ocr_(ocr), rng_(rng) {}

std::vector<RecognizedWidget> UiAnalyzer::recognize(const Screenshot& shot) {
  std::vector<RecognizedWidget> out;
  out.reserve(shot.text_regions.size());
  for (const auto& region : shot.text_regions) {
    RecognizedWidget w;
    ocr_.read(region.truth, region.font_px, w.text);
    w.center = Point{region.bounds.center_x(), region.bounds.center_y()};
    w.clickable = region.clickable;
    w.row = region.row;
    out.push_back(std::move(w));
  }
  return out;
}

std::optional<Point> UiAnalyzer::find_button(
    const Screenshot& shot, const std::string& keyword,
    const std::vector<std::string>& exclude) {
  for (const auto& widget : recognize(shot)) {
    if (!widget.clickable) continue;
    if (!contains_keyword(widget.text, keyword)) continue;
    bool excluded = false;
    for (const auto& bad : exclude) {
      if (contains_keyword(widget.text, bad)) excluded = true;
    }
    if (!excluded) return widget.center;
  }
  return std::nullopt;
}

std::vector<Point> UiAnalyzer::find_selectable_rows(const Screenshot& shot) {
  std::vector<Point> rows;
  for (const auto& widget : recognize(shot)) {
    if (!widget.clickable) continue;
    // Checkbox prefix "[ ]" / "[x]" — tolerate OCR damage to the inner
    // character but require the brackets.
    if (widget.text.size() >= 3 && widget.text[0] == '[' &&
        widget.text.find(']') != std::string::npos) {
      rows.push_back(widget.center);
    }
  }
  return rows;
}

double UiAnalyzer::icon_similarity(const std::string& detected,
                                   const std::string& reference) {
  if (detected == reference) {
    return std::clamp(0.94 + rng_.normal(0.0, 0.02), 0.0, 1.0);
  }
  // Unrelated widgets: mid-low similarity with spread, deterministic per
  // (detected, reference) pair plus sensor noise.
  const std::size_t h =
      std::hash<std::string>{}(detected + "|" + reference);
  const double base = 0.25 + 0.35 * static_cast<double>(h % 1000) / 1000.0;
  return std::clamp(base + rng_.normal(0.0, 0.03), 0.0, 1.0);
}

std::optional<Point> UiAnalyzer::find_icon(const Screenshot& shot,
                                           const std::string& reference) {
  for (const auto& icon : shot.icon_regions) {
    if (icon_similarity(icon.icon_identity, reference) >= kIconThreshold) {
      return Point{icon.bounds.center_x(), icon.bounds.center_y()};
    }
  }
  return std::nullopt;
}

}  // namespace dpr::cps
