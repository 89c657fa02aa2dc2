#pragma once
// UI analyzer (§3.1): consumes camera-a screenshots, runs OCR over the
// detected text regions, filters by keywords, and outputs the (X, Y)
// coordinates the robotic clicker should visit. Buttons without text
// (icon buttons) are recognized by similarity against reference pictures.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cps/camera.hpp"
#include "cps/ocr.hpp"
#include "cps/planner.hpp"

namespace dpr::cps {

struct RecognizedWidget {
  std::string text;  // OCR output (may contain recognition errors)
  Point center;
  bool clickable = false;
  int row = -1;
};

class UiAnalyzer {
 public:
  explicit UiAnalyzer(OcrEngine& ocr, util::Rng rng);

  /// OCR every text region of a screenshot ("text detection" + OCR).
  std::vector<RecognizedWidget> recognize(const Screenshot& shot);

  /// Find the clickable widget whose recognized text contains `keyword`
  /// (case-insensitive substring — tolerant of OCR errors elsewhere in
  /// the string). Keywords in `exclude` are filtered out (§3.1 filters
  /// areas like "Clear Trouble Codes").
  std::optional<Point> find_button(
      const Screenshot& shot, const std::string& keyword,
      const std::vector<std::string>& exclude = {});

  /// Selectable ESV rows: clickable regions with a checkbox prefix.
  std::vector<Point> find_selectable_rows(const Screenshot& shot);

  /// Icon button matched against a reference picture id (Canny edges +
  /// template similarity, §3.1). Matches when the similarity score is at
  /// least 0.80.
  std::optional<Point> find_icon(const Screenshot& shot,
                                 const std::string& reference);

  /// Similarity between a detected icon and a reference picture: near 1
  /// for the same widget, low for others, with small sensor noise.
  double icon_similarity(const std::string& detected,
                         const std::string& reference);

 private:
  OcrEngine& ocr_;
  util::Rng rng_;
};

/// Case-insensitive (ASCII) substring check shared with the keyword
/// filters; compares in place, without lowercased copies.
bool contains_keyword(std::string_view text, std::string_view keyword);

}  // namespace dpr::cps
