#pragma once
// Screenshot analysis, extraction half (§3.3): turn the recorded UI video
// into timestamped (signal name, displayed value) samples by running OCR
// over every frame and pairing label/value regions by layout row.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cps/camera.hpp"
#include "cps/ocr.hpp"

namespace dpr::screenshot {

struct UiSample {
  util::SimTime timestamp = 0;      // video (camera-b device) timestamp
  int row = -1;                     // layout row (stable per signal)
  std::string name;                 // OCR'd signal label, unit stripped
  std::string value_text;           // OCR'd value as shown
  std::optional<double> value;      // parsed numeric value, if any
};

/// Extract all samples from a recorded video. Label and value regions are
/// associated by their layout row; the "(unit)" suffix is stripped from
/// names. Non-numeric values (enum states like "ON") yield nullopt.
std::vector<UiSample> extract_samples(const cps::VideoRecording& video,
                                      cps::OcrEngine& ocr);

/// Parse a displayed value; nullopt unless the whole string is numeric.
/// Reads with std::from_chars, so besides what strtod also refuses,
/// leading whitespace, a '+' sign, hex ("0x1A") and an out-of-range
/// exponent ("1e999") read nullopt; "-.5", "1.", "1e3", "inf" and "nan"
/// parse. No displayed value has those forms: values are printed with
/// one decimal or as OFF/ON/"State n", and the OCR only drops glyphs,
/// turns digits into digits or 'O', and maps 'l' to '1' and 'O' to '0'.
std::optional<double> parse_value(std::string_view text);

/// Strip a trailing " (unit)" from an OCR'd label; the view points into
/// `label`.
std::string_view strip_unit(std::string_view label);

}  // namespace dpr::screenshot
