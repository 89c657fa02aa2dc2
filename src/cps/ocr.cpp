#include "cps/ocr.hpp"

#include <algorithm>

namespace dpr::cps {

double OcrEngine::char_error_rate(int font_px) {
  // Calibration: p = a / font_px^3 with a chosen so that a ~70-character
  // frame (14 value rows x ~5 glyphs) is fully correct with probability
  // 97.6% at 34 px and 85.0% at 18 px (Table 4). See DESIGN.md.
  constexpr double a = 15.0;
  const double px = std::max(6, font_px);
  return std::min(0.25, a / (px * px * px));
}

namespace {

char confuse_digit(char c, util::Rng& rng) {
  // Confusion pairs Tesseract commonly exhibits on seven-segment-ish UI
  // fonts. Fall back to a random digit.
  switch (c) {
    case '8':
      return rng.chance(0.5) ? '3' : '0';
    case '3':
      return '8';
    case '1':
      return '7';
    case '7':
      return '1';
    case '0':
      return rng.chance(0.5) ? '8' : 'O';
    case '5':
      return '6';
    case '6':
      return '5';
    default:
      return static_cast<char>('0' + rng.uniform_int(0, 9));
  }
}

}  // namespace

void OcrEngine::read(const std::string& truth, int font_px,
                     std::string& out) {
  ++stats_.strings_read;
  const double p =
      noisy_ ? std::min(0.3, rate_scale_ * char_error_rate(font_px)) : 0.0;
  // Every glyph before the first misread reads true, and most strings
  // have none; from there on each glyph draws its own trial, the first
  // misread's already taken.
  const std::size_t first = rng_.first_success(p, truth.size());
  if (first == truth.size()) {
    ++stats_.strings_correct;
    out = truth;
    return;
  }
  out.assign(truth, 0, first);
  for (std::size_t i = first; i < truth.size(); ++i) {
    const char c = truth[i];
    if (i != first && !rng_.chance(p)) {
      out.push_back(c);
      continue;
    }
    ++stats_.char_errors;
    if (c == '.') {
      // Decimal points are the most fragile glyph: dropped entirely
      // (the paper's "25.00" -> "2500" case).
      ++stats_.decimal_drops;
      continue;
    }
    if (c >= '0' && c <= '9') {
      const double roll = rng_.uniform();
      if (roll < 0.25) continue;  // dropped digit ("11.4" -> "4")
      out.push_back(confuse_digit(c, rng_));
      continue;
    }
    // Letters: substitute a visually close letter (rarely matters for the
    // keyword matching, which is tolerant).
    out.push_back(c == 'l' ? '1' : (c == 'O' ? '0' : c));
  }
}

}  // namespace dpr::cps
