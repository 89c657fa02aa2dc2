#pragma once
// OCR engine simulation (Tesseract stand-in, §3.3).
//
// The error model is character-level and resolution-dependent: the
// per-character misread probability falls with glyph height, calibrated so
// that whole-frame precision reproduces Table 4 (AUTEL 919 at 34 px glyphs
// -> ~97.6%; LAUNCH X431 at 18 px -> ~85.0%). Error modes mirror the
// paper's observations: dropped decimal points ("25.00" -> "2500"),
// confusable digit substitutions, and dropped characters (§4.4 cause (i)).

#include <string>

#include "util/rng.hpp"

namespace dpr::cps {

struct OcrStats {
  std::size_t strings_read = 0;
  std::size_t strings_correct = 0;
  std::size_t char_errors = 0;
  std::size_t decimal_drops = 0;

  double precision() const {
    return strings_read == 0
               ? 1.0
               : static_cast<double>(strings_correct) /
                     static_cast<double>(strings_read);
  }
};

class OcrEngine {
 public:
  /// `noisy = false` yields a perfect engine (clean-room ablations);
  /// `rate_scale` multiplies the character error rate (stress ablations:
  /// glare, camera shake, worse lenses).
  explicit OcrEngine(util::Rng rng, bool noisy = true,
                     double rate_scale = 1.0)
      : rng_(rng), noisy_(noisy), rate_scale_(rate_scale) {}

  /// Recognize one text region rendered with `font_px`-tall glyphs into
  /// `out`, reusing its capacity. One `Rng::first_success` loop scans the
  /// truth for its first misread; a read without one is the truth.
  void read(const std::string& truth, int font_px, std::string& out);
  std::string read(const std::string& truth, int font_px) {
    std::string out;
    read(truth, font_px, out);
    return out;
  }

  /// Per-character misread probability at a glyph height.
  static double char_error_rate(int font_px);

  const OcrStats& stats() const { return stats_; }

  /// Checkpoint support: the engine's replayable state is its RNG stream
  /// position plus the running stats. Restoring both makes a resumed
  /// campaign's OCR output bit-identical to an uninterrupted run.
  util::Rng::State rng_state() const { return rng_.state(); }
  void restore(const util::Rng::State& rng_state, const OcrStats& stats) {
    rng_.restore(rng_state);
    stats_ = stats;
  }

 private:
  util::Rng rng_;
  bool noisy_ = true;
  double rate_scale_ = 1.0;
  OcrStats stats_;
};

}  // namespace dpr::cps
