#pragma once
// Camera models of the CPS rig (§3.1): camera *a* feeds the UI analyzer
// that steers the robotic clicker; camera *b* records the UI video whose
// text is later extracted for reverse engineering (§3.3).
//
// A Screenshot is the camera-side view of a tool screen: text regions
// with pixel geometry (the output a scene-text detector like EAST would
// produce) plus text-less widget boxes (Canny-edge candidates). The
// regions carry the ground-truth glyphs, which only the OCR engine is
// allowed to look at — everything downstream consumes OCR output.
//
// A shot is a timestamp plus a shared, immutable ScreenImage. Camera b
// films a screen on which a value text changes now and then, so most
// frames are taken while the screen has not changed; those frames hold
// the same image rather than a copy of every region.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "diagtool/ui.hpp"
#include "util/clock.hpp"

// Declared, not included: the screenshot and analysis code that reads
// these structs stays out of reach of the tool's and vehicle's headers.
namespace dpr::diagtool {
class DiagnosticTool;
}

namespace dpr::cps {

struct TextRegion {
  std::string truth;   // actual glyphs; consumed by the OCR engine only
  diagtool::Rect bounds;
  int font_px = 24;
  int row = -1;        // layout row (derived from y geometry)
  bool clickable = false;

  friend bool operator==(const TextRegion&, const TextRegion&) = default;
};

struct IconRegion {
  diagtool::Rect bounds;
  std::string icon_identity;  // matched against reference pictures

  friend bool operator==(const IconRegion&, const IconRegion&) = default;
};

/// What a camera saw of a screen, apart from when it saw it.
struct ScreenImage {
  int width = 0, height = 0;
  std::vector<TextRegion> text_regions;
  std::vector<IconRegion> icon_regions;

  friend bool operator==(const ScreenImage&, const ScreenImage&) = default;
};

struct Screenshot {
  util::SimTime timestamp = 0;  // camera device-clock time
  /// Set by whoever makes the shot (Camera::capture, state::Reader).
  /// Consecutive camera shots of an unchanged screen hold the same image.
  std::shared_ptr<const ScreenImage> image;

  /// Equal when taken at the same time of screens that look the same,
  /// whether or not the two shots share their image.
  friend bool operator==(const Screenshot& a, const Screenshot& b) {
    return a.timestamp == b.timestamp &&
           (a.image == b.image ||
            (a.image && b.image && *a.image == *b.image));
  }
};

class Camera {
 public:
  /// `device_clock` models the recording device's clock skew (§9.4).
  Camera(const diagtool::DiagnosticTool& tool, util::DeviceClock device_clock,
         int value_font_px);

  /// Take one screenshot of the tool's current screen. While the tool's
  /// screen version holds, the shot holds the last shot's image.
  Screenshot capture(util::SimTime global_now);

 private:
  const diagtool::DiagnosticTool& tool_;
  util::DeviceClock device_clock_;
  int value_font_px_;
  std::shared_ptr<const ScreenImage> last_;  // the last shot's image
  std::uint64_t last_version_ = 0;           // the screen version it shows
};

/// A recorded UI video: timestamped frames, as produced by camera b under
/// the "Timestamp Camera" app.
struct VideoRecording {
  std::vector<Screenshot> frames;
};

}  // namespace dpr::cps
