#pragma once
// UI surface of a diagnostic tool: what the cameras of the CPS rig see.
//
// A Screen is a set of positioned widgets. The UI analyzer (cps module)
// only ever consumes this surface — never the tool's internal state — so
// DP-Reverser's "tool as a black box" assumption holds in simulation.

#include <optional>
#include <string>
#include <vector>

namespace dpr::diagtool {

struct Rect {
  int x = 0, y = 0, w = 0, h = 0;

  bool contains(int px, int py) const {
    return px >= x && px < x + w && py >= y && py < y + h;
  }
  int center_x() const { return x + w / 2; }
  int center_y() const { return y + h / 2; }

  friend bool operator==(const Rect&, const Rect&) = default;
};

struct Widget {
  enum class Kind {
    kButton,      // clickable, with text
    kIconButton,  // clickable, no text (recognized by shape similarity)
    kLabel,       // static text
    kValueText,   // live value text (the OCR target for ESVs)
  };

  Kind kind = Kind::kLabel;
  std::string text;
  Rect bounds;
  /// Internal action token consumed by the tool when clicked; opaque to
  /// the CPS side (which only sees geometry + text).
  std::string action;
  /// Icon identity for icon buttons (matched against reference pictures
  /// by the UI analyzer, §3.1). Empty otherwise.
  std::string icon;
  /// For value texts: index of the sibling label naming the signal.
  int row = -1;

  friend bool operator==(const Widget&, const Widget&) = default;
};

struct Screen {
  std::string title;
  int width = 0, height = 0;
  std::vector<Widget> widgets;

  /// Topmost clickable widget at a point, if any.
  const Widget* hit_test(int x, int y) const;

  friend bool operator==(const Screen&, const Screen&) = default;
};

}  // namespace dpr::diagtool
