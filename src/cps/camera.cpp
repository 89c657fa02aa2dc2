#include "cps/camera.hpp"

#include "diagtool/tool.hpp"

namespace dpr::cps {

Camera::Camera(const diagtool::DiagnosticTool& tool,
               util::DeviceClock device_clock, int value_font_px)
    : tool_(tool), device_clock_(device_clock),
      value_font_px_(value_font_px) {}

Screenshot Camera::capture(util::SimTime global_now) const {
  const auto& screen = tool_.screen();
  Screenshot shot;
  shot.timestamp = device_clock_.local_time(global_now);
  shot.width = screen.width;
  shot.height = screen.height;
  shot.text_regions.reserve(screen.widgets.size());

  for (const auto& widget : screen.widgets) {
    using K = diagtool::Widget::Kind;
    switch (widget.kind) {
      case K::kButton:
      case K::kLabel:
      case K::kValueText: {
        TextRegion region;
        region.truth = widget.text;
        region.bounds = widget.bounds;
        region.font_px = widget.kind == K::kValueText ? value_font_px_
                                                      : widget.bounds.h / 2;
        region.row = widget.row;
        region.clickable = widget.kind == K::kButton;
        shot.text_regions.push_back(std::move(region));
        break;
      }
      case K::kIconButton: {
        shot.icon_regions.push_back(IconRegion{widget.bounds, widget.icon});
        break;
      }
    }
  }
  return shot;
}

}  // namespace dpr::cps
