#include "cps/camera.hpp"

#include "diagtool/tool.hpp"

namespace dpr::cps {

namespace {

/// What a camera sees of `screen`: a text region per text widget, an
/// icon region per icon button, in widget order.
ScreenImage render(const diagtool::Screen& screen, int value_font_px) {
  ScreenImage image;
  image.width = screen.width;
  image.height = screen.height;
  image.text_regions.reserve(screen.widgets.size());

  for (const auto& widget : screen.widgets) {
    using K = diagtool::Widget::Kind;
    switch (widget.kind) {
      case K::kButton:
      case K::kLabel:
      case K::kValueText: {
        TextRegion region;
        region.truth = widget.text;
        region.bounds = widget.bounds;
        region.font_px = widget.kind == K::kValueText ? value_font_px
                                                      : widget.bounds.h / 2;
        region.row = widget.row;
        region.clickable = widget.kind == K::kButton;
        image.text_regions.push_back(std::move(region));
        break;
      }
      case K::kIconButton: {
        image.icon_regions.push_back(IconRegion{widget.bounds, widget.icon});
        break;
      }
    }
  }
  return image;
}

}  // namespace

Camera::Camera(const diagtool::DiagnosticTool& tool,
               util::DeviceClock device_clock, int value_font_px)
    : tool_(tool), device_clock_(device_clock),
      value_font_px_(value_font_px) {}

Screenshot Camera::capture(util::SimTime global_now) {
  const std::uint64_t version = tool_.screen_version();
  if (!last_ || version != last_version_) {
    last_ = std::make_shared<const ScreenImage>(
        render(tool_.screen(), value_font_px_));
    last_version_ = version;
  }
  return Screenshot{device_clock_.local_time(global_now), last_};
}

}  // namespace dpr::cps
