#include "diagtool/ui.hpp"

namespace dpr::diagtool {

const Widget* Screen::hit_test(int x, int y) const {
  for (auto it = widgets.rbegin(); it != widgets.rend(); ++it) {
    if ((it->kind == Widget::Kind::kButton ||
         it->kind == Widget::Kind::kIconButton) &&
        it->bounds.contains(x, y)) {
      return &*it;
    }
  }
  return nullptr;
}

}  // namespace dpr::diagtool
