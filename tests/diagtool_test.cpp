#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "can/bus.hpp"
#include "can/sniffer.hpp"
#include "diagtool/tool.hpp"
#include "util/checkpoint.hpp"
#include "vehicle/vehicle.hpp"

namespace dpr::diagtool {
namespace {

class ToolFixture : public ::testing::Test {
 protected:
  explicit ToolFixture(vehicle::CarId car = vehicle::CarId::kA)
      : bus_(clock_),
        vehicle_(car, bus_, clock_),
        tool_(profile_by_name(vehicle_.spec().tool), vehicle_, bus_,
              clock_),
        sniffer_(bus_) {}

  /// Click the first clickable widget whose text contains `keyword`.
  bool click(const std::string& keyword) {
    for (const auto& widget : tool_.screen().widgets) {
      if ((widget.kind == Widget::Kind::kButton) &&
          widget.text.find(keyword) != std::string::npos) {
        return tool_.click(widget.bounds.center_x(),
                           widget.bounds.center_y());
      }
    }
    return false;
  }

  /// Open the Engine data stream with every other row selected and start
  /// the live view: it shows rows with and without a value text.
  void start_sparse_live_view() {
    click("Local Diagnostics");
    click("Engine");
    click("Read Data Stream");
    std::vector<std::pair<int, int>> even_rows;
    for (const auto& w : tool_.screen().widgets) {
      if (w.kind == Widget::Kind::kButton && w.row >= 0 && w.row % 2 == 0) {
        even_rows.emplace_back(w.bounds.center_x(), w.bounds.center_y());
      }
    }
    for (const auto& [x, y] : even_rows) tool_.click(x, y);
    ASSERT_TRUE(click("Start"));
  }

  /// Let time pass in uneven steps, so values land mid-step. After each
  /// step the screen the in-place repaints left must equal a rebuild of
  /// it (clicking "Prev Page" on page 0 rebuilds and changes no state),
  /// and the screen version must have moved exactly when the screen did
  /// (a step is shorter than the poll period, so no value text changes
  /// twice within one). Returns how many steps repainted something.
  std::size_t run_against_rebuilds(int steps) {
    std::size_t repainted = 0;
    for (int step = 0; step < steps; ++step) {
      const Screen before = tool_.screen();
      const std::uint64_t version = tool_.screen_version();
      tool_.run_for((40 + 15 * (step % 5)) * util::kMillisecond);
      const Screen painted = tool_.screen();
      EXPECT_EQ(tool_.screen_version() != version, painted != before)
          << "step " << step;
      repainted += painted != before;
      EXPECT_TRUE(click("Prev Page"));
      EXPECT_TRUE(tool_.screen() == painted) << "step " << step;
    }
    return repainted;
  }

  util::SimClock clock_;
  can::CanBus bus_;
  vehicle::Vehicle vehicle_;
  DiagnosticTool tool_;
  can::Sniffer sniffer_;
};

TEST_F(ToolFixture, StartsAtMainMenu) {
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kMainMenu);
  EXPECT_NE(tool_.screen().title.find("Skoda"), std::string::npos);
}

TEST_F(ToolFixture, NavigatesToEcuList) {
  ASSERT_TRUE(click("Local Diagnostics"));
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kEcuList);
  // One button per ECU.
  std::size_t buttons = 0;
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind == Widget::Kind::kButton) ++buttons;
  }
  EXPECT_EQ(buttons, vehicle_.spec().ecus.size());
}

TEST_F(ToolFixture, EcuMenuHasDataStreamAndActiveTest) {
  click("Local Diagnostics");
  click("Engine");
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kEcuMenu);
  EXPECT_TRUE(click("Read Data Stream"));
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kDataSelect);
}

TEST_F(ToolFixture, RowSelectionToggles) {
  click("Local Diagnostics");
  click("Engine");
  click("Read Data Stream");
  EXPECT_EQ(tool_.selected_rows(), 0u);
  click("[ ]");
  EXPECT_EQ(tool_.selected_rows(), 1u);
  click("[x]");
  EXPECT_EQ(tool_.selected_rows(), 0u);
}

TEST_F(ToolFixture, LiveViewPollsAndDisplaysValues) {
  click("Local Diagnostics");
  click("Engine");
  click("Read Data Stream");
  // Select every row on the page.
  while (click("[ ]")) {
  }
  ASSERT_GT(tool_.selected_rows(), 0u);
  click("Start");
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kDataLive);
  tool_.run_for(3 * util::kSecond);
  // Values should be painted (not "--") and traffic generated.
  std::size_t painted = 0;
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind == Widget::Kind::kValueText && w.text != "--") ++painted;
  }
  EXPECT_GT(painted, 0u);
  EXPECT_GT(sniffer_.size(), 10u);
}

TEST_F(ToolFixture, DisplayedValueMatchesGroundTruthFormula) {
  click("Local Diagnostics");
  click("Engine");
  click("Read Data Stream");
  while (click("[ ]")) {
  }
  click("Start");
  tool_.run_for(3 * util::kSecond);
  // Compare a *constant* signal against the vehicle's ground truth (live
  // signals move during the display lag; a constant one must match up to
  // formatting rounding).
  const auto& ecu_spec = vehicle_.spec().ecus[0];
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind != Widget::Kind::kValueText || w.row < 0) continue;
    if (w.text == "--") continue;
    const auto& sig = ecu_spec.uds_signals[static_cast<std::size_t>(w.row)];
    if (sig.pattern != vehicle::RawSignal::Pattern::kConstant) continue;
    const auto truth = vehicle_.physical_value(sig.did);
    ASSERT_TRUE(truth.has_value());
    const double displayed = std::stod(w.text);
    EXPECT_NEAR(displayed, *truth, std::max(1.0, std::abs(*truth)) * 0.01);
    return;
  }
  GTEST_SKIP() << "no constant signal painted on page 1";
}

TEST_F(ToolFixture, ActiveTestTriggersActuator) {
  click("Local Diagnostics");
  click("Main Body");
  ASSERT_TRUE(click("Active Test"));
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kActiveTest);
  // Click the first actuator button.
  const auto& acts = vehicle_.spec().ecus[1].actuators;
  ASSERT_FALSE(acts.empty());
  ASSERT_TRUE(click(acts[0].name));
  auto* ecu = vehicle_.find_ecu_with_actuator(acts[0].id);
  ASSERT_NE(ecu, nullptr);
  EXPECT_EQ(ecu->actuator(acts[0].id)->activations(), 1u);
  // Status label reports success.
  bool found_status = false;
  for (const auto& w : tool_.screen().widgets) {
    if (w.text.find("Test OK") != std::string::npos) found_status = true;
  }
  EXPECT_TRUE(found_status);
}

TEST_F(ToolFixture, ObdLiveViewReadsStandardPids) {
  ASSERT_TRUE(click("OBD-II Scan"));
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kObdLive);
  tool_.run_for(3 * util::kSecond);
  std::size_t painted = 0;
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind == Widget::Kind::kValueText && w.text != "--") ++painted;
  }
  EXPECT_GT(painted, 5u);
}

TEST_F(ToolFixture, BackIconNavigatesUp) {
  click("Local Diagnostics");
  ASSERT_EQ(tool_.mode(), DiagnosticTool::Mode::kEcuList);
  // The back icon is the icon button at the top-left corner. Find it
  // first: a click rebuilds the screen and frees the widget list.
  std::optional<std::pair<int, int>> icon;
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind == Widget::Kind::kIconButton) {
      icon.emplace(w.bounds.center_x(), w.bounds.center_y());
      break;
    }
  }
  ASSERT_TRUE(icon.has_value());
  ASSERT_TRUE(tool_.click(icon->first, icon->second));
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kMainMenu);
}

TEST_F(ToolFixture, LiveValuesRepaintInPlaceAsARebuildWould) {
  start_sparse_live_view();
  std::size_t rows = 0, values = 0;
  for (const auto& w : tool_.screen().widgets) {
    rows += w.kind == Widget::Kind::kLabel && w.row >= 0;
    values += w.kind == Widget::Kind::kValueText;
  }
  ASSERT_GT(values, 0u);
  ASSERT_LT(values, rows);  // unselected rows have no value text
  EXPECT_GT(run_against_rebuilds(120), 10u);
}

TEST_F(ToolFixture, ObdValuesRepaintInPlaceAsTheRebuildingToolDid) {
  // The OBD view has no rebuild that keeps its state (leaving it and
  // coming back resets its rows), so its screens are checked against
  // the tool that rebuilt the whole screen at every landed value: the
  // FNV-1a digest of every widget text after each of the steps below,
  // captured on that tool. Between steps only value texts may change.
  ASSERT_TRUE(click("OBD-II Scan"));
  const Screen entered = tool_.screen();
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  std::size_t repainted = 0;
  for (int step = 0; step < 120; ++step) {
    const Screen before = tool_.screen();
    tool_.run_for((40 + 15 * (step % 5)) * util::kMillisecond);
    const Screen& screen = tool_.screen();
    repainted += screen != before;
    ASSERT_EQ(screen.widgets.size(), entered.widgets.size());
    for (std::size_t i = 0; i < screen.widgets.size(); ++i) {
      Widget unpainted = screen.widgets[i];
      if (unpainted.kind == Widget::Kind::kValueText) {
        unpainted.text = entered.widgets[i].text;
      }
      EXPECT_TRUE(unpainted == entered.widgets[i]) << "widget " << i;
      digest = util::fnv1a64_str(screen.widgets[i].text, digest);
    }
  }
  EXPECT_GT(repainted, 10u);
  EXPECT_EQ(digest, 0x69cd083899931af3ULL) << "fresh: 0x" << std::hex << digest;
}

TEST(Profiles, ResolutionOrdering) {
  const auto autel = profile_for(ToolKind::kAutel919);
  const auto launch = profile_for(ToolKind::kLaunchX431);
  EXPECT_GT(autel.screen_width, launch.screen_width);
  EXPECT_GT(autel.value_font_px, launch.value_font_px);
  EXPECT_EQ(profile_by_name("AUTEL 919").kind, ToolKind::kAutel919);
  EXPECT_EQ(profile_by_name("VCDS").kind, ToolKind::kVcds);
}

class KwpToolFixture : public ToolFixture {
 protected:
  KwpToolFixture() : ToolFixture(vehicle::CarId::kB) {}
};

TEST_F(KwpToolFixture, KwpLiveValuesRepaintInPlaceAsARebuildWould) {
  start_sparse_live_view();
  EXPECT_GT(run_against_rebuilds(120), 10u);
}

TEST_F(KwpToolFixture, KwpLiveViewWorksOverVwTp) {
  click("Local Diagnostics");
  click("Engine");
  click("Read Data Stream");
  while (click("[ ]")) {
  }
  click("Start");
  tool_.run_for(3 * util::kSecond);
  std::size_t painted = 0;
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind == Widget::Kind::kValueText && w.text != "--") ++painted;
  }
  EXPECT_GT(painted, 0u);
}

}  // namespace
}  // namespace dpr::diagtool

namespace dpr::diagtool {
namespace {

class DtcFixture : public ToolFixture {};

TEST_F(DtcFixture, ReadTroubleCodesShowsDtcScreen) {
  click("Local Diagnostics");
  click("Engine");
  ASSERT_TRUE(click("Read Trouble Codes"));
  EXPECT_EQ(tool_.mode(), DiagnosticTool::Mode::kDtcList);
  // The screen lists either codes (P/C/B/U prefix) or the empty notice.
  bool found = false;
  for (const auto& w : tool_.screen().widgets) {
    if (w.kind != Widget::Kind::kLabel) continue;
    if (w.text.find("status") != std::string::npos ||
        w.text.find("No trouble codes") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(DtcFixture, ClearTroubleCodesEmptiesTheStore) {
  click("Local Diagnostics");
  click("Engine");
  ASSERT_TRUE(click("Clear Trouble Codes"));
  // Reading afterwards shows the empty notice.
  click("Read Trouble Codes");
  bool empty_notice = false;
  for (const auto& w : tool_.screen().widgets) {
    if (w.text.find("No trouble codes") != std::string::npos) {
      empty_notice = true;
    }
  }
  EXPECT_TRUE(empty_notice);
}

}  // namespace
}  // namespace dpr::diagtool
