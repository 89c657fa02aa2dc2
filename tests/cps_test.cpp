#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "can/bus.hpp"
#include "cps/analyzer.hpp"
#include "cps/camera.hpp"
#include "cps/clicker.hpp"
#include "cps/ocr.hpp"
#include "cps/planner.hpp"
#include "diagtool/tool.hpp"
#include "util/checkpoint.hpp"
#include "vehicle/vehicle.hpp"

namespace dpr::cps {
namespace {

TEST(Ocr, PerfectWhenNoiseDisabled) {
  OcrEngine ocr(util::Rng(1), /*noisy=*/false);
  EXPECT_EQ(ocr.read("25.00", 10), "25.00");
  EXPECT_DOUBLE_EQ(ocr.stats().precision(), 1.0);
}

TEST(Ocr, ErrorRateFallsWithFontSize) {
  EXPECT_GT(OcrEngine::char_error_rate(18), OcrEngine::char_error_rate(34));
  EXPECT_GT(OcrEngine::char_error_rate(10), OcrEngine::char_error_rate(18));
}

TEST(Ocr, CalibrationMatchesTable4) {
  // ~70 glyphs per frame: AUTEL (34 px) ~97.6 %, LAUNCH (18 px) ~85 %.
  const double p_autel = OcrEngine::char_error_rate(34);
  const double p_launch = OcrEngine::char_error_rate(18);
  EXPECT_NEAR(std::pow(1.0 - p_autel, 70), 0.976, 0.01);
  EXPECT_NEAR(std::pow(1.0 - p_launch, 70), 0.85, 0.03);
}

TEST(Ocr, EventuallyDropsDecimalPoints) {
  OcrEngine ocr(util::Rng(7));
  bool dropped = false;
  for (int i = 0; i < 30000 && !dropped; ++i) {
    const std::string read = ocr.read("25.00", 12);
    if (read == "2500") dropped = true;
  }
  EXPECT_TRUE(dropped);
  EXPECT_GT(ocr.stats().decimal_drops, 0u);
}

TEST(Ocr, StatsTrackPrecision) {
  OcrEngine ocr(util::Rng(9));
  for (int i = 0; i < 2000; ++i) ocr.read("Engine Speed", 34);
  EXPECT_GT(ocr.stats().precision(), 0.9);
  EXPECT_LT(ocr.stats().precision(), 1.0);
}

TEST(Ocr, ReadsAndDrawsMatchFrozenDigest) {
  // Frozen read outputs, stats and RNG positions of the error model over
  // glyph heights and rate scales (p reaches its 0.3 cap at 10 px x 50),
  // so a read that skips, adds or reorders a draw fails.
  const std::vector<std::string> texts{
      "",        "0",       "25.00",   "3012.5",
      "-40.5",   "OFF",     "ON",      "State 3",
      "lOOl.8",  "88888888", "Engine Speed (rpm)",
      "[ ] Coolant Temperature", "0123456789.0123456789"};
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (const double rate_scale : {0.0, 1.0, 6.0, 50.0}) {
    for (const int font_px : {10, 18, 34}) {
      OcrEngine ocr(util::Rng(0xC0FFEE), /*noisy=*/true, rate_scale);
      for (int pass = 0; pass < 300; ++pass) {
        for (const auto& text : texts) {
          digest = util::fnv1a64_str(ocr.read(text, font_px), digest);
        }
      }
      for (const std::uint64_t word : ocr.rng_state().s) {
        digest = util::fnv1a64_u64(word, digest);
      }
      const OcrStats& stats = ocr.stats();
      digest = util::fnv1a64_u64(stats.strings_read, digest);
      digest = util::fnv1a64_u64(stats.strings_correct, digest);
      digest = util::fnv1a64_u64(stats.char_errors, digest);
      digest = util::fnv1a64_u64(stats.decimal_drops, digest);
    }
  }
  EXPECT_EQ(digest, 0xbabf582c94d8cecfULL)
      << "fresh digest 0x" << std::hex << digest;
}

TEST(Keyword, MatchesInAnyAsciiCase) {
  EXPECT_TRUE(contains_keyword("Engine SPEED (rpm)", "engine speed"));
  EXPECT_TRUE(contains_keyword("engine speed", "ENGINE Speed"));
  EXPECT_TRUE(contains_keyword("Coolant Temp", "t t"));
  EXPECT_FALSE(contains_keyword("Engine Speed", "Engine  Speed"));
}

TEST(Keyword, EmptyKeywordMatchesAnyText) {
  EXPECT_TRUE(contains_keyword("Engine Speed", ""));
  EXPECT_TRUE(contains_keyword("", ""));
}

TEST(Keyword, LongerThanTheTextNeverMatches) {
  EXPECT_FALSE(contains_keyword("RPM", "RPMs"));
  EXPECT_FALSE(contains_keyword("", "a"));
}

TEST(Keyword, BytesAbove0x7FMatchOnlyThemselves) {
  // As std::tolower in the "C" locale: 0xC4 and 0xE4 (Latin-1 A and a
  // umlaut) differ by 0x20 like an ASCII case pair, but do not fold.
  EXPECT_TRUE(contains_keyword("Au\xC4" "en", "U\xC4" "E"));
  EXPECT_FALSE(contains_keyword("Au\xC4" "en", "u\xE4" "e"));
  EXPECT_FALSE(contains_keyword("\xFF", "\xDF"));
  EXPECT_TRUE(contains_keyword("x\x80\xFF", "\x80\xFF"));
}

/// Sim time the pen takes for `manhattan_px` of travel.
util::SimTime travel_for(double manhattan_px) {
  return static_cast<util::SimTime>(manhattan_px /
                                    RoboticClicker::kSpeedPxPerS *
                                    static_cast<double>(util::kSecond));
}

TEST(Clicker, TravelTimeIsManhattanOverSpeed) {
  util::SimClock clock;
  RoboticClicker clicker(clock);
  EXPECT_EQ(clicker.travel_time(300, 400), travel_for(700.0));
  EXPECT_EQ(clicker.travel_time(-300, 400), travel_for(700.0));
  EXPECT_EQ(clock.now(), 0);  // a hypothetical move takes no time
}

TEST(Clicker, MoveAndClickAdvancesClockAndLogs) {
  util::SimClock clock;
  RoboticClicker clicker(clock);
  const auto event = clicker.move_and_click(100, 100);
  // 200 px of travel, then the press.
  EXPECT_EQ(clock.now(), travel_for(200.0) + RoboticClicker::kDwell);
  EXPECT_EQ(event.timestamp, clock.now());
  EXPECT_EQ(event.x, 100);
  EXPECT_EQ(clicker.log().size(), 1u);
  EXPECT_EQ(clicker.total_travel(), travel_for(200.0));
}

TEST(Planner, NearestNeighborVisitsAll) {
  const std::vector<Point> points{{0, 0}, {10, 0}, {0, 10}, {10, 10}};
  const auto order = plan_nearest_neighbor({0, 0}, points);
  ASSERT_EQ(order.size(), 4u);
  std::set<std::size_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(Planner, NearestNeighborBeatsRandomOnAverage) {
  // The §3.1 claim: NN saves ~7 % of movement versus random order on a
  // 14-ESV screen.
  util::Rng rng(11);
  double nn_total = 0, random_total = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Point> points;
    for (int i = 0; i < 14; ++i) {
      points.push_back(Point{static_cast<int>(rng.uniform_int(0, 1200)),
                             static_cast<int>(rng.uniform_int(0, 700))});
    }
    const Point start{0, 0};
    nn_total += static_cast<double>(
        tour_length(start, points, plan_nearest_neighbor(start, points)));
    auto random_order = plan_random(points, rng);
    random_total +=
        static_cast<double>(tour_length(start, points, random_order));
  }
  EXPECT_LT(nn_total, random_total * 0.93);
}

TEST(Planner, BruteForceOptimalOnSmallInstances) {
  util::Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Point> points;
    for (int i = 0; i < 7; ++i) {
      points.push_back(Point{static_cast<int>(rng.uniform_int(0, 500)),
                             static_cast<int>(rng.uniform_int(0, 500))});
    }
    const Point start{0, 0};
    const long optimal =
        tour_length(start, points, plan_brute_force(start, points));
    const long nn =
        tour_length(start, points, plan_nearest_neighbor(start, points));
    EXPECT_LE(optimal, nn);
  }
}

TEST(Planner, BruteForceRejectsLargeInstances) {
  std::vector<Point> points(11);
  EXPECT_THROW(plan_brute_force({0, 0}, points), std::invalid_argument);
}

class RigFixture : public ::testing::Test {
 protected:
  RigFixture()
      : bus_(clock_),
        vehicle_(vehicle::CarId::kA, bus_, clock_),
        tool_(diagtool::profile_for(diagtool::ToolKind::kAutel919),
              vehicle_, bus_, clock_),
        camera_(tool_, util::DeviceClock(1000, 0.0),
                tool_.profile().value_font_px),
        ocr_(util::Rng(3), /*noisy=*/false),
        analyzer_(ocr_, util::Rng(4)) {}

  util::SimClock clock_;
  can::CanBus bus_;
  vehicle::Vehicle vehicle_;
  diagtool::DiagnosticTool tool_;
  Camera camera_;
  OcrEngine ocr_;
  UiAnalyzer analyzer_;
};

TEST_F(RigFixture, CameraCapturesWidgetsWithDeviceTimestamp) {
  clock_.advance(5000);
  const auto shot = camera_.capture(clock_.now());
  EXPECT_EQ(shot.timestamp, 6000);
  EXPECT_GT(shot.text_regions.size(), 3u);
}

TEST_F(RigFixture, AnalyzerFindsButtonsByKeyword) {
  const auto shot = camera_.capture(clock_.now());
  EXPECT_TRUE(analyzer_.find_button(shot, "Diagnos").has_value());
  EXPECT_FALSE(analyzer_.find_button(shot, "Nonexistent").has_value());
}

TEST_F(RigFixture, AnalyzerRespectsExcludeList) {
  tool_.click(tool_.screen().widgets[1].bounds.center_x(),
              tool_.screen().widgets[1].bounds.center_y());  // diagnostics
  const auto list_shot = camera_.capture(clock_.now());
  // Enter first ECU to reach the menu with "Read/Clear Trouble Codes".
  const auto point = analyzer_.find_button(list_shot, "Engine");
  ASSERT_TRUE(point.has_value());
  tool_.click(point->x, point->y);
  const auto menu_shot = camera_.capture(clock_.now());
  const auto excluded = analyzer_.find_button(menu_shot, "Trouble",
                                              {"Clear"});
  ASSERT_TRUE(excluded.has_value());  // "Read Trouble Codes" passes
  const auto all_excluded =
      analyzer_.find_button(menu_shot, "Clear Trouble", {"Clear"});
  EXPECT_FALSE(all_excluded.has_value());
}

TEST_F(RigFixture, IconSimilarityMatchingFindsBackArrow) {
  tool_.click(tool_.screen().widgets[1].bounds.center_x(),
              tool_.screen().widgets[1].bounds.center_y());
  const auto shot = camera_.capture(clock_.now());
  EXPECT_TRUE(analyzer_.find_icon(shot, "back_arrow").has_value());
  EXPECT_FALSE(analyzer_.find_icon(shot, "gear_icon").has_value());
}

TEST_F(RigFixture, IconSimilarityScores) {
  EXPECT_GT(analyzer_.icon_similarity("back_arrow", "back_arrow"), 0.85);
  EXPECT_LT(analyzer_.icon_similarity("back_arrow", "gear_icon"), 0.8);
}

}  // namespace
}  // namespace dpr::cps
