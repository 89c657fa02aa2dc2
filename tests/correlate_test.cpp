#include <gtest/gtest.h>

#include "correlate/correlate.hpp"
#include "obd/pid.hpp"

namespace dpr::correlate {
namespace {

TEST(BuildDataset, PairsNearestSampleUnderOffset) {
  std::vector<XSample> xs{{1000, {10.0}}, {2000, {20.0}}};
  std::vector<YSample> ys{{1350, 100.0}, {2350, 200.0}, {9999, 42.0}};
  const auto dataset = build_dataset(xs, ys, /*offset=*/300);
  ASSERT_EQ(dataset.points.size(), 2u);
  EXPECT_DOUBLE_EQ(dataset.points[0].y, 100.0);
  EXPECT_DOUBLE_EQ(dataset.points[1].y, 200.0);
  EXPECT_EQ(dataset.n_vars, 1u);
}

TEST(BuildDataset, DropsPairsBeyondMaxGap) {
  std::vector<XSample> xs{{1000, {10.0}}};
  std::vector<YSample> ys{{5'000'000, 100.0}};
  const auto dataset = build_dataset(xs, ys, 0);
  EXPECT_TRUE(dataset.points.empty());
}

TEST(BuildDataset, TwoVariableOperands) {
  std::vector<XSample> xs{{1000, {1.0, 2.0}}};
  std::vector<YSample> ys{{1000, 3.0}};
  const auto dataset = build_dataset(xs, ys, 0);
  EXPECT_EQ(dataset.n_vars, 2u);
  EXPECT_EQ(dataset.points[0].xs, (std::vector<double>{1.0, 2.0}));
}

TEST(BuildDataset, EmptyInputsYieldEmptyDataset) {
  EXPECT_TRUE(build_dataset({}, {{1, 1.0}}, 0).points.empty());
  EXPECT_TRUE(build_dataset({{1, {1.0}}}, {}, 0).points.empty());
}

TEST(AlignWithObd, RecoversDisplayLatency) {
  // Vehicle-speed responses whose value changes each time; the display
  // repaints a constant 250 ms later.
  const util::SimTime latency = 250 * util::kMillisecond;
  std::vector<frames::DiagMessage> messages;
  std::vector<screenshot::UiSample> samples;
  double value = 40.0;
  for (int i = 0; i < 20; ++i) {
    const util::SimTime t = i * util::kSecond;
    value += 7.0;
    const auto spec = obd::find_pid(0x0D);
    const auto raw = spec->encode(value);
    util::Bytes payload{0x41, 0x0D};
    payload.insert(payload.end(), raw.begin(), raw.end());
    messages.push_back(frames::DiagMessage{t, 0x7E8, payload});
    samples.push_back(screenshot::UiSample{
        t + latency, 0, spec->name, "", spec->decode(raw)});
  }
  const auto result = align_with_obd(messages, samples);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(static_cast<double>(result->offset),
              static_cast<double>(latency), 1000.0);
  EXPECT_GT(result->matched, 10u);
}

TEST(AlignWithObd, NoAnchorsWithoutValueChanges) {
  std::vector<frames::DiagMessage> messages;
  std::vector<screenshot::UiSample> samples;
  for (int i = 0; i < 10; ++i) {
    messages.push_back(frames::DiagMessage{
        i * 1000, 0x7E8, util::from_hex("41 0D 64")});
    samples.push_back(
        screenshot::UiSample{i * 1000 + 100, 0, "Vehicle Speed", "", 100.0});
  }
  EXPECT_EQ(align_with_obd(messages, samples), std::nullopt);
}

TEST(EstimateByChanges, RecoversLatencyFromGenericSeries) {
  const util::SimTime latency = 300 * util::kMillisecond;
  std::vector<XSample> xs;
  std::vector<YSample> ys;
  double raw = 10.0;
  for (int i = 0; i < 30; ++i) {
    const util::SimTime t = i * util::kSecond;
    raw += 3.0;
    xs.push_back(XSample{t, {raw}});
    ys.push_back(YSample{t + latency, raw * 2.0});
  }
  std::vector<std::pair<std::vector<XSample>, std::vector<YSample>>> series;
  series.emplace_back(xs, ys);
  const auto result = estimate_offset_by_changes(series);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(static_cast<double>(result->offset),
              static_cast<double>(latency), 1000.0);
}

TEST(EstimateByChanges, RequiresEnoughAnchors) {
  std::vector<std::pair<std::vector<XSample>, std::vector<YSample>>> series;
  series.emplace_back(std::vector<XSample>{{1, {1.0}}},
                      std::vector<YSample>{{2, 2.0}});
  EXPECT_EQ(estimate_offset_by_changes(series), std::nullopt);
}

TEST(EstimateByChanges, RobustToSpuriousYChanges) {
  const util::SimTime latency = 200 * util::kMillisecond;
  std::vector<XSample> xs;
  std::vector<YSample> ys;
  double raw = 10.0;
  for (int i = 0; i < 40; ++i) {
    const util::SimTime t = i * util::kSecond;
    raw += 2.0;
    xs.push_back(XSample{t, {raw}});
    ys.push_back(YSample{t + latency, raw});
    if (i % 10 == 5) {
      // A corrupted OCR sample creating a fake Y change mid-interval.
      ys.push_back(YSample{t + 700 * util::kMillisecond, raw * 7});
    }
  }
  std::vector<std::pair<std::vector<XSample>, std::vector<YSample>>> series;
  series.emplace_back(xs, ys);
  const auto result = estimate_offset_by_changes(series);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(static_cast<double>(result->offset),
              static_cast<double>(latency), 80'000.0);
}

}  // namespace
}  // namespace dpr::correlate
