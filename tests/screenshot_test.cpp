#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/campaign.hpp"
#include "cps/camera.hpp"
#include "cps/ocr.hpp"
#include "screenshot/extract.hpp"
#include "screenshot/filter.hpp"
#include "util/checkpoint.hpp"

namespace dpr::screenshot {
namespace {

cps::Screenshot make_frame(util::SimTime t,
                           std::initializer_list<
                               std::pair<std::string, std::string>> rows) {
  cps::Screenshot shot;
  shot.timestamp = t;
  shot.width = 1000;
  shot.height = 800;
  int row = 0;
  for (const auto& [label, value] : rows) {
    cps::TextRegion name;
    name.truth = label;
    name.bounds = {40, 60 + 40 * row, 400, 36};
    name.row = row;
    shot.text_regions.push_back(name);
    cps::TextRegion val;
    val.truth = value;
    val.bounds = {600, 60 + 40 * row, 200, 30};
    val.row = row;
    shot.text_regions.push_back(val);
    ++row;
  }
  return shot;
}

/// One text region: left half (x < 500) is a label, right half a value.
cps::TextRegion region(std::string text, int x, int row,
                       bool clickable = false) {
  cps::TextRegion r;
  r.truth = std::move(text);
  r.bounds = {x, 60, 200, 30};
  r.row = row;
  r.clickable = clickable;
  return r;
}

cps::Screenshot frame_of(std::vector<cps::TextRegion> regions) {
  cps::Screenshot shot;
  shot.timestamp = 1000;
  shot.width = 1000;
  shot.height = 800;
  shot.text_regions = std::move(regions);
  return shot;
}

std::vector<UiSample> extract_clean(const cps::Screenshot& shot) {
  cps::VideoRecording video;
  video.frames.push_back(shot);
  cps::OcrEngine ocr(util::Rng(1), /*noisy=*/false);
  return extract_samples(video, ocr);
}

TEST(Extract, PairsLabelsAndValuesByRow) {
  cps::VideoRecording video;
  video.frames.push_back(make_frame(
      1000, {{"Engine Speed (rpm)", "3012.5"}, {"Door Status", "ON"}}));
  cps::OcrEngine ocr(util::Rng(1), /*noisy=*/false);
  const auto samples = extract_samples(video, ocr);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "Engine Speed");  // unit stripped
  EXPECT_EQ(samples[0].row, 0);
  ASSERT_TRUE(samples[0].value.has_value());
  EXPECT_DOUBLE_EQ(*samples[0].value, 3012.5);
  EXPECT_EQ(samples[1].name, "Door Status");
  EXPECT_EQ(samples[1].value, std::nullopt);  // enum text
}

TEST(Extract, TimestampsComeFromFrames) {
  cps::VideoRecording video;
  video.frames.push_back(make_frame(1111, {{"A", "1.0"}}));
  video.frames.push_back(make_frame(2222, {{"A", "2.0"}}));
  cps::OcrEngine ocr(util::Rng(1), false);
  const auto samples = extract_samples(video, ocr);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].timestamp, 1111);
  EXPECT_EQ(samples[1].timestamp, 2222);
}

TEST(Extract, RowsComeOutInAscendingOrderWhateverTheRegionOrder) {
  const auto samples = extract_clean(frame_of({
      region("C", 40, 2), region("0.5", 600, 0), region("B", 40, 1),
      region("2.5", 600, 2), region("A", 40, 0), region("1.5", 600, 1)}));
  ASSERT_EQ(samples.size(), 3u);
  for (int row = 0; row < 3; ++row) {
    EXPECT_EQ(samples[row].row, row);
    EXPECT_EQ(samples[row].name, std::string(1, static_cast<char>('A' + row)));
    EXPECT_DOUBLE_EQ(*samples[row].value, row + 0.5);
  }
}

TEST(Extract, LaterLabelAndValueOnARowWin) {
  const auto samples = extract_clean(frame_of({
      region("Old", 40, 0), region("1.0", 600, 0), region("2.0", 600, 0),
      region("New (V)", 40, 0)}));
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "New");
  EXPECT_EQ(samples[0].value_text, "2.0");
}

TEST(Extract, ClickableLeftHalfRegionIsNotALabel) {
  // A "Back" button shares row 0 with a signal and sits alone on row 1.
  const auto samples = extract_clean(frame_of({
      region("Engine Speed", 40, 0), region("Back", 40, 0, true),
      region("3000", 600, 0), region("Back", 40, 1, true),
      region("5", 600, 1)}));
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "Engine Speed");
  EXPECT_EQ(samples[0].row, 0);
}

TEST(Extract, RegionsWithoutARowAreNeverRead) {
  cps::VideoRecording video;
  video.frames.push_back(
      frame_of({region("Data Stream", 40, -1), region("A", 40, 0),
                region("1.0", 600, 0), region("12:00", 600, -1)}));
  cps::OcrEngine ocr(util::Rng(1), false);
  ASSERT_EQ(extract_samples(video, ocr).size(), 1u);
  EXPECT_EQ(ocr.stats().strings_read, 2u);
}

TEST(Extract, ARowReadOnOneFrameEmitsNothingOnTheNextWithoutIt) {
  // Row slots are reused across frames; what frame 1 read on row 0 must
  // not pair with what frame 2 reads there.
  cps::VideoRecording video;
  video.frames.push_back(frame_of({region("A", 40, 0), region("1.0", 600, 0),
                                   region("B", 40, 1), region("2.0", 600, 1)}));
  video.frames.push_back(frame_of({region("3.0", 600, 0), region("B", 40, 1)}));
  video.frames.push_back(frame_of({region("A", 40, 0), region("4.0", 600, 0)}));
  cps::OcrEngine ocr(util::Rng(1), false);
  const auto samples = extract_samples(video, ocr);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].value_text, "1.0");
  EXPECT_EQ(samples[1].value_text, "2.0");
  EXPECT_EQ(samples[2].name, "A");
  EXPECT_EQ(samples[2].value_text, "4.0");
  EXPECT_EQ(ocr.stats().strings_read, 8u);
}

TEST(Extract, ExtremeRowNumbersPairNormally) {
  // Rows restored from a checkpoint may hold any int.
  const int big = std::numeric_limits<int>::max();
  const auto samples = extract_clean(frame_of({
      region("Far", 40, big), region("7", 600, big), region("Near", 40, 0),
      region("3", 600, 0)}));
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "Near");
  EXPECT_EQ(samples[1].name, "Far");
  EXPECT_EQ(samples[1].row, big);
  EXPECT_DOUBLE_EQ(*samples[1].value, 7.0);
}

TEST(Extract, ParseValueRejectsPartialNumbers) {
  EXPECT_EQ(parse_value("12.5x"), std::nullopt);
  EXPECT_EQ(parse_value(""), std::nullopt);
  EXPECT_EQ(parse_value("ON"), std::nullopt);
  ASSERT_TRUE(parse_value("-40.5").has_value());
  EXPECT_DOUBLE_EQ(*parse_value("-40.5"), -40.5);
}

TEST(Extract, ParseValueReadsWhatStrtodReadExceptFourForms) {
  EXPECT_EQ(parse_value("-.5"), -0.5);
  EXPECT_EQ(parse_value("1."), 1.0);
  EXPECT_EQ(parse_value("1e3"), 1000.0);
  EXPECT_EQ(parse_value("inf"), std::numeric_limits<double>::infinity());
  ASSERT_TRUE(parse_value("nan").has_value());
  EXPECT_TRUE(std::isnan(*parse_value("nan")));
  // strtod read these; no displayed value or OCR misread has their form.
  EXPECT_EQ(parse_value(" 1"), std::nullopt);
  EXPECT_EQ(parse_value("+1"), std::nullopt);
  EXPECT_EQ(parse_value("0x1A"), std::nullopt);
  EXPECT_EQ(parse_value("1e999"), std::nullopt);
  EXPECT_EQ(parse_value("1e-400"), std::nullopt);
}

TEST(Extract, StripUnitOnlyWhenParenthesized) {
  EXPECT_EQ(strip_unit("Engine Speed (rpm)"), "Engine Speed");
  EXPECT_EQ(strip_unit("Engine Speed"), "Engine Speed");
}

TEST(Filter, RangeForKnownTypes) {
  EXPECT_LE(range_for("Engine Speed").hi, 20000.0);
  EXPECT_LE(range_for("Vehicle Speed").hi, 400.0);
  EXPECT_LE(range_for("Coolant Temperature").hi, 1200.0);
  EXPECT_GE(range_for("Something Exotic").hi, 1e6);
  // Keywords match whatever the case of the OCR'd name.
  EXPECT_DOUBLE_EQ(range_for("ENGINE SPEED").hi, 20000.0);
  EXPECT_DOUBLE_EQ(range_for("Engine RPM").hi, 20000.0);
}

TEST(Filter, Stage1RejectsOutOfRangeValues) {
  std::vector<UiSample> samples;
  // "25.0" misread as "2500" km/h — the paper's decimal-drop example.
  samples.push_back(UiSample{1000, 0, "Vehicle Speed", "2500", 2500.0});
  samples.push_back(UiSample{2000, 0, "Vehicle Speed", "25.0", 25.0});
  FilterStats stats;
  const auto kept = filter_samples(samples, &stats);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(*kept[0].value, 25.0);
  EXPECT_EQ(stats.range_rejected, 1u);
}

TEST(Filter, Stage2RemovesStatisticalOutliers) {
  std::vector<UiSample> samples;
  for (int i = 0; i < 20; ++i) {
    samples.push_back(UiSample{i * 1000, 0, "Oil Pressure", "x",
                               200.0 + i});
  }
  // An 11.4 -> 4 style drop: in range, but far from the series.
  samples.push_back(UiSample{30000, 0, "Oil Pressure", "4", 4.0});
  FilterStats stats;
  const auto kept = filter_samples(samples, &stats);
  EXPECT_EQ(kept.size(), 20u);
  EXPECT_EQ(stats.outlier_rejected, 1u);
}

TEST(Filter, Stage2SeesOnlyStage1Survivors) {
  // Seven 1000 km/h misreads would drag the series median to 1000 and
  // make every real value an outlier; stage 1 must drop them first.
  std::vector<UiSample> samples;
  for (const double v : {100.0, 101.0, 102.0, 103.0, 104.0, 150.0}) {
    samples.push_back(UiSample{0, 0, "Vehicle Speed", "x", v});
  }
  for (int i = 0; i < 7; ++i) {
    samples.push_back(UiSample{0, 0, "Vehicle Speed", "x", 1000.0});
  }
  FilterStats stats;
  const auto kept = filter_samples(samples, &stats);
  ASSERT_EQ(kept.size(), 5u);
  EXPECT_DOUBLE_EQ(*kept[4].value, 104.0);
  EXPECT_EQ(stats.numeric_samples, 13u);
  EXPECT_EQ(stats.range_rejected, 7u);
  EXPECT_EQ(stats.outlier_rejected, 1u);
}

TEST(Filter, NonFiniteValuesAreRangeRejects) {
  // A restored video may say "nan" or "inf"; neither reaches stage 2.
  std::vector<UiSample> samples;
  for (int i = 0; i < 6; ++i) {
    samples.push_back(UiSample{i * 1000, 0, "Vehicle Speed", "x", 50.0 + i});
  }
  samples.push_back(UiSample{6000, 0, "Vehicle Speed", "nan",
                             std::numeric_limits<double>::quiet_NaN()});
  samples.push_back(UiSample{7000, 1, "Exotic", "inf",
                             std::numeric_limits<double>::infinity()});
  samples.push_back(UiSample{8000, 1, "Exotic", "2", 2.0});
  FilterStats stats;
  const auto kept = filter_samples(samples, &stats);
  ASSERT_EQ(kept.size(), 7u);
  for (const auto& sample : kept) EXPECT_TRUE(std::isfinite(*sample.value));
  EXPECT_EQ(stats.numeric_samples, 9u);
  EXPECT_EQ(stats.range_rejected, 2u);
  EXPECT_EQ(stats.outlier_rejected, 0u);
}

TEST(Filter, NonNumericSamplesPassThrough) {
  std::vector<UiSample> samples{
      UiSample{1000, 0, "Door Status", "ON", std::nullopt}};
  const auto kept = filter_samples(samples);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].value_text, "ON");
}

TEST(Filter, OutlierMaskHandlesConstantSeries) {
  const std::vector<double> constant{5.0, 5.0, 5.0, 5.0, 5.0};
  const auto mask = outlier_mask(constant, 10.0);
  for (bool keep : mask) EXPECT_TRUE(keep);
  // A constant series with one excursion.
  const std::vector<double> spiked{5.0, 5.0, 5.0, 5.0, 50.0};
  const auto spiked_mask = outlier_mask(spiked, 10.0);
  EXPECT_FALSE(spiked_mask[4]);
}

TEST(Filter, SmallSeriesNotFiltered) {
  const std::vector<double> tiny{1.0, 100.0};
  const auto mask = outlier_mask(tiny, 10.0);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);
}

TEST(Filter, SeparateSignalsFilteredIndependently) {
  std::vector<UiSample> samples;
  for (int i = 0; i < 10; ++i) {
    samples.push_back(UiSample{i * 1000, 0, "Oil Pressure", "x", 300.0});
    samples.push_back(UiSample{i * 1000, 1, "Battery Voltage", "x", 12.6});
  }
  // 300 would be an outlier for the voltage series but is normal for the
  // pressure series.
  const auto kept = filter_samples(samples);
  EXPECT_EQ(kept.size(), 20u);
}

TEST(ScreenshotGolden, CarsAtoCExtractAndFilterMatchFrozenDigest) {
  // Frozen products of both halves on real recorded videos, at an OCR
  // error rate high enough that both filter stages reject something.
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  const auto fold = [&digest](const std::vector<UiSample>& samples) {
    digest = util::fnv1a64_u64(samples.size(), digest);
    for (const auto& s : samples) {
      digest = util::fnv1a64_u64(static_cast<std::uint64_t>(s.timestamp),
                                 digest);
      digest = util::fnv1a64_u64(static_cast<std::uint64_t>(s.row), digest);
      digest = util::fnv1a64_str(s.name, digest);
      digest = util::fnv1a64_str(s.value_text, digest);
      digest = util::fnv1a64_u64(s.value.has_value(), digest);
      digest = util::fnv1a64_f64(s.value.value_or(0.0), digest);
    }
  };
  FilterStats total;
  std::size_t kept_total = 0;
  for (const auto car :
       {vehicle::CarId::kA, vehicle::CarId::kB, vehicle::CarId::kC}) {
    core::CampaignOptions options;
    options.live_window = 8 * util::kSecond;
    options.run_inference = false;
    core::Campaign campaign(car, options);
    campaign.collect();
    cps::OcrEngine ocr(util::Rng(options.seed ^ 0xCB5).fork(), true, 6.0);
    const auto extracted = extract_samples(campaign.video(), ocr);
    FilterStats stats;
    const auto kept = filter_samples(extracted, &stats);
    fold(extracted);
    fold(kept);
    digest = util::fnv1a64_u64(stats.numeric_samples, digest);
    digest = util::fnv1a64_u64(stats.range_rejected, digest);
    digest = util::fnv1a64_u64(stats.outlier_rejected, digest);
    kept_total += kept.size();
    total.numeric_samples += stats.numeric_samples;
    total.range_rejected += stats.range_rejected;
    total.outlier_rejected += stats.outlier_rejected;
  }
  EXPECT_GT(total.range_rejected, 0u);
  EXPECT_GT(total.outlier_rejected, 0u);
  EXPECT_EQ(digest, 0xfbc58fc54a559d97ULL)
      << "fresh digest 0x" << std::hex << digest << std::dec << " ("
      << kept_total << " kept, " << total.numeric_samples << " numeric, "
      << total.range_rejected << " range, " << total.outlier_rejected
      << " outlier rejects)";
}

}  // namespace
}  // namespace dpr::screenshot
