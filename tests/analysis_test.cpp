// The §3.4 rules of core/analysis on hand-built observations: which
// layout row takes which traffic key, what a visit's window admits, the
// label vote, the request text, the enum rule and the §4.2 test.

#include <gtest/gtest.h>

#include "core/analysis.hpp"

namespace dpr::core {
namespace {

constexpr util::SimTime kS = util::kSecond;

frames::EsvObservation uds(util::SimTime t, std::uint16_t did,
                           util::Bytes data) {
  frames::EsvObservation esv;
  esv.timestamp = t;
  esv.did = did;
  esv.data = std::move(data);
  return esv;
}

screenshot::UiSample shown(util::SimTime t, int row, std::string name,
                           std::optional<double> value) {
  return screenshot::UiSample{t, row, std::move(name), "", value};
}

TEST(Associate, RowsTakeKeysInFirstSeenOrderWithinTheLiveWindow) {
  // Live from 10 s to 20 s, so the window is [9 s, 21 s].
  EcuVisit visit;
  visit.live_begin = 10 * kS;
  visit.live_end = 20 * kS;
  const std::vector<EcuVisit> visits{visit};
  frames::ExtractionResult extraction;
  frames::EsvObservation kwp;
  kwp.timestamp = 12 * kS + 1;
  kwp.is_kwp = true;
  kwp.local_id = 0x05;
  kwp.esv_index = 1;
  kwp.x0 = 3;
  kwp.x1 = 4;
  extraction.esvs = {uds(8 * kS, 0x1111, {9}),  // before the window
                     uds(12 * kS, 0xF40D, {0x20}), kwp,
                     uds(12 * kS + 2, 0xF40C, {1, 2, 3}),
                     uds(13 * kS, 0xF40D, {0x21}),
                     uds(21 * kS, 0xF40D, {0x22}),  // last instant inside
                     uds(22 * kS, 0x2222, {9})};    // after the window
  const std::vector<screenshot::UiSample> samples{
      shown(8 * kS, 1, "Early", 1.0),  // before the window: row 1 unused
      shown(12 * kS, 9, "Status", std::nullopt),
      shown(12 * kS, 5, "Load", 40.0),
      shown(12 * kS, 2, "Speed", 30.0),
      shown(13 * kS, 9, "Statue", 1.0),
      shown(14 * kS, 9, "Status", std::nullopt),
      shown(14 * kS, 11, "Extra", 7.0)};  // past the last key: dropped

  const auto assoc = associate(visits, extraction, samples);
  ASSERT_EQ(assoc.size(), 3u);
  // Row 2 takes the first key seen, 0xF40D, with all three of its reads.
  EXPECT_EQ(assoc[0].did, 0xF40D);
  ASSERT_EQ(assoc[0].xs.size(), 3u);
  EXPECT_EQ(assoc[0].xs[2].timestamp, 21 * kS);
  EXPECT_EQ(assoc[0].names, std::vector<std::string>{"Speed"});
  ASSERT_EQ(assoc[0].ys.size(), 1u);
  EXPECT_EQ(assoc[0].ys[0].y, 30.0);
  // Row 5 takes the KWP record, both bytes as operands.
  EXPECT_TRUE(assoc[1].is_kwp);
  EXPECT_EQ(assoc[1].local_id, 0x05);
  EXPECT_EQ(assoc[1].esv_index, 1u);
  EXPECT_EQ(assoc[1].xs[0].xs, (std::vector<double>{3, 4}));
  // Row 9 takes 0xF40C's first two data bytes; its non-numeric samples
  // are counted, and their labels win the vote.
  EXPECT_EQ(assoc[2].did, 0xF40C);
  EXPECT_EQ(assoc[2].xs[0].xs, (std::vector<double>{1, 2}));
  EXPECT_EQ(assoc[2].non_numeric, 2u);
  EXPECT_EQ(assoc[2].ys.size(), 1u);
  EXPECT_EQ(signal_findings(assoc, 0)[2].semantic_name, "Status");
}

Association numeric(std::size_t values, std::size_t non_numeric) {
  Association assoc;
  for (std::size_t i = 0; i < values; ++i) {
    const auto t = static_cast<util::SimTime>(i) * kS;
    assoc.xs.push_back({t, {static_cast<double>(i)}});
    assoc.ys.push_back({t, 2.0 * static_cast<double>(i)});
  }
  assoc.non_numeric = non_numeric;
  return assoc;
}

TEST(SignalFindings, VoteRequestTextAndEnumRule) {
  std::vector<Association> assoc{numeric(6, 6), numeric(5, 0),
                                 numeric(6, 7)};
  assoc[0].did = 0xF40C;
  assoc[0].names = {"b", "a", "b", "a"};
  assoc[1].is_kwp = true;
  assoc[1].local_id = 0x05;

  const auto findings = signal_findings(assoc, 0);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].semantic_name, "a");  // a tie: the smallest label
  EXPECT_EQ(findings[0].request_message, "22 F4 0C");
  EXPECT_EQ(findings[1].request_message, "21 05");
  // Half non-numeric still has a formula; 6 values are enough.
  EXPECT_FALSE(findings[0].is_enum);
  EXPECT_EQ(findings[0].dataset.points.size(), 6u);
  // Fewer than 6 values, or more than half non-numeric: an enum.
  EXPECT_TRUE(findings[1].is_enum);
  EXPECT_TRUE(findings[2].is_enum);
  EXPECT_TRUE(findings[2].dataset.points.empty());
}

TEST(Recovered, IsStrictAtThreeAndEightPercent) {
  EXPECT_TRUE(recovered({.mean = 0.0299, .max = 0.0799}));
  EXPECT_FALSE(recovered({.mean = 0.03, .max = 0.0}));
  EXPECT_FALSE(recovered({.mean = 0.0, .max = 0.08}));
  EXPECT_FALSE(recovered(regress::RelativeError{}));  // empty dataset
}

}  // namespace
}  // namespace dpr::core
