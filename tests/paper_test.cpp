// The EXPERIMENTS.md comparison behind paper_table, on literal rows: no
// campaign runs here. paper_table itself only ever shows the passing
// case; these show that each kind of drift fails and is named.

#include <gtest/gtest.h>

#include <string>

#include "paper.hpp"

namespace dpr::bench {
namespace {

PaperTable literal_table() {
  PaperTable table;
  table.rows = {
      {"Table 4 (OCR precision)", "488/500", "490/500 = 98.0%", "reproduced"},
      {"Table 5 (OBD-II formulas)", "7/7", "7/7 recovered", "reproduced"},
      {"§3.1 (planner)", "7.3%", "NN saves 7.2%", "reproduced"},
  };
  table.headline = "Headline: 570 reverse-engineered messages.";
  return table;
}

std::string doc_around(const std::string& block) {
  return "# EXPERIMENTS\n\nIntro text.\n\n" + block +
         "\n## Fidelity gaps\n\nMore text.\n";
}

std::string replace(std::string text, const std::string& from,
                    const std::string& to) {
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

TEST(PaperTable, MatchingDocPasses) {
  const auto table = literal_table();
  EXPECT_TRUE(compare(doc_around(render(table)), table).empty());
}

TEST(PaperTable, AlteredMeasuredCellFailsAndNamesItsRow) {
  const auto table = literal_table();
  const auto doc = replace(doc_around(render(table)), "NN saves 7.2%",
                           "NN saves 7.3%");
  const auto differences = compare(doc, table);
  ASSERT_EQ(differences.size(), 1u);
  EXPECT_NE(differences[0].find("row \"§3.1 (planner)\" differs"),
            std::string::npos)
      << differences[0];
  EXPECT_NE(differences[0].find("doc:   | §3.1 (planner) | 7.3% | NN saves "
                                "7.3% |"),
            std::string::npos)
      << differences[0];
  EXPECT_NE(differences[0].find("fresh: | §3.1 (planner) | 7.3% | NN saves "
                                "7.2% |"),
            std::string::npos)
      << differences[0];
}

TEST(PaperTable, MissingRowFails) {
  const auto table = literal_table();
  const auto doc = replace(
      doc_around(render(table)),
      "| Table 5 (OBD-II formulas) | 7/7 | 7/7 recovered | reproduced |\n",
      "");
  const auto differences = compare(doc, table);
  ASSERT_EQ(differences.size(), 1u);
  EXPECT_NE(
      differences[0].find("row \"Table 5 (OBD-II formulas)\" is missing"),
      std::string::npos)
      << differences[0];
}

TEST(PaperTable, ExtraRowFails) {
  const auto table = literal_table();
  const auto doc = replace(doc_around(render(table)), "\n\nHeadline",
                           "\n| Table 99 (typed) | x | y | z |\n\nHeadline");
  const auto differences = compare(doc, table);
  ASSERT_EQ(differences.size(), 1u);
  EXPECT_NE(differences[0].find("row \"Table 99 (typed)\" is in the doc"),
            std::string::npos)
      << differences[0];
}

TEST(PaperTable, SwappedRowsFail) {
  const auto table = literal_table();
  auto swapped = table;
  std::swap(swapped.rows[0], swapped.rows[1]);
  EXPECT_FALSE(compare(doc_around(render(swapped)), table).empty());
}

TEST(PaperTable, DocWithoutMarkersFails) {
  const auto table = literal_table();
  const auto block = render(table);
  const auto no_begin =
      replace(doc_around(block), std::string(kBeginMarker), "");
  const auto no_end = replace(doc_around(block), std::string(kEndMarker), "");
  for (const auto& doc : {no_begin, no_end, std::string("no table here\n")}) {
    const auto differences = compare(doc, table);
    ASSERT_EQ(differences.size(), 1u);
    EXPECT_NE(differences[0].find("no block between"), std::string::npos)
        << differences[0];
  }
}

TEST(PaperTable, TextOutsideTheMarkersIsIgnored) {
  const auto table = literal_table();
  const auto doc = "Anything | with | bars | here\n" + render(table) +
                   "| Table 4 (OCR precision) | typed | 1/1 | stale |\n";
  EXPECT_TRUE(compare(doc, table).empty());
}

}  // namespace
}  // namespace dpr::bench
