#pragma once
// The paper's evaluation (§4) as EXPERIMENTS.md's results table.
//
// Each row of that table is one function here: it runs the row's
// experiment (the same seeds, cars, trial counts and options every time)
// and formats the "Measured here" cell from the values it computed. The
// "Paper result" and "Verdict" cells are literals. `paper_table` prints
// the rendered block and fails when the block committed to EXPERIMENTS.md
// differs from it, so the doc is regenerated, never typed.

#include <string>
#include <string_view>
#include <vector>

namespace dpr::bench {

/// One row of the results table.
struct Row {
  std::string id;        ///< first cell; unique within the table
  std::string paper;     ///< what the paper reports
  std::string measured;  ///< formatted only from values the row computed
  std::string verdict;   ///< which claim the measurement supports
};

/// The results table plus the headline count printed under it.
struct PaperTable {
  std::vector<Row> rows;
  std::string headline;
};

/// The markers around the generated block in EXPERIMENTS.md.
inline constexpr std::string_view kBeginMarker = "<!-- paper_table:begin -->";
inline constexpr std::string_view kEndMarker = "<!-- paper_table:end -->";

Row table4_ocr();
Row table5_obd();
Row table8_work();
Row table9_frames();
Row table12_apps();
Row table13_attack();
Row planner();
Row ablation_scaling();
Row ablation_filter();

/// Tables 6 (in and out of sample), 7 and 10 read one catalog run, and so
/// do the headline's read-message counts.
struct CatalogRows {
  Row table6, table6_out_of_sample, table7, table10;
  std::size_t formulas = 0, enums = 0, gp_correct = 0;
};
CatalogRows catalog_rows();

/// Table 11, and the headline's control-message count.
struct EcrRow {
  Row row;
  std::size_t ecrs = 0;
};
EcrRow table11_ecrs();

/// Every row, in the doc's order.
PaperTable measure();

/// The Markdown block, from the begin marker to the end marker.
std::string render(const PaperTable& table);

/// The differences between the block embedded in `doc` and `fresh`, one
/// message per differing row or line naming both texts. Empty when they
/// match. Text outside the markers is ignored; a doc without both
/// markers is one difference.
std::vector<std::string> compare(std::string_view doc,
                                 const PaperTable& fresh);

}  // namespace dpr::bench
