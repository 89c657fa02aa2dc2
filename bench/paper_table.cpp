// The paper's evaluation as one checked table.
//
// Runs every row of EXPERIMENTS.md's results table (bench/paper.hpp),
// prints the Markdown block to stdout, then compares it with the block
// committed between the doc's paper_table markers. Exits 1, naming each
// differing row with both texts, when they differ or the markers are
// missing. To regenerate the doc, paste the printed block over the old
// one.
//
// Usage: paper_table

#include <cstdio>
#include <fstream>
#include <sstream>

#include "paper.hpp"

int main() {
  const auto table = dpr::bench::measure();
  std::fputs(dpr::bench::render(table).c_str(), stdout);
  std::fflush(stdout);

  std::ifstream in(DPR_EXPERIMENTS_MD);
  std::stringstream doc;
  doc << in.rdbuf();
  const auto differences = dpr::bench::compare(doc.str(), table);
  for (const auto& difference : differences) {
    std::fprintf(stderr, "%s\n", difference.c_str());
  }
  if (!differences.empty()) {
    std::fprintf(stderr,
                 "%s does not match the measured table (%zu differences)\n",
                 DPR_EXPERIMENTS_MD, differences.size());
    return 1;
  }
  std::fprintf(stderr, "%s matches the measured table\n", DPR_EXPERIMENTS_MD);
  return 0;
}
