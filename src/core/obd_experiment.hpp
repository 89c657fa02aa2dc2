#pragma once
// §4.2 experiment: reverse engineer OBD-II formulas and check them against
// the SAE J1979 ground truth (Table 5). A vehicle simulator (the engine
// ECU's OBD service) answers mode-01 requests from an OBD telematics-app
// model (the tool's OBD live view); the pipeline infers each PID's
// formula from sniffed traffic + screen video with the campaign's own
// analysis functions (core/analysis.hpp), and accepts it by the same
// §4.2 test.

#include <optional>
#include <string>
#include <vector>

#include "correlate/correlate.hpp"
#include "gp/engine.hpp"

namespace dpr::core {

struct ObdExperimentOptions {
  util::SimTime duration = 25 * util::kSecond;
  gp::GpConfig gp;
};

struct ObdFinding {
  std::uint8_t pid = 0;
  std::string name;             // semantic info from the app's UI
  std::string request_message;  // e.g. "01 0C"
  std::string truth_formula;    // SAE J1979 ground truth
  correlate::Dataset dataset;
  std::optional<gp::GpResult> gp;
  bool correct = false;
};

struct ObdExperimentReport {
  std::vector<ObdFinding> findings;
  std::size_t correct_count() const;
};

ObdExperimentReport run_obd_experiment(ObdExperimentOptions options = {});

}  // namespace dpr::core
