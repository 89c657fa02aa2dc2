#pragma once
// The analysis half of Fig. 6 as functions of what collect observed:
// the sniffed CAN frames, the two recorded videos and the log of ECU
// visits (§3.2–§3.5), plus the transport hint, the analyst's one piece
// of prior knowledge of the car (§6 limitation 4). Nothing here reads
// the car's spec; the `analysis_reads_no_vehicle` ctest fails when a
// vehicle header comes within reach of analysis.cpp. Formula inference
// (core::Campaign's GP fan-out) and scoring, the one reader of ground
// truth, stay with the campaign.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "can/frame.hpp"
#include "correlate/correlate.hpp"
#include "cps/camera.hpp"
#include "frames/analysis.hpp"
#include "frames/fields.hpp"
#include "gp/engine.hpp"
#include "regress/regress.hpp"
#include "screenshot/extract.hpp"

namespace dpr::core {

/// One ECU's visit during collection: its live-data and active-test
/// windows and the actuator buttons it clicked.
struct EcuVisit {
  std::size_t ecu_index = 0;
  util::SimTime live_begin = 0;   // global time
  util::SimTime live_end = 0;
  std::vector<std::string> actuator_names;  // click order (OCR'd)
  util::SimTime active_begin = 0;
  util::SimTime active_end = 0;
};

/// Everything collect hands the analysis.
struct Observations {
  std::vector<can::TimestampedFrame> capture;  // sniffer clock
  cps::VideoRecording video;                   // data-stream screens
  cps::VideoRecording obd_video;               // OBD live view, if any
  util::SimTime obd_phase_end = 0;             // 0: no OBD recording
  std::vector<EcuVisit> visits;
};

/// One associated signal: the traffic-side key paired with the UI-side
/// layout row (§3.4 association).
struct Association {
  bool is_kwp = false;
  std::uint16_t did = 0;
  std::uint8_t local_id = 0;
  std::size_t esv_index = 0;
  std::vector<correlate::XSample> xs;
  std::vector<correlate::YSample> ys;
  std::vector<std::string> names;   // OCR'd label per sample
  std::size_t non_numeric = 0;
};

/// Products handed from one analysis phase to the next. They are part of
/// the checkpoint payload so a resumed campaign can start at any phase
/// boundary; Campaign retires each once no later phase reads it.
struct Intermediate {
  std::vector<frames::DiagMessage> messages;
  std::vector<screenshot::UiSample> samples;
  std::vector<screenshot::UiSample> obd_samples;
  frames::ExtractionResult extraction;
  std::vector<Association> associations;
};

/// Reverse-engineering outcome for one readable signal.
struct SignalFinding {
  bool is_kwp = false;
  std::uint16_t did = 0;          // UDS
  std::uint8_t local_id = 0;      // KWP
  std::size_t esv_index = 0;
  std::string semantic_name;      // recovered from UI text (§3.4)
  std::string request_message;    // hex of the request that reads it
  bool is_enum = false;           // no formula (status value)
  correlate::Dataset dataset;
  std::optional<gp::GpResult> gp;
  std::optional<regress::FitResult> linear;
  std::optional<regress::FitResult> polynomial;

  // Scoring against the simulator's ground truth.
  std::string truth_formula;
  bool truth_is_enum = false;
  bool gp_correct = false;
  bool linear_correct = false;
  bool polynomial_correct = false;
};

/// Reverse-engineering outcome for one controllable component.
struct EcrFinding {
  bool is_uds = false;            // 0x2F vs 0x30
  std::uint16_t id = 0;           // DID or local identifier
  std::string semantic_name;      // from the active-test button text
  std::vector<std::uint8_t> param_sequence;
  util::Bytes adjustment_state;
  bool three_message_pattern = false;
  bool matches_truth = false;     // id + name pair exists in the catalog
};

/// §3.4 association through the UI layout. `series` holds the traffic
/// side (keys and X samples) in first-seen order. Within [begin, end],
/// the r-th populated layout row of `samples`, in ascending row order,
/// takes the r-th series; its numeric samples become Y samples, its
/// other samples are counted as non-numeric, and every sample's label
/// is kept for the vote. Rows past the last series are dropped, and so
/// are series past the last row.
std::vector<Association> pair_rows(
    std::vector<Association> series,
    const std::vector<screenshot::UiSample>& samples, util::SimTime begin,
    util::SimTime end);

/// Pairs rows per visit: each visit's live window ±1 s, with the ESV
/// keys of that window in first-seen traffic order.
std::vector<Association> associate(
    const std::vector<EcuVisit>& visits,
    const frames::ExtractionResult& extraction,
    const std::vector<screenshot::UiSample>& samples);

/// The change-latency estimate (§9.4 method 1) over the associations
/// with at least 6 numeric values.
std::optional<correlate::AlignmentResult> estimate_offset(
    const std::vector<Association>& associations);

/// Clock alignment (§9.4): OBD anchors when an OBD recording exists
/// (`obd_phase_end` > 0) and at least 8 of them match; otherwise the
/// change-latency estimate. {0, 0} when neither finds anything.
correlate::AlignmentResult align(
    util::SimTime obd_phase_end,
    const std::vector<frames::DiagMessage>& messages,
    const std::vector<screenshot::UiSample>& obd_samples,
    const std::vector<Association>& associations);

/// One finding per association: the majority label (ties go to the
/// lexicographically smallest), the request that reads it (`22 <did>`
/// or `21 <local id>`), and the (X, Y) dataset under `offset` — unless
/// it has fewer than 6 numeric values or more than half non-numeric,
/// which makes it an enum without a dataset (§4.3 "#ESV (Enum)").
std::vector<SignalFinding> signal_findings(
    const std::vector<Association>& associations, util::SimTime offset);

/// One finding per control procedure (§3.2 step 3) in each visit's
/// active-test window ±1 s, named by the visit's i-th clicked button.
std::vector<EcrFinding> ecr_findings(
    const std::vector<EcuVisit>& visits,
    const frames::ExtractionResult& extraction);

/// §4.2's "almost the same" test: a formula counts as recovered when its
/// outputs match the ground truth over the observed operand domain, both
/// in the mean (< 3%) and pointwise (< 8%; a wrong structure fitted
/// locally fails the latter).
bool recovered(const regress::RelativeError& error);

}  // namespace dpr::core
