#pragma once
// DP-Reverser end-to-end campaign on one vehicle: the full Fig. 6
// pipeline. The CPS rig (cameras + robotic clicker + sniffer) drives the
// diagnostic tool through every ECU's data stream and active tests; the
// analysis half assembles the captured frames, extracts fields, OCRs the
// video, aligns the clocks, correlates (X, Y) pairs and infers formulas
// with GP (plus the §4.4 baselines).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "can/bus.hpp"
#include "can/sniffer.hpp"
#include "correlate/correlate.hpp"
#include "cps/analyzer.hpp"
#include "cps/camera.hpp"
#include "cps/clicker.hpp"
#include "cps/ocr.hpp"
#include "diagtool/tool.hpp"
#include "frames/analysis.hpp"
#include "frames/fields.hpp"
#include "gp/engine.hpp"
#include "nm/nm.hpp"
#include "regress/regress.hpp"
#include "screenshot/extract.hpp"
#include "util/checkpoint.hpp"
#include "util/fault.hpp"
#include "util/transact.hpp"
#include "util/watchdog.hpp"
#include "vehicle/vehicle.hpp"

namespace dpr::util {
class ThreadPool;
}

namespace dpr::core {

struct CampaignOptions {
  std::uint64_t seed = 0x5EED;
  util::SimTime live_window = 20 * util::kSecond;  // per-ECU capture
  double video_fps = 8.0;
  bool ocr_noise = true;           // disable for clean-room ablations
  double ocr_rate_scale = 1.0;     // stress multiplier on the error rate
  bool two_stage_filter = true;    // §3.3 filtering ablation switch
  bool run_baselines = true;       // linear regression + polynomial
  bool run_inference = true;       // GP; off for traffic-only experiments
  bool run_active_tests = true;
  bool obd_alignment = true;       // §9.4 method 2 (when OBD available)
  util::SimTime camera_clock_offset = 180 * util::kMillisecond;
  double camera_clock_drift_ppm = 40.0;
  util::SimTime sniffer_clock_offset = -25 * util::kMillisecond;
  gp::GpConfig gp;
  /// Threads for fanning independent per-signal GP inferences over a
  /// gp::BatchRunner pool. 0 = hardware concurrency, 1 = serial. The
  /// recovered formulas are identical for every value.
  std::size_t infer_threads = 1;
  /// Non-owning: when set, per-signal GP inferences run on this existing
  /// pool instead of spawning one (`infer_threads` is ignored). This is
  /// how core::FleetRunner enforces a single machine-wide thread budget —
  /// fleet tasks and inner GP batches share the same workers, and the
  /// caller-participating pool makes the nesting deadlock-free.
  util::ThreadPool* infer_pool = nullptr;
  /// Deterministic fault injection (bus drops/corruption/duplication,
  /// server 0x78/0x21 stalls) plus the resilient client policy that rides
  /// it out. Disabled by default; a disabled config performs zero RNG
  /// draws, so fault-free runs are bit-identical to pre-fault builds.
  /// The stateful knobs (reset_rate / session_faults) additionally arm
  /// ECU reboots + S3 session timers and the diagtool session supervisor.
  util::FaultConfig faults;

  // --- Checkpoint / resume / supervision (ISSUE 4) -----------------------
  /// Directory for per-phase checkpoints; empty = no checkpointing.
  std::string checkpoint_dir;
  /// With checkpoint_dir set: load the matching checkpoint (same car,
  /// seed and semantic options) and skip every completed phase. The
  /// resumed report is bit-identical to an uninterrupted run.
  bool resume = false;
  /// Stop run() after this phase index completes (0 = collect ...
  /// 6 = score); -1 = run everything. Test/CI hook that simulates an
  /// interruption at a phase boundary.
  int stop_after_phase = -1;
  /// Per-phase wall-clock budget in seconds; 0 = no watchdog. A phase
  /// that overruns aborts with util::DeadlineExceeded
  /// ("phase_timeout(<phase>)"), which FleetRunner degrades to a failed
  /// per-car slot instead of hanging the fleet.
  double phase_deadline_s = 0.0;
  /// Test hook: simulate a hang at the start of the named phase. Only
  /// stalls while the watchdog is armed (phase_deadline_s > 0), so a
  /// stray value can never wedge a run.
  std::string stall_phase;
  /// Per-phase *sim-time* budget in seconds; 0 = off. Catches the inverse
  /// failure of phase_deadline_s: a collect phase burning sim-hours (e.g.
  /// waiting out bus sleeps) while still making wall-clock progress.
  /// Execution-only like phase_deadline_s — excluded from the digest.
  double phase_sim_budget_s = 0.0;

  // --- OSEK network management (ISSUE 8) ---------------------------------
  /// With FaultConfig::nm set the campaign arms the bus lifecycle, runs a
  /// per-ECU NM ring and (unless nm_oblivious) makes the tool NM-aware:
  /// the tool sends periodic wakeup frames and, when a transaction dies
  /// against a sleeping bus, re-wakes it and retries. `nm_oblivious`
  /// keeps the vehicle side ringing but leaves the tool ignorant — the
  /// ablation hook bench_nm uses to measure what NM awareness is worth.
  bool nm_oblivious = false;
};

/// Wall-clock seconds spent in each pipeline phase of one campaign.
/// Purely observational: the timings never feed back into the analysis,
/// so reports stay bit-identical across runs and thread counts (compare
/// them with report_signature(), which excludes timings).
struct PhaseTimings {
  double collect_s = 0.0;      // CPS loop: drive tool, record CAN + video
  double assemble_s = 0.0;     // frame census + message assembly
  double ocr_extract_s = 0.0;  // screenshot OCR + filtering + field extraction
  double align_s = 0.0;        // clock alignment (OBD anchors / change latency)
  double associate_s = 0.0;    // §3.4 association + dataset construction
  double infer_s = 0.0;        // GP + baseline regressions
  double score_s = 0.0;        // ground-truth scoring

  double total_s() const {
    return collect_s + assemble_s + ocr_extract_s + align_s + associate_s +
           infer_s + score_s;
  }
  PhaseTimings& operator+=(const PhaseTimings& other) {
    collect_s += other.collect_s;
    assemble_s += other.assemble_s;
    ocr_extract_s += other.ocr_extract_s;
    align_s += other.align_s;
    associate_s += other.associate_s;
    infer_s += other.infer_s;
    score_s += other.score_s;
    return *this;
  }
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

/// One identifier whose transactions exhausted every retry during the
/// campaign (graceful degradation: recorded, never fatal).
struct TransactionFailure {
  bool is_kwp = false;
  std::uint16_t id = 0;      // DID / local id (OBD PIDs as 0xF400+pid)
  std::size_t failures = 0;  // failed transactions on this id
};

struct CampaignReport {
  /// vehicle::spec_digest of the car this report describes (checkpoint /
  /// result-cache key); 0 only for failure slots whose spec never
  /// resolved (e.g. an unknown CarId handed to FleetRunner).
  std::uint64_t spec_digest = 0;
  std::string car_label;
  frames::FrameCensus census;
  std::size_t messages_assembled = 0;
  util::SimTime alignment_offset = 0;
  std::size_t alignment_anchors = 0;
  std::vector<SignalFinding> signals;
  std::vector<EcrFinding> ecrs;
  cps::OcrStats ocr_stats;
  PhaseTimings phases;

  // Robustness bookkeeping (all deterministic for a given fault seed).
  util::TransactStats transactions;
  std::vector<TransactionFailure> failed_transactions;
  util::FaultStats bus_faults;
  /// Session-supervisor counters plus the ECUs' own reboot / S3-expiry
  /// tallies; all zero unless stateful faults are armed.
  diagtool::SessionStats session_stats;
  std::uint64_t ecu_resets = 0;
  std::uint64_t ecu_s3_expiries = 0;
  /// OSEK NM outcome; nm_enabled mirrors FaultConfig::nm (the signature
  /// only includes the NM section when set, keeping NM-off runs
  /// byte-identical to pre-NM builds).
  bool nm_enabled = false;
  nm::NmStats nm;
  /// Checkpoint files this campaign had to quarantine (torn, corrupt,
  /// older-format or unrestorable) before re-running the affected phases.
  /// Deliberately excluded from both the serialized checkpoint payload
  /// and report_signature(): it describes the *journey* of the state, not
  /// the state, so a quarantined-then-rerun campaign still
  /// signature-matches a fresh one.
  std::size_t ckpt_quarantined = 0;
  /// False when the campaign aborted with an exception (captured by
  /// core::FleetRunner); `failure_reason` then carries the what() text.
  bool completed = true;
  std::string failure_reason;

  std::size_t formula_signals() const;
  std::size_t enum_signals() const;
  std::size_t gp_correct() const;
  std::size_t linear_correct() const;
  std::size_t polynomial_correct() const;
};

class Campaign {
 public:
  /// Campaign over any spec — one of the 18 pre-baked catalog cars or a
  /// vehicle::Generator product. The spec is copied (the Vehicle owns
  /// it); checkpoints key on its spec_digest.
  Campaign(const vehicle::CarSpec& spec, CampaignOptions options = {});
  /// Catalog convenience: Campaign(car_spec(id), options). Throws
  /// std::out_of_range for ids outside the catalog.
  Campaign(vehicle::CarId car, CampaignOptions options = {});
  ~Campaign();

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  /// Phase 1 (Fig. 6 b): drive the tool, record CAN traffic and UI video.
  void collect();

  /// Phase 2: frames analysis + screenshot analysis + correlation +
  /// formula inference + scoring. Requires collect() first.
  void analyze();

  /// The pipeline's named phases, in execution order: collect, assemble,
  /// ocr_extract, align, associate, infer, score.
  static constexpr std::size_t kNumPhases = 7;
  static const char* phase_name(std::size_t phase);

  /// Run the full pipeline with checkpointing, resume and the per-phase
  /// watchdog honored (CampaignOptions::{checkpoint_dir, resume,
  /// stop_after_phase, phase_deadline_s}). With every one of those at
  /// its default this is exactly collect() + analyze().
  void run();

  const CampaignReport& report() const { return report_; }

  /// Raw artifacts (for tests and ablations).
  const std::vector<can::TimestampedFrame>& capture() const;
  const cps::VideoRecording& video() const { return video_; }
  vehicle::Vehicle& vehicle() { return *vehicle_; }

  // --- Checkpoint key ----------------------------------------------------
  /// The options digest run() keys checkpoints on.
  std::uint64_t checkpoint_options_digest() const;
  /// The 64-bit car key run() checkpoints under (the car's spec digest).
  std::uint64_t checkpoint_car_key() const { return report_.spec_digest; }

  /// Acceptance tolerances (§4.2's "almost the same" criterion): the
  /// inferred formula's outputs must match the ground truth both in the
  /// mean and pointwise over the observed operand domain.
  static constexpr double kEquivalenceTolerance = 0.03;
  static constexpr double kMaxPointTolerance = 0.08;

  // --- Checkpointed state (core/state.hpp lists the fields) --------------
  /// One ECU's visit during collection: its live-data and active-test
  /// windows and the actuator buttons it clicked.
  struct EcuSession {
    std::size_t ecu_index = 0;
    util::SimTime live_begin = 0;   // global time
    util::SimTime live_end = 0;
    std::vector<std::string> actuator_names;  // click order (OCR'd)
    util::SimTime active_begin = 0;
    util::SimTime active_end = 0;
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
  /// Products handed from one analysis phase to the next; everything in
  /// here is part of the checkpoint payload so a resumed campaign can
  /// start at any phase boundary.
  struct Intermediate {
    std::vector<frames::DiagMessage> messages;
    std::vector<screenshot::UiSample> samples;
    std::vector<screenshot::UiSample> obd_samples;
    frames::ExtractionResult extraction;
    std::vector<Association> associations;
  };

 private:
  void collect_obd_phase();
  void collect_ecu(std::size_t index);
  void record_live(util::SimTime duration);
  bool click_button(const std::string& keyword,
                    const std::vector<std::string>& exclude = {});
  bool click_back();

  void phase_collect();
  void phase_assemble();
  void phase_ocr_extract();
  void phase_align();
  void phase_associate();
  void phase_infer();
  void phase_score();
  void finish_collect();
  void maybe_stall(const char* phase) const;

  util::Bytes serialize_state() const;
  /// Decode a checkpoint payload (kCheckpointPayloadSchema); false when
  /// it does not parse or breaks an invariant. Nothing changes on false.
  bool restore_state(const util::Bytes& payload);

  std::vector<Association> build_associations(
      const frames::ExtractionResult& extraction,
      const std::vector<screenshot::UiSample>& samples) const;
  static std::vector<std::pair<std::vector<correlate::XSample>,
                               std::vector<correlate::YSample>>>
  build_alignment_series(const std::vector<Association>& associations);
  void analyze_signals(std::vector<Association> associations);
  void infer_signals();
  void analyze_ecrs(const frames::ExtractionResult& extraction);
  void score_findings();

  CampaignOptions options_;
  util::SimClock clock_;
  std::unique_ptr<can::CanBus> bus_;
  std::unique_ptr<vehicle::Vehicle> vehicle_;
  std::unique_ptr<nm::NmManager> nm_;
  std::unique_ptr<diagtool::DiagnosticTool> tool_;
  std::unique_ptr<can::Sniffer> sniffer_;
  std::unique_ptr<cps::Camera> camera_a_;
  std::unique_ptr<cps::Camera> camera_b_;
  std::unique_ptr<cps::OcrEngine> ocr_;
  std::unique_ptr<cps::UiAnalyzer> analyzer_;
  std::unique_ptr<cps::RoboticClicker> clicker_;

  cps::VideoRecording video_;
  cps::VideoRecording obd_video_;
  util::SimTime obd_phase_end_ = 0;
  std::vector<EcuSession> sessions_;
  CampaignReport report_;
  bool collected_ = false;

  Intermediate mid_;
  /// Set by restore_state(): a resumed campaign never re-drives the
  /// sniffer, so the restored capture stands in for sniffer_->capture().
  std::optional<std::vector<can::TimestampedFrame>> restored_capture_;
  util::Watchdog watchdog_;
};

}  // namespace dpr::core
