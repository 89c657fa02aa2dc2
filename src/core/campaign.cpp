#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "core/checkpoint.hpp"
#include "gp/batch.hpp"
#include "util/crash.hpp"
#include "kwp/formulas.hpp"
#include "screenshot/filter.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace dpr::core {

namespace {

/// Accumulates wall-clock seconds into a PhaseTimings field while alive.
class PhaseTimer {
 public:
  explicit PhaseTimer(double& slot)
      : slot_(slot), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    slot_ += std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start_)
                 .count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double& slot_;
  std::chrono::steady_clock::time_point start_;
};

frames::TransportHint hint_for(vehicle::TransportKind kind) {
  switch (kind) {
    case vehicle::TransportKind::kIsoTp:
      return frames::TransportHint::kIsoTp;
    case vehicle::TransportKind::kVwTp20:
      return frames::TransportHint::kVwTp20;
    case vehicle::TransportKind::kBmwFraming:
      return frames::TransportHint::kBmwFraming;
  }
  return frames::TransportHint::kIsoTp;
}

std::string majority_vote(const std::vector<std::string>& names) {
  std::map<std::string, std::size_t> counts;
  for (const auto& name : names) ++counts[name];
  std::string best;
  std::size_t best_count = 0;
  for (const auto& [name, count] : counts) {
    if (count > best_count) {
      best = name;
      best_count = count;
    }
  }
  return best;
}

}  // namespace

std::size_t CampaignReport::formula_signals() const {
  return static_cast<std::size_t>(
      std::count_if(signals.begin(), signals.end(),
                    [](const SignalFinding& s) { return !s.is_enum; }));
}

std::size_t CampaignReport::enum_signals() const {
  return signals.size() - formula_signals();
}

std::size_t CampaignReport::gp_correct() const {
  return static_cast<std::size_t>(
      std::count_if(signals.begin(), signals.end(), [](const SignalFinding& s) {
        return !s.is_enum && s.gp_correct;
      }));
}

std::size_t CampaignReport::linear_correct() const {
  return static_cast<std::size_t>(
      std::count_if(signals.begin(), signals.end(), [](const SignalFinding& s) {
        return !s.is_enum && s.linear_correct;
      }));
}

std::size_t CampaignReport::polynomial_correct() const {
  return static_cast<std::size_t>(
      std::count_if(signals.begin(), signals.end(), [](const SignalFinding& s) {
        return !s.is_enum && s.polynomial_correct;
      }));
}

Campaign::Campaign(const vehicle::CarSpec& spec, CampaignOptions options)
    : options_(options) {
  bus_ = std::make_unique<can::CanBus>(clock_);
  if (options_.faults.rate > 0.0) {
    // Per-campaign injector stream, salted per car: each car's bus
    // replays its faults bit-identically at any fleet thread count.
    // Catalog cars salt by id exactly as before; generated cars fold in
    // their gen_seed. Gated on the *wire* rate — stateful-only configs
    // must not arm a zero-rate injector (its delivery tally would alter
    // the report signature).
    bus_->set_faults(
        options_.faults.bus_plan(),
        options_.faults.stream_for(vehicle::car_stream_salt(spec)));
  }
  vehicle_ = std::make_unique<vehicle::Vehicle>(spec, *bus_, clock_,
                                                options_.seed,
                                                options_.faults);
  if (options_.faults.nm) {
    // OSEK NM: arm the bus lifecycle and give every ECU a ring node. Node
    // addresses are 1-based ECU indices (address order = ring order); each
    // node's alive-stagger jitter draws from its own salted stream so the
    // ring forms identically at any fleet thread count.
    nm::NmConfig nm_cfg;
    nm_cfg.sleep_timeout = options_.faults.nm_sleep_timeout;
    // The ack→sleep countdown scales with the timeout (capped at the
    // protocol default) so aggressive timeouts produce an aggressive
    // sleeper: quiet for timeout+countdown ⇒ the bus actually powers down
    // inside real campaign idle gaps instead of always being rescued by
    // the next poll.
    nm_cfg.sleep_countdown =
        std::min(nm_cfg.sleep_countdown, nm_cfg.sleep_timeout / 2);
    nm_ = std::make_unique<nm::NmManager>(*bus_, nm_cfg);
    std::uint8_t address = 1;
    for (auto& ecu : vehicle_->ecus()) {
      vehicle::EcuSim* raw = ecu.get();
      // Veto holdout (ISSUE 9): the configured address joins the ring but
      // refuses every sleep agreement, pinning the whole bus awake — the
      // body-domain ECU that "needs" the bus pattern from OSEK NM.
      const bool allow_sleep = address != options_.faults.nm_veto_address;
      nm_->add_node(
          address, options_.faults.stream_for(nm::kNmStreamSalt + address),
          [raw](util::SimTime now) { return raw->offline(now); }, allow_sleep);
      ++address;
    }
  }
  tool_ = std::make_unique<diagtool::DiagnosticTool>(
      diagtool::profile_by_name(vehicle_->spec().tool), *vehicle_, *bus_,
      clock_,
      options_.faults.enabled() ? util::TransactPolicy::resilient()
                                : util::TransactPolicy{});
  if (options_.faults.nm && !options_.nm_oblivious) {
    // The NM-aware tool: periodic wakeup frames bound every sleep window,
    // and transactions that still die against a sleeping bus re-wake it
    // and retry (SessionStats::{bus_sleeps, sleep_recoveries}).
    const diagtool::NmToolConfig tool_nm;
    tool_->enable_nm(nm_->config(), tool_nm,
                     options_.faults.stream_for(nm::kNmStreamSalt +
                                                tool_nm.address));
  }
  if (options_.faults.stateful()) {
    // Stateful failures (ECU reboots, S3 expiry) survive the client's
    // retry loop; only the session supervisor can ride them out.
    tool_->enable_supervision(diagtool::SupervisorConfig{
        /*enabled=*/true,
        /*keepalive_period_s=*/
        0.5 * static_cast<double>(options_.faults.s3_timeout) /
            static_cast<double>(util::kSecond),
        // 8 probes x boot/4 = two full boot windows of patience.
        /*boot_backoff_s=*/
        std::max(0.05,
                 0.25 * static_cast<double>(options_.faults.reset_boot_time) /
                     static_cast<double>(util::kSecond)),
        /*max_recovery_attempts=*/8});
  }
  sniffer_ = std::make_unique<can::Sniffer>(
      *bus_,
      util::DeviceClock(options_.sniffer_clock_offset, /*drift_ppm=*/0.0));

  util::Rng rng(options_.seed ^ 0xCB5);
  ocr_ = std::make_unique<cps::OcrEngine>(rng.fork(), options_.ocr_noise,
                                          options_.ocr_rate_scale);
  analyzer_ = std::make_unique<cps::UiAnalyzer>(*ocr_, rng.fork());
  clicker_ = std::make_unique<cps::RoboticClicker>(clock_);

  const util::DeviceClock camera_clock(options_.camera_clock_offset,
                                       options_.camera_clock_drift_ppm);
  camera_a_ = std::make_unique<cps::Camera>(*tool_, util::DeviceClock{},
                                            tool_->profile().value_font_px);
  camera_b_ = std::make_unique<cps::Camera>(*tool_, camera_clock,
                                            tool_->profile().value_font_px);

  report_.spec_digest = vehicle::spec_digest(vehicle_->spec());
  report_.car_label = vehicle_->spec().label;
}

Campaign::Campaign(vehicle::CarId car, CampaignOptions options)
    : Campaign(vehicle::car_spec(car), std::move(options)) {}

Campaign::~Campaign() = default;

const std::vector<can::TimestampedFrame>& Campaign::capture() const {
  return restored_capture_ ? *restored_capture_ : sniffer_->capture();
}

const char* Campaign::phase_name(std::size_t phase) {
  static constexpr const char* kNames[kNumPhases] = {
      "collect",   "assemble", "ocr_extract", "align",
      "associate", "infer",    "score"};
  return phase < kNumPhases ? kNames[phase] : "?";
}

bool Campaign::click_button(const std::string& keyword,
                            const std::vector<std::string>& exclude) {
  // Retry a few times: a fresh screenshot re-rolls the OCR noise.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const auto shot = camera_a_->capture(clock_.now());
    if (const auto point = analyzer_->find_button(shot, keyword, exclude)) {
      clicker_->move_and_click(point->x, point->y);
      tool_->click(point->x, point->y);
      return true;
    }
  }
  util::LogLine(util::LogLevel::kWarning, "campaign")
      << "button not found: " << keyword;
  return false;
}

bool Campaign::click_back() {
  const auto shot = camera_a_->capture(clock_.now());
  if (const auto point = analyzer_->find_icon(shot, "back_arrow")) {
    clicker_->move_and_click(point->x, point->y);
    tool_->click(point->x, point->y);
    return true;
  }
  return false;
}

void Campaign::record_live(util::SimTime duration) {
  const auto frame_period = static_cast<util::SimTime>(
      static_cast<double>(util::kSecond) / options_.video_fps);
  const util::SimTime deadline = clock_.now() + duration;
  const util::SimTime flip_at = clock_.now() + duration / 2;
  bool flipped = false;
  while (clock_.now() < deadline) {
    watchdog_.poll();
    tool_->run_for(frame_period);
    video_.frames.push_back(camera_b_->capture(clock_.now()));
    if (!flipped && clock_.now() >= flip_at) {
      // Visit the second page (a no-op on single-page streams).
      click_button("Next Page");
      flipped = true;
    }
  }
}

void Campaign::collect_obd_phase() {
  if (vehicle_->spec().transport != vehicle::TransportKind::kIsoTp) return;
  if (!click_button("OBD")) return;
  const auto frame_period = static_cast<util::SimTime>(
      static_cast<double>(util::kSecond) / options_.video_fps);
  const util::SimTime deadline = clock_.now() + 8 * util::kSecond;
  while (clock_.now() < deadline) {
    watchdog_.poll();
    tool_->run_for(frame_period);
    obd_video_.frames.push_back(camera_b_->capture(clock_.now()));
  }
  click_back();
  obd_phase_end_ = clock_.now();
}

void Campaign::collect_ecu(std::size_t index) {
  EcuSession session;
  session.ecu_index = index;

  // --- Read Data Stream ---------------------------------------------------
  if (!click_button("Data Stream", {"Trouble", "Clear"})) return;

  // Select every ESV row, page by page, clicking in nearest-neighbor
  // order (the §3.1 planner).
  for (int page = 0; page < 8; ++page) {
    const auto shot = camera_a_->capture(clock_.now());
    auto rows = analyzer_->find_selectable_rows(shot);
    // Keep only unselected rows (checkbox still empty).
    std::vector<cps::Point> targets;
    for (const auto& widget : analyzer_->recognize(shot)) {
      if (!widget.clickable) continue;
      if (widget.text.size() >= 3 && widget.text[0] == '[' &&
          widget.text[1] != 'x' &&
          widget.text.find(']') != std::string::npos) {
        targets.push_back(widget.center);
      }
    }
    if (targets.empty()) break;  // page exhausted (or last page repeated)
    const cps::Point start{clicker_->x(), clicker_->y()};
    const auto order = cps::plan_nearest_neighbor(start, targets);
    for (std::size_t i : order) {
      clicker_->move_and_click(targets[i].x, targets[i].y);
      tool_->click(targets[i].x, targets[i].y);
    }
    if (!click_button("Next Page")) break;
  }
  // Return to the first page before starting the live view.
  for (int page = 0; page < 8; ++page) {
    if (!click_button("Prev Page")) break;
  }

  if (!click_button("Start")) return;
  session.live_begin = clock_.now();
  record_live(options_.live_window);
  session.live_end = clock_.now();
  click_button("Stop");
  click_back();  // back to the ECU menu

  // --- Active Test ----------------------------------------------------------
  if (options_.run_active_tests &&
      !vehicle_->spec().ecus.at(index).actuators.empty()) {
    if (click_button("Active Test")) {
      session.active_begin = clock_.now();
      const auto shot = camera_a_->capture(clock_.now());
      // Every text button on the active-test screen is a component.
      for (const auto& widget : analyzer_->recognize(shot)) {
        if (!widget.clickable) continue;
        session.actuator_names.push_back(widget.text);
        clicker_->move_and_click(widget.center.x, widget.center.y);
        tool_->click(widget.center.x, widget.center.y);
        tool_->run_for(500 * util::kMillisecond);
      }
      session.active_end = clock_.now();
      click_back();
    }
  }
  click_back();  // back to the ECU list
  sessions_.push_back(std::move(session));
}

void Campaign::collect() { phase_collect(); }

void Campaign::phase_collect() {
  {
    PhaseTimer timer(report_.phases.collect_s);
    if (options_.obd_alignment) collect_obd_phase();

    if (click_button("Diagnos")) {
      const std::size_t n_ecus = vehicle_->spec().ecus.size();
      for (std::size_t i = 0; i < n_ecus; ++i) {
        watchdog_.poll();
        // The ECU list shows one button per control unit, top to bottom.
        const auto shot = camera_a_->capture(clock_.now());
        std::vector<cps::RecognizedWidget> buttons;
        for (const auto& widget : analyzer_->recognize(shot)) {
          if (widget.clickable) buttons.push_back(widget);
        }
        std::sort(buttons.begin(), buttons.end(),
                  [](const cps::RecognizedWidget& a,
                     const cps::RecognizedWidget& b) {
                    return a.center.y < b.center.y;
                  });
        if (i >= buttons.size()) break;
        clicker_->move_and_click(buttons[i].center.x, buttons[i].center.y);
        tool_->click(buttons[i].center.x, buttons[i].center.y);
        collect_ecu(i);
      }
      collected_ = true;
    }
  }
  finish_collect();

  // A reset storm — every session lost, none recovered — means the car is
  // effectively unreachable; fail the campaign instead of analyzing an
  // empty capture (FleetRunner degrades this to a failed per-car slot).
  const auto& ss = report_.session_stats;
  if (ss.sessions_lost >= 16 && ss.sessions_restored == 0) {
    throw std::runtime_error(
        "reset_storm: " + std::to_string(ss.sessions_lost) +
        " sessions lost, none recovered");
  }
}

void Campaign::finish_collect() {
  // Robustness bookkeeping: retry counters, exhausted identifiers, bus
  // injector tally, supervisor counters and the ECUs' own reset/S3
  // tallies. All transactions happen during collection, so snapshotting
  // here (instead of after analysis) reads the same final values.
  report_.transactions = tool_->transact_stats();
  report_.failed_transactions.clear();
  for (const auto& [key, count] : tool_->failed_reads()) {
    report_.failed_transactions.push_back(
        TransactionFailure{key.first, key.second, count});
  }
  if (const auto* fault_stats = bus_->fault_stats()) {
    report_.bus_faults = *fault_stats;
  }
  report_.session_stats = tool_->session_stats();
  if (nm_) {
    report_.nm_enabled = true;
    report_.nm = nm_->stats();
  }
  report_.ecu_resets = 0;
  report_.ecu_s3_expiries = 0;
  for (const auto& ecu : vehicle_->ecus()) {
    report_.ecu_resets += ecu->resets();
    report_.ecu_s3_expiries += ecu->s3_expiries();
  }
}

void Campaign::maybe_stall(const char* phase) const {
  if (options_.stall_phase != phase) return;
  // Simulated hang (CI watchdog smoke): spin until the armed deadline
  // fires. Never stalls without a deadline, so a stray option value can
  // not wedge a run.
  while (watchdog_.armed()) {
    watchdog_.poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::uint64_t Campaign::checkpoint_options_digest() const {
  using util::fnv1a64_f64;
  using util::fnv1a64_str;
  using util::fnv1a64_u64;
  // Digest of every option that shapes the campaign's *products*.
  // Execution-only knobs (thread counts, pools, checkpoint/watchdog
  // settings) are excluded on purpose: a checkpoint written at 8 threads
  // must resume a 1-thread run.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = fnv1a64_u64(options_.seed, h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(options_.live_window), h);
  h = fnv1a64_f64(options_.video_fps, h);
  h = fnv1a64_u64(options_.ocr_noise ? 1 : 0, h);
  h = fnv1a64_f64(options_.ocr_rate_scale, h);
  h = fnv1a64_u64(options_.two_stage_filter ? 1 : 0, h);
  h = fnv1a64_u64(options_.run_baselines ? 1 : 0, h);
  h = fnv1a64_u64(options_.run_inference ? 1 : 0, h);
  h = fnv1a64_u64(options_.run_active_tests ? 1 : 0, h);
  h = fnv1a64_u64(options_.obd_alignment ? 1 : 0, h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(options_.camera_clock_offset),
                  h);
  h = fnv1a64_f64(options_.camera_clock_drift_ppm, h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(options_.sniffer_clock_offset),
                  h);
  const auto& gp = options_.gp;
  h = fnv1a64_u64(gp.population, h);
  h = fnv1a64_u64(gp.max_generations, h);
  h = fnv1a64_f64(gp.fitness_threshold, h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(gp.init_depth_min), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(gp.init_depth_max), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(gp.max_depth), h);
  h = fnv1a64_u64(gp.tournament, h);
  h = fnv1a64_f64(gp.crossover_rate, h);
  h = fnv1a64_f64(gp.subtree_mutation_rate, h);
  h = fnv1a64_f64(gp.point_mutation_rate, h);
  h = fnv1a64_f64(gp.parsimony, h);
  h = fnv1a64_f64(gp.trim_fraction, h);
  h = fnv1a64_u64(gp.seed_templates ? 1 : 0, h);
  h = fnv1a64_u64(gp.seed_least_squares ? 1 : 0, h);
  h = fnv1a64_u64(gp.constant_tuning ? 1 : 0, h);
  h = fnv1a64_u64(gp.use_scaling ? 1 : 0, h);
  h = fnv1a64_u64(gp.seed, h);
  const auto& faults = options_.faults;
  h = fnv1a64_f64(faults.rate, h);
  h = fnv1a64_u64(faults.fault_seed, h);
  h = fnv1a64_f64(faults.reset_rate, h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(faults.reset_boot_time), h);
  h = fnv1a64_u64(faults.session_faults ? 1 : 0, h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(faults.s3_timeout), h);
  h = fnv1a64_u64(faults.nm ? 1 : 0, h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(faults.nm_sleep_timeout), h);
  h = fnv1a64_u64(options_.nm_oblivious ? 1 : 0, h);
  h = fnv1a64_u64(faults.nm_veto_address, h);
  return h;
}

void Campaign::run() {
  std::optional<CheckpointStore> store;
  const std::uint64_t digest = checkpoint_options_digest();
  const std::uint64_t car = report_.spec_digest;
  std::size_t first = 0;
  if (!options_.checkpoint_dir.empty()) {
    store.emplace(options_.checkpoint_dir);
    if (options_.resume) {
      const auto loaded = store->load(car, options_.seed, digest);
      if (loaded) {
        if (restore_state(loaded->payload)) {
          first = loaded->phase + 1;
        } else {
          // Structurally valid container, unrestorable payload: move the
          // file out of the way and re-run from scratch — the phases it
          // covered simply run again; the car is never failed over it.
          store->quarantine_key(car, options_.seed, digest,
                                "payload failed to restore");
          ++report_.ckpt_quarantined;
          util::LogLine(util::LogLevel::kWarning, "ckpt")
              << report_.car_label
              << ": resume fell back to fresh (payload failed to restore, "
                 "file quarantined)";
        }
      } else if (loaded.error != CheckpointStore::LoadError::kMissing) {
        if (loaded.quarantined) ++report_.ckpt_quarantined;
        util::LogLine(util::LogLevel::kWarning, "ckpt")
            << report_.car_label << ": resume fell back to fresh ("
            << CheckpointStore::load_error_name(loaded.error) << ": "
            << loaded.detail
            << (loaded.quarantined ? "; file quarantined)" : ")");
      }
    }
  }

  for (std::size_t p = first; p < kNumPhases; ++p) {
    watchdog_.arm(phase_name(p), options_.phase_deadline_s,
                  options_.phase_sim_budget_s, &clock_);
    maybe_stall(phase_name(p));
    switch (p) {  // indices in phase_name() order
      case 0: phase_collect(); break;
      case 1: phase_assemble(); break;
      case 2: phase_ocr_extract(); break;
      case 3: phase_align(); break;
      case 4: phase_associate(); break;
      case 5: phase_infer(); break;
      case 6: phase_score(); break;
    }
    watchdog_.poll();  // a phase that returned past its budget still fails
    watchdog_.disarm();
    DPR_CRASH_POINT("campaign.phase_done");
    if (store) {
      const auto saved =
          store->save(car, options_.seed, digest,
                      static_cast<std::uint32_t>(p), serialize_state());
      if (!saved) {
        // Fail soft: the run continues uncheckpointed, but the log says
        // exactly which syscall refused and why.
        util::LogLine(util::LogLevel::kWarning, "ckpt")
            << report_.car_label << ": checkpoint save failed after "
            << phase_name(p) << " (" << saved.message() << ")";
      }
      DPR_CRASH_POINT("campaign.post_checkpoint");
    }
    if (options_.stop_after_phase >= 0 &&
        p >= static_cast<std::size_t>(options_.stop_after_phase)) {
      return;
    }
  }
  // Completed end to end: the checkpoint has served its purpose.
  if (store) store->remove(car, options_.seed, digest);
}

void Campaign::analyze() {
  phase_assemble();
  phase_ocr_extract();
  phase_align();
  phase_associate();
  phase_infer();
  phase_score();
}

void Campaign::phase_assemble() {
  PhaseTimer timer(report_.phases.assemble_s);
  const auto hint = hint_for(vehicle_->spec().transport);
  report_.census = frames::census(capture(), hint);
  mid_.messages = frames::assemble(capture(), hint);
  report_.messages_assembled = mid_.messages.size();
}

void Campaign::phase_ocr_extract() {
  // --- Screenshot analysis + field extraction -----------------------------
  // Both the alignment fallback and the signal/ECR analyses consume the
  // extracted fields and the traffic<->UI associations; compute each once.
  PhaseTimer timer(report_.phases.ocr_extract_s);
  if (options_.obd_alignment && obd_phase_end_ > 0) {
    mid_.obd_samples = screenshot::extract_samples(obd_video_, *ocr_);
  }
  mid_.samples = screenshot::extract_samples(video_, *ocr_);
  if (options_.two_stage_filter) {
    mid_.samples = screenshot::filter_samples(std::move(mid_.samples));
  }
  mid_.extraction = frames::extract_fields(mid_.messages);
  // OCR is finished for good after this phase (collection reads buttons,
  // this phase reads the videos); snapshot the final stats here.
  report_.ocr_stats = ocr_->stats();
}

void Campaign::phase_align() {
  {
    PhaseTimer timer(report_.phases.associate_s);
    mid_.associations = build_associations(mid_.extraction, mid_.samples);
  }

  // --- Clock alignment (§9.4) ---------------------------------------------
  PhaseTimer timer(report_.phases.align_s);
  util::SimTime offset = 0;
  bool aligned = false;
  if (options_.obd_alignment && obd_phase_end_ > 0) {
    const util::SimTime obd_cutoff =
        obd_phase_end_ + 100 * util::kMillisecond;
    std::vector<frames::DiagMessage> obd_messages;
    for (const auto& msg : mid_.messages) {
      if (msg.timestamp <= obd_cutoff) obd_messages.push_back(msg);
    }
    if (const auto alignment =
            correlate::align_with_obd(obd_messages, mid_.obd_samples)) {
      offset = alignment->offset;
      report_.alignment_anchors = alignment->matched;
      aligned = alignment->matched >= 8;
    }
  }
  report_.alignment_offset = offset;

  if (!aligned) {
    // NTP-only vehicles (§9.4 method 1): estimate the end-to-end
    // request->display latency from value changes in the diagnostic
    // traffic itself, then treat it as the pairing offset.
    const auto series = build_alignment_series(mid_.associations);
    if (const auto estimate =
            correlate::estimate_offset_by_changes(series)) {
      report_.alignment_offset = estimate->offset;
      report_.alignment_anchors = estimate->matched;
    }
  }
}

void Campaign::phase_associate() {
  PhaseTimer timer(report_.phases.associate_s);
  analyze_signals(std::move(mid_.associations));
  mid_.associations.clear();
  analyze_ecrs(mid_.extraction);
}

void Campaign::phase_infer() {
  PhaseTimer timer(report_.phases.infer_s);
  infer_signals();
}

void Campaign::phase_score() {
  PhaseTimer timer(report_.phases.score_s);
  score_findings();
}

std::vector<Campaign::Association> Campaign::build_associations(
    const frames::ExtractionResult& extraction,
    const std::vector<screenshot::UiSample>& samples) const {
  std::vector<Association> associations;
  const util::SimTime margin = 1 * util::kSecond;

  for (const auto& session : sessions_) {
    const util::SimTime begin = session.live_begin - margin;
    const util::SimTime end = session.live_end + margin;

    // X observations of this session, keyed per signal in first-seen
    // (i.e. poll/row) order.
    struct Key {
      bool is_kwp;
      std::uint16_t did;
      std::uint8_t local_id;
      std::size_t esv_index;
      bool operator<(const Key& o) const {
        return std::tie(is_kwp, did, local_id, esv_index) <
               std::tie(o.is_kwp, o.did, o.local_id, o.esv_index);
      }
    };
    std::vector<Key> key_order;
    std::map<Key, std::vector<correlate::XSample>> xs_by_key;
    for (const auto& esv : extraction.esvs) {
      if (esv.timestamp < begin || esv.timestamp > end) continue;
      Key key{esv.is_kwp, esv.did, esv.local_id, esv.esv_index};
      auto it = xs_by_key.find(key);
      if (it == xs_by_key.end()) {
        key_order.push_back(key);
        it = xs_by_key.emplace(key, std::vector<correlate::XSample>{}).first;
      }
      correlate::XSample x;
      x.timestamp = esv.timestamp;
      if (esv.is_kwp) {
        x.xs = {static_cast<double>(esv.x0), static_cast<double>(esv.x1)};
      } else {
        for (std::size_t i = 0; i < esv.data.size() && i < 2; ++i) {
          x.xs.push_back(static_cast<double>(esv.data[i]));
        }
      }
      it->second.push_back(std::move(x));
    }

    // Y observations, grouped by layout row.
    std::map<int, std::vector<const screenshot::UiSample*>> by_row;
    for (const auto& sample : samples) {
      if (sample.timestamp < begin || sample.timestamp > end) continue;
      by_row[sample.row].push_back(&sample);
    }

    // The r-th populated row corresponds to the r-th signal key in the
    // session's traffic order (§3.4 association via the UI layout).
    std::size_t key_index = 0;
    associations.reserve(associations.size() +
                         std::min(by_row.size(), key_order.size()));
    for (const auto& [row, row_samples] : by_row) {
      if (key_index >= key_order.size()) break;
      const Key& key = key_order[key_index++];

      Association assoc;
      assoc.is_kwp = key.is_kwp;
      assoc.did = key.did;
      assoc.local_id = key.local_id;
      assoc.esv_index = key.esv_index;
      // Each key is consumed by exactly one association: steal the series.
      assoc.xs = std::move(xs_by_key[key]);
      assoc.names.reserve(row_samples.size());
      assoc.ys.reserve(row_samples.size());
      for (const auto* sample : row_samples) {
        assoc.names.push_back(sample->name);
        if (sample->value) {
          assoc.ys.push_back(
              correlate::YSample{sample->timestamp, *sample->value});
        } else {
          ++assoc.non_numeric;
        }
      }
      associations.push_back(std::move(assoc));
    }
  }
  return associations;
}

std::vector<std::pair<std::vector<correlate::XSample>,
                      std::vector<correlate::YSample>>>
Campaign::build_alignment_series(
    const std::vector<Association>& associations) {
  std::vector<std::pair<std::vector<correlate::XSample>,
                        std::vector<correlate::YSample>>>
      series;
  // Copies (rather than moves) so the cached associations stay intact for
  // the signal analysis that follows.
  for (const auto& assoc : associations) {
    if (assoc.ys.size() >= 6) {
      series.emplace_back(assoc.xs, assoc.ys);
    }
  }
  return series;
}

void Campaign::analyze_signals(std::vector<Association> associations) {
  report_.signals.reserve(report_.signals.size() + associations.size());
  for (auto& assoc : associations) {
    SignalFinding finding;
    finding.is_kwp = assoc.is_kwp;
    finding.did = assoc.did;
    finding.local_id = assoc.local_id;
    finding.esv_index = assoc.esv_index;
    finding.semantic_name = majority_vote(assoc.names);
    {
      char request[16];
      if (assoc.is_kwp) {
        std::snprintf(request, sizeof request, "21 %02X", assoc.local_id);
      } else {
        std::snprintf(request, sizeof request, "22 %02X %02X",
                      assoc.did >> 8, assoc.did & 0xFF);
      }
      finding.request_message = request;
    }

    const std::size_t total_samples = assoc.ys.size() + assoc.non_numeric;
    if (assoc.ys.size() < 6 || assoc.non_numeric > total_samples / 2) {
      // Mostly non-numeric: a status/enum signal, no formula (§4.3
      // "#ESV (Enum)").
      finding.is_enum = true;
      report_.signals.push_back(std::move(finding));
      continue;
    }

    finding.dataset = correlate::build_dataset(assoc.xs, assoc.ys,
                                               report_.alignment_offset);
    report_.signals.push_back(std::move(finding));
  }
}

void Campaign::infer_signals() {
  if (!options_.run_inference) return;

  // Each non-enum signal is an independent (vehicle, DID) inference
  // problem: fan them out over the BatchRunner pool. Seeds are derived
  // per signal exactly as the serial loop did, so the batch results are
  // identical regardless of thread count.
  std::vector<gp::BatchJob> jobs;
  std::vector<SignalFinding*> targets;
  for (auto& finding : report_.signals) {
    if (finding.is_enum) continue;
    gp::BatchJob job;
    job.dataset = &finding.dataset;
    job.config = options_.gp;
    // The phase watchdog's token lets a deadline wind the GP loops down
    // promptly; an unarmed token never expires, so plain runs are
    // unaffected.
    job.config.cancel = &watchdog_.token();
    job.config.seed ^= (static_cast<std::uint64_t>(finding.did) << 16) ^
                       finding.local_id ^ (finding.esv_index << 8);
    jobs.push_back(job);
    targets.push_back(&finding);
  }
  // A fleet-injected pool wins over the local thread knob: the whole
  // machine then runs on one shared budget, with this batch's jobs
  // interleaved among the other campaigns' work.
  auto results = options_.infer_pool
                     ? gp::BatchRunner(*options_.infer_pool).run(jobs)
                     : gp::BatchRunner(options_.infer_threads).run(jobs);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i]->gp = std::move(results[i]);
    if (options_.run_baselines) {
      targets[i]->linear = regress::fit_linear(targets[i]->dataset);
      targets[i]->polynomial = regress::fit_polynomial(targets[i]->dataset);
    }
  }
}

void Campaign::analyze_ecrs(const frames::ExtractionResult& extraction) {
  const util::SimTime margin = 1 * util::kSecond;

  for (const auto& session : sessions_) {
    if (session.actuator_names.empty()) continue;
    std::vector<frames::EcrObservation> window;
    for (const auto& ecr : extraction.ecrs) {
      if (ecr.timestamp >= session.active_begin - margin &&
          ecr.timestamp <= session.active_end + margin) {
        window.push_back(ecr);
      }
    }
    const auto procedures = frames::extract_procedures(window);
    for (std::size_t i = 0; i < procedures.size(); ++i) {
      EcrFinding finding;
      finding.is_uds = procedures[i].is_uds;
      finding.id = procedures[i].id;
      finding.param_sequence = procedures[i].param_sequence;
      finding.adjustment_state = procedures[i].adjustment_state;
      finding.three_message_pattern =
          procedures[i].matches_three_message_pattern();
      if (i < session.actuator_names.size()) {
        finding.semantic_name = session.actuator_names[i];
      }
      report_.ecrs.push_back(std::move(finding));
    }
  }
}

void Campaign::score_findings() {
  const auto& spec = vehicle_->spec();

  // Ground-truth lookup tables, built once per campaign instead of
  // rescanning every ECU's signal inventory for every finding
  // (O(findings + ecus*signals) instead of O(findings * ecus * signals)).
  // The legacy scan kept the *last* catalog match, so later entries
  // overwrite earlier ones here too.
  std::map<std::uint16_t, const vehicle::UdsSignalSpec*> uds_truth;
  std::map<std::uint8_t, std::vector<const vehicle::KwpLocalIdSpec*>>
      kwp_blocks;
  std::set<std::uint16_t> actuator_ids;
  for (const auto& ecu : spec.ecus) {
    for (const auto& sig : ecu.uds_signals) uds_truth[sig.did] = &sig;
    for (const auto& block : ecu.kwp_local_ids) {
      kwp_blocks[block.local_id].push_back(&block);
    }
    for (const auto& act : ecu.actuators) actuator_ids.insert(act.id);
  }

  for (auto& finding : report_.signals) {
    // Locate the ground truth in the catalog.
    std::function<double(std::span<const double>)> truth;
    if (!finding.is_kwp) {
      if (const auto it = uds_truth.find(finding.did);
          it != uds_truth.end()) {
        const auto& sig = *it->second;
        finding.truth_is_enum = sig.formula.is_enum();
        finding.truth_formula = sig.formula.repr();
        const vehicle::PropFormula formula = sig.formula;
        truth = [formula](std::span<const double> xs) {
          std::vector<std::uint8_t> bytes;
          bytes.reserve(xs.size());
          for (double x : xs) bytes.push_back(static_cast<std::uint8_t>(x));
          return formula.eval(bytes);
        };
      }
    } else {
      const auto it = kwp_blocks.find(finding.local_id);
      if (it != kwp_blocks.end()) {
        // The esv_index range check depends on the finding, so walk this
        // local id's (few) blocks in catalog order, last match winning —
        // exactly the legacy scan's behavior.
        for (const auto* block : it->second) {
          if (finding.esv_index >= block->esvs.size()) continue;
          const auto& esv = block->esvs[finding.esv_index];
          finding.truth_is_enum = esv.is_enum;
          const auto kwp_spec = kwp::find_formula(esv.formula_type);
          finding.truth_formula = kwp_spec ? kwp_spec->expression : "?";
          const std::uint8_t type = esv.formula_type;
          truth = [type](std::span<const double> xs) {
            if (xs.size() < 2) return 0.0;
            const auto value = kwp::decode_esv(
                type, static_cast<std::uint8_t>(xs[0]),
                static_cast<std::uint8_t>(xs[1]));
            return value.value_or(0.0);
          };
        }
      }
    }

    if (finding.is_enum || !truth) continue;
    // A formula counts as recovered when its outputs match the ground
    // truth uniformly over the observed operand domain: close in the
    // mean AND with no gross pointwise deviation (a wrong structure
    // fitted locally fails the latter).
    if (finding.gp) {
      finding.gp_correct =
          gp::mean_relative_error(*finding.gp, finding.dataset, truth) <
              kEquivalenceTolerance &&
          gp::max_relative_error(*finding.gp, finding.dataset, truth) <
              kMaxPointTolerance;
    }
    if (finding.linear) {
      finding.linear_correct =
          regress::mean_relative_error(*finding.linear, finding.dataset,
                                       truth) < kEquivalenceTolerance &&
          regress::max_relative_error(*finding.linear, finding.dataset,
                                      truth) < kMaxPointTolerance;
    }
    if (finding.polynomial) {
      finding.polynomial_correct =
          regress::mean_relative_error(*finding.polynomial, finding.dataset,
                                       truth) < kEquivalenceTolerance &&
          regress::max_relative_error(*finding.polynomial, finding.dataset,
                                      truth) < kMaxPointTolerance;
    }
  }

  for (auto& finding : report_.ecrs) {
    finding.matches_truth = actuator_ids.count(finding.id) > 0;
  }
}

// --- Checkpoint serialization ----------------------------------------------
// The payload is the full union of everything a later phase could need:
// the raw capture, both videos, the session windows, the OCR engine's RNG
// position, the intermediate phase products and the report so far. Doubles
// travel as raw bit patterns, so a resumed run is bit-identical to an
// uninterrupted one (the resilience tests compare report signatures).

namespace {

void write_rect(util::BinaryWriter& w, const diagtool::Rect& rect) {
  w.i64(rect.x);
  w.i64(rect.y);
  w.i64(rect.w);
  w.i64(rect.h);
}

diagtool::Rect read_rect(util::BinaryReader& r) {
  diagtool::Rect rect;
  rect.x = static_cast<int>(r.i64());
  rect.y = static_cast<int>(r.i64());
  rect.w = static_cast<int>(r.i64());
  rect.h = static_cast<int>(r.i64());
  return rect;
}

void write_video(util::BinaryWriter& w, const cps::VideoRecording& video) {
  w.u64(video.frames.size());
  for (const auto& frame : video.frames) {
    w.i64(frame.timestamp);
    w.i64(frame.width);
    w.i64(frame.height);
    w.u64(frame.text_regions.size());
    for (const auto& region : frame.text_regions) {
      w.str(region.truth);
      write_rect(w, region.bounds);
      w.i64(region.font_px);
      w.i64(region.row);
      w.b(region.clickable);
    }
    w.u64(frame.icon_regions.size());
    for (const auto& region : frame.icon_regions) {
      write_rect(w, region.bounds);
      w.str(region.icon_identity);
    }
  }
}

cps::VideoRecording read_video(util::BinaryReader& r) {
  cps::VideoRecording video;
  const std::uint64_t n_frames = r.u64();
  for (std::uint64_t i = 0; i < n_frames; ++i) {
    cps::Screenshot frame;
    frame.timestamp = r.i64();
    frame.width = static_cast<int>(r.i64());
    frame.height = static_cast<int>(r.i64());
    const std::uint64_t n_text = r.u64();
    for (std::uint64_t j = 0; j < n_text; ++j) {
      cps::TextRegion region;
      region.truth = r.str();
      region.bounds = read_rect(r);
      region.font_px = static_cast<int>(r.i64());
      region.row = static_cast<int>(r.i64());
      region.clickable = r.b();
      frame.text_regions.push_back(std::move(region));
    }
    const std::uint64_t n_icons = r.u64();
    for (std::uint64_t j = 0; j < n_icons; ++j) {
      cps::IconRegion region;
      region.bounds = read_rect(r);
      region.icon_identity = r.str();
      frame.icon_regions.push_back(std::move(region));
    }
    video.frames.push_back(std::move(frame));
  }
  return video;
}

void write_samples(util::BinaryWriter& w,
                   const std::vector<screenshot::UiSample>& samples) {
  w.u64(samples.size());
  for (const auto& sample : samples) {
    w.i64(sample.timestamp);
    w.i64(sample.row);
    w.str(sample.name);
    w.str(sample.value_text);
    w.b(sample.value.has_value());
    if (sample.value) w.f64(*sample.value);
  }
}

std::vector<screenshot::UiSample> read_samples(util::BinaryReader& r) {
  std::vector<screenshot::UiSample> samples;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    screenshot::UiSample sample;
    sample.timestamp = r.i64();
    sample.row = static_cast<int>(r.i64());
    sample.name = r.str();
    sample.value_text = r.str();
    if (r.b()) sample.value = r.f64();
    samples.push_back(std::move(sample));
  }
  return samples;
}

void write_extraction(util::BinaryWriter& w,
                      const frames::ExtractionResult& extraction) {
  w.u64(extraction.esvs.size());
  for (const auto& esv : extraction.esvs) {
    w.i64(esv.timestamp);
    w.b(esv.is_kwp);
    w.u16(esv.did);
    w.bytes(esv.data);
    w.u8(esv.local_id);
    w.u64(esv.esv_index);
    w.u8(esv.formula_type);
    w.u8(esv.x0);
    w.u8(esv.x1);
  }
  w.u64(extraction.ecrs.size());
  for (const auto& ecr : extraction.ecrs) {
    w.i64(ecr.timestamp);
    w.b(ecr.is_uds);
    w.u16(ecr.id);
    w.u8(ecr.io_param);
    w.bytes(ecr.control_state);
  }
  w.u64(extraction.unmatched_responses);
}

frames::ExtractionResult read_extraction(util::BinaryReader& r) {
  frames::ExtractionResult extraction;
  const std::uint64_t n_esvs = r.u64();
  for (std::uint64_t i = 0; i < n_esvs; ++i) {
    frames::EsvObservation esv;
    esv.timestamp = r.i64();
    esv.is_kwp = r.b();
    esv.did = r.u16();
    esv.data = r.bytes();
    esv.local_id = r.u8();
    esv.esv_index = r.u64();
    esv.formula_type = r.u8();
    esv.x0 = r.u8();
    esv.x1 = r.u8();
    extraction.esvs.push_back(std::move(esv));
  }
  const std::uint64_t n_ecrs = r.u64();
  for (std::uint64_t i = 0; i < n_ecrs; ++i) {
    frames::EcrObservation ecr;
    ecr.timestamp = r.i64();
    ecr.is_uds = r.b();
    ecr.id = r.u16();
    ecr.io_param = r.u8();
    ecr.control_state = r.bytes();
    extraction.ecrs.push_back(std::move(ecr));
  }
  extraction.unmatched_responses = r.u64();
  return extraction;
}

void write_dataset(util::BinaryWriter& w, const correlate::Dataset& dataset) {
  w.u64(dataset.n_vars);
  w.u64(dataset.points.size());
  for (const auto& point : dataset.points) {
    w.u64(point.xs.size());
    for (const double x : point.xs) w.f64(x);
    w.f64(point.y);
    w.i64(point.x_time);
    w.i64(point.y_time);
  }
}

correlate::Dataset read_dataset(util::BinaryReader& r) {
  correlate::Dataset dataset;
  dataset.n_vars = r.u64();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    correlate::DataPoint point;
    const std::uint64_t n_xs = r.u64();
    for (std::uint64_t j = 0; j < n_xs; ++j) point.xs.push_back(r.f64());
    point.y = r.f64();
    point.x_time = r.i64();
    point.y_time = r.i64();
    dataset.points.push_back(std::move(point));
  }
  return dataset;
}

void write_expr_node(util::BinaryWriter& w, const gp::Node* node) {
  w.u8(static_cast<std::uint8_t>(node->op));
  w.f64(node->value);
  w.i64(node->var);
  const int n_children = gp::arity(node->op);
  if (n_children >= 1) write_expr_node(w, node->lhs.get());
  if (n_children >= 2) write_expr_node(w, node->rhs.get());
}

std::unique_ptr<gp::Node> read_expr_node(util::BinaryReader& r, int depth) {
  if (depth > 64) throw std::runtime_error("checkpoint: expression too deep");
  auto node = std::make_unique<gp::Node>();
  const std::uint8_t op = r.u8();
  if (op > static_cast<std::uint8_t>(gp::Op::kInv)) {
    throw std::runtime_error("checkpoint: bad expression opcode");
  }
  node->op = static_cast<gp::Op>(op);
  node->value = r.f64();
  node->var = static_cast<int>(r.i64());
  const int n_children = gp::arity(node->op);
  if (n_children >= 1) node->lhs = read_expr_node(r, depth + 1);
  if (n_children >= 2) node->rhs = read_expr_node(r, depth + 1);
  return node;
}

void write_gp_result(util::BinaryWriter& w, const gp::GpResult& result) {
  write_expr_node(w, result.best.root());
  w.u64(result.n_vars);
  w.f64(result.fitness);
  w.u64(result.generations_run);
  w.b(result.converged);
  w.u64(result.x_scales.size());
  for (const auto& scale : result.x_scales) w.f64(scale.factor);
  w.f64(result.y_scale.factor);
  w.str(result.formula);
  w.f64(result.timings.scoring_s);
  w.f64(result.timings.tuning_s);
  w.f64(result.timings.breeding_s);
  w.f64(result.timings.total_s);
  w.u64(result.timings.evaluations);
  w.u64(result.timings.cache_hits);
  w.u64(result.timings.cache_misses);
}

gp::GpResult read_gp_result(util::BinaryReader& r) {
  gp::GpResult result;
  result.best = gp::Expr(read_expr_node(r, 0));
  result.n_vars = r.u64();
  result.fitness = r.f64();
  result.generations_run = r.u64();
  result.converged = r.b();
  const std::uint64_t n_scales = r.u64();
  for (std::uint64_t i = 0; i < n_scales; ++i) {
    result.x_scales.push_back(gp::SeriesScale{r.f64()});
  }
  result.y_scale.factor = r.f64();
  result.formula = r.str();
  result.timings.scoring_s = r.f64();
  result.timings.tuning_s = r.f64();
  result.timings.breeding_s = r.f64();
  result.timings.total_s = r.f64();
  result.timings.evaluations = r.u64();
  result.timings.cache_hits = r.u64();
  result.timings.cache_misses = r.u64();

  // A restored expression will be evaluated against n_vars operands;
  // reject stray variable references here (hard error) instead of letting
  // a bad tree surface later as an evaluation throw.
  std::vector<const gp::Node*> stack{result.best.root()};
  while (!stack.empty()) {
    const gp::Node* node = stack.back();
    stack.pop_back();
    if (node->op == gp::Op::kVar &&
        (node->var < 0 ||
         static_cast<std::uint64_t>(node->var) >= result.n_vars)) {
      throw std::runtime_error("checkpoint: variable index out of range");
    }
    if (node->lhs) stack.push_back(node->lhs.get());
    if (node->rhs) stack.push_back(node->rhs.get());
  }
  return result;
}

void write_fit(util::BinaryWriter& w, const regress::FitResult& fit) {
  w.u64(fit.coefficients.size());
  for (const double c : fit.coefficients) w.f64(c);
  w.u64(fit.n_vars);
  w.b(fit.polynomial);
  w.f64(fit.mae);
  w.str(fit.formula);
}

regress::FitResult read_fit(util::BinaryReader& r) {
  regress::FitResult fit;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) fit.coefficients.push_back(r.f64());
  fit.n_vars = r.u64();
  fit.polynomial = r.b();
  fit.mae = r.f64();
  fit.formula = r.str();
  return fit;
}

}  // namespace

util::Bytes Campaign::serialize_state() const {
  util::BinaryWriter w;

  // Collection products: raw capture, videos, per-ECU session windows.
  const auto& cap = capture();
  w.u64(cap.size());
  for (const auto& tf : cap) {
    w.i64(tf.timestamp);
    w.u32(tf.frame.id().value);
    w.b(tf.frame.id().extended);
    const auto data = tf.frame.data();
    w.u8(static_cast<std::uint8_t>(data.size()));
    for (const std::uint8_t byte : data) w.u8(byte);
  }
  write_video(w, video_);
  write_video(w, obd_video_);
  w.i64(obd_phase_end_);
  w.u64(sessions_.size());
  for (const auto& session : sessions_) {
    w.u64(session.ecu_index);
    w.i64(session.live_begin);
    w.i64(session.live_end);
    w.u64(session.actuator_names.size());
    for (const auto& name : session.actuator_names) w.str(name);
    w.i64(session.active_begin);
    w.i64(session.active_end);
  }
  w.b(collected_);

  // OCR engine replay state (the ocr_extract phase continues this stream).
  const auto rng_state = ocr_->rng_state();
  for (int i = 0; i < 4; ++i) w.u64(rng_state.s[i]);
  w.f64(rng_state.cached_normal);
  w.b(rng_state.has_cached_normal);
  const auto& engine_stats = ocr_->stats();
  w.u64(engine_stats.strings_read);
  w.u64(engine_stats.strings_correct);
  w.u64(engine_stats.char_errors);
  w.u64(engine_stats.decimal_drops);

  // Intermediate phase products.
  w.u64(mid_.messages.size());
  for (const auto& msg : mid_.messages) {
    w.i64(msg.timestamp);
    w.u32(msg.can_id);
    w.bytes(msg.payload);
  }
  write_samples(w, mid_.samples);
  write_samples(w, mid_.obd_samples);
  write_extraction(w, mid_.extraction);
  w.u64(mid_.associations.size());
  for (const auto& assoc : mid_.associations) {
    w.b(assoc.is_kwp);
    w.u16(assoc.did);
    w.u8(assoc.local_id);
    w.u64(assoc.esv_index);
    w.u64(assoc.xs.size());
    for (const auto& x : assoc.xs) {
      w.i64(x.timestamp);
      w.u64(x.xs.size());
      for (const double v : x.xs) w.f64(v);
    }
    w.u64(assoc.ys.size());
    for (const auto& y : assoc.ys) {
      w.i64(y.timestamp);
      w.f64(y.y);
    }
    w.u64(assoc.names.size());
    for (const auto& name : assoc.names) w.str(name);
    w.u64(assoc.non_numeric);
  }

  // The report as filled in so far.
  w.u64(report_.spec_digest);
  w.str(report_.car_label);
  w.u64(report_.census.single_frames);
  w.u64(report_.census.first_frames);
  w.u64(report_.census.consecutive_frames);
  w.u64(report_.census.flow_control_frames);
  w.u64(report_.census.vwtp_data_last);
  w.u64(report_.census.vwtp_data_more);
  w.u64(report_.census.vwtp_control);
  w.u64(report_.census.other);
  w.u64(report_.messages_assembled);
  w.i64(report_.alignment_offset);
  w.u64(report_.alignment_anchors);
  w.u64(report_.signals.size());
  for (const auto& s : report_.signals) {
    w.b(s.is_kwp);
    w.u16(s.did);
    w.u8(s.local_id);
    w.u64(s.esv_index);
    w.str(s.semantic_name);
    w.str(s.request_message);
    w.b(s.is_enum);
    write_dataset(w, s.dataset);
    w.b(s.gp.has_value());
    if (s.gp) write_gp_result(w, *s.gp);
    w.b(s.linear.has_value());
    if (s.linear) write_fit(w, *s.linear);
    w.b(s.polynomial.has_value());
    if (s.polynomial) write_fit(w, *s.polynomial);
    w.str(s.truth_formula);
    w.b(s.truth_is_enum);
    w.b(s.gp_correct);
    w.b(s.linear_correct);
    w.b(s.polynomial_correct);
  }
  w.u64(report_.ecrs.size());
  for (const auto& e : report_.ecrs) {
    w.b(e.is_uds);
    w.u16(e.id);
    w.str(e.semantic_name);
    w.u64(e.param_sequence.size());
    for (const std::uint8_t p : e.param_sequence) w.u8(p);
    w.bytes(e.adjustment_state);
    w.b(e.three_message_pattern);
    w.b(e.matches_truth);
  }
  w.u64(report_.ocr_stats.strings_read);
  w.u64(report_.ocr_stats.strings_correct);
  w.u64(report_.ocr_stats.char_errors);
  w.u64(report_.ocr_stats.decimal_drops);
  w.f64(report_.phases.collect_s);
  w.f64(report_.phases.assemble_s);
  w.f64(report_.phases.ocr_extract_s);
  w.f64(report_.phases.align_s);
  w.f64(report_.phases.associate_s);
  w.f64(report_.phases.infer_s);
  w.f64(report_.phases.score_s);
  w.u64(report_.transactions.transactions);
  w.u64(report_.transactions.retries);
  w.u64(report_.transactions.busy_retries);
  w.u64(report_.transactions.pending_waits);
  w.u64(report_.transactions.failures);
  w.u64(report_.failed_transactions.size());
  for (const auto& f : report_.failed_transactions) {
    w.b(f.is_kwp);
    w.u16(f.id);
    w.u64(f.failures);
  }
  w.u64(report_.bus_faults.delivered);
  w.u64(report_.bus_faults.dropped);
  w.u64(report_.bus_faults.corrupted);
  w.u64(report_.bus_faults.duplicated);
  w.u64(report_.bus_faults.jittered);
  w.u64(report_.bus_faults.bursts);
  w.u64(report_.session_stats.keepalives);
  w.u64(report_.session_stats.sessions_lost);
  w.u64(report_.session_stats.sessions_restored);
  w.u64(report_.session_stats.reissued_requests);
  w.u64(report_.session_stats.recovery_failures);
  w.u64(report_.session_stats.bus_sleeps);
  w.u64(report_.session_stats.sleep_recoveries);
  w.u64(report_.ecu_resets);
  w.u64(report_.ecu_s3_expiries);
  w.b(report_.nm_enabled);
  w.u64(report_.nm.sleeps);
  w.u64(report_.nm.wakeups);
  w.u64(report_.nm.frames_lost_to_sleep);
  w.u64(report_.nm.limp_episodes);
  w.u64(report_.nm.ring_repairs);
  w.u64(report_.nm.nm_frames_sent);
  w.b(report_.completed);
  w.str(report_.failure_reason);
  return w.take();
}

bool Campaign::restore_state(const util::Bytes& payload) {
  try {
    util::BinaryReader r(payload);

    std::vector<can::TimestampedFrame> cap;
    const std::uint64_t n_frames = r.u64();
    for (std::uint64_t i = 0; i < n_frames; ++i) {
      can::TimestampedFrame tf;
      tf.timestamp = r.i64();
      can::CanId id;
      id.value = r.u32();
      id.extended = r.b();
      const std::uint8_t dlc = r.u8();
      if (dlc > 8) throw std::runtime_error("checkpoint: bad frame dlc");
      std::uint8_t data[8];
      for (std::uint8_t j = 0; j < dlc; ++j) data[j] = r.u8();
      tf.frame = can::CanFrame(id, std::span<const std::uint8_t>(data, dlc));
      cap.push_back(tf);
    }
    cps::VideoRecording video = read_video(r);
    cps::VideoRecording obd_video = read_video(r);
    const util::SimTime obd_phase_end = r.i64();
    std::vector<EcuSession> sessions;
    const std::uint64_t n_sessions = r.u64();
    for (std::uint64_t i = 0; i < n_sessions; ++i) {
      EcuSession session;
      session.ecu_index = r.u64();
      session.live_begin = r.i64();
      session.live_end = r.i64();
      const std::uint64_t n_names = r.u64();
      for (std::uint64_t j = 0; j < n_names; ++j) {
        session.actuator_names.push_back(r.str());
      }
      session.active_begin = r.i64();
      session.active_end = r.i64();
      sessions.push_back(std::move(session));
    }
    const bool collected = r.b();

    util::Rng::State rng_state;
    for (int i = 0; i < 4; ++i) rng_state.s[i] = r.u64();
    rng_state.cached_normal = r.f64();
    rng_state.has_cached_normal = r.b();
    cps::OcrStats engine_stats;
    engine_stats.strings_read = r.u64();
    engine_stats.strings_correct = r.u64();
    engine_stats.char_errors = r.u64();
    engine_stats.decimal_drops = r.u64();

    Intermediate mid;
    const std::uint64_t n_messages = r.u64();
    for (std::uint64_t i = 0; i < n_messages; ++i) {
      frames::DiagMessage msg;
      msg.timestamp = r.i64();
      msg.can_id = r.u32();
      msg.payload = r.bytes();
      mid.messages.push_back(std::move(msg));
    }
    mid.samples = read_samples(r);
    mid.obd_samples = read_samples(r);
    mid.extraction = read_extraction(r);
    const std::uint64_t n_assocs = r.u64();
    for (std::uint64_t i = 0; i < n_assocs; ++i) {
      Association assoc;
      assoc.is_kwp = r.b();
      assoc.did = r.u16();
      assoc.local_id = r.u8();
      assoc.esv_index = r.u64();
      const std::uint64_t n_xs = r.u64();
      for (std::uint64_t j = 0; j < n_xs; ++j) {
        correlate::XSample x;
        x.timestamp = r.i64();
        const std::uint64_t n_vals = r.u64();
        for (std::uint64_t k = 0; k < n_vals; ++k) x.xs.push_back(r.f64());
        assoc.xs.push_back(std::move(x));
      }
      const std::uint64_t n_ys = r.u64();
      for (std::uint64_t j = 0; j < n_ys; ++j) {
        correlate::YSample y;
        y.timestamp = r.i64();
        y.y = r.f64();
        assoc.ys.push_back(y);
      }
      const std::uint64_t n_names = r.u64();
      for (std::uint64_t j = 0; j < n_names; ++j) {
        assoc.names.push_back(r.str());
      }
      assoc.non_numeric = r.u64();
      mid.associations.push_back(std::move(assoc));
    }

    CampaignReport report;
    report.spec_digest = r.u64();
    report.car_label = r.str();
    report.census.single_frames = r.u64();
    report.census.first_frames = r.u64();
    report.census.consecutive_frames = r.u64();
    report.census.flow_control_frames = r.u64();
    report.census.vwtp_data_last = r.u64();
    report.census.vwtp_data_more = r.u64();
    report.census.vwtp_control = r.u64();
    report.census.other = r.u64();
    report.messages_assembled = r.u64();
    report.alignment_offset = r.i64();
    report.alignment_anchors = r.u64();
    const std::uint64_t n_signals = r.u64();
    for (std::uint64_t i = 0; i < n_signals; ++i) {
      SignalFinding s;
      s.is_kwp = r.b();
      s.did = r.u16();
      s.local_id = r.u8();
      s.esv_index = r.u64();
      s.semantic_name = r.str();
      s.request_message = r.str();
      s.is_enum = r.b();
      s.dataset = read_dataset(r);
      if (r.b()) s.gp = read_gp_result(r);
      if (r.b()) s.linear = read_fit(r);
      if (r.b()) s.polynomial = read_fit(r);
      s.truth_formula = r.str();
      s.truth_is_enum = r.b();
      s.gp_correct = r.b();
      s.linear_correct = r.b();
      s.polynomial_correct = r.b();
      report.signals.push_back(std::move(s));
    }
    const std::uint64_t n_ecrs = r.u64();
    for (std::uint64_t i = 0; i < n_ecrs; ++i) {
      EcrFinding e;
      e.is_uds = r.b();
      e.id = r.u16();
      e.semantic_name = r.str();
      const std::uint64_t n_params = r.u64();
      for (std::uint64_t j = 0; j < n_params; ++j) {
        e.param_sequence.push_back(r.u8());
      }
      e.adjustment_state = r.bytes();
      e.three_message_pattern = r.b();
      e.matches_truth = r.b();
      report.ecrs.push_back(std::move(e));
    }
    report.ocr_stats.strings_read = r.u64();
    report.ocr_stats.strings_correct = r.u64();
    report.ocr_stats.char_errors = r.u64();
    report.ocr_stats.decimal_drops = r.u64();
    report.phases.collect_s = r.f64();
    report.phases.assemble_s = r.f64();
    report.phases.ocr_extract_s = r.f64();
    report.phases.align_s = r.f64();
    report.phases.associate_s = r.f64();
    report.phases.infer_s = r.f64();
    report.phases.score_s = r.f64();
    report.transactions.transactions = r.u64();
    report.transactions.retries = r.u64();
    report.transactions.busy_retries = r.u64();
    report.transactions.pending_waits = r.u64();
    report.transactions.failures = r.u64();
    const std::uint64_t n_failed = r.u64();
    for (std::uint64_t i = 0; i < n_failed; ++i) {
      TransactionFailure f;
      f.is_kwp = r.b();
      f.id = r.u16();
      f.failures = r.u64();
      report.failed_transactions.push_back(f);
    }
    report.bus_faults.delivered = r.u64();
    report.bus_faults.dropped = r.u64();
    report.bus_faults.corrupted = r.u64();
    report.bus_faults.duplicated = r.u64();
    report.bus_faults.jittered = r.u64();
    report.bus_faults.bursts = r.u64();
    report.session_stats.keepalives = r.u64();
    report.session_stats.sessions_lost = r.u64();
    report.session_stats.sessions_restored = r.u64();
    report.session_stats.reissued_requests = r.u64();
    report.session_stats.recovery_failures = r.u64();
    report.session_stats.bus_sleeps = r.u64();
    report.session_stats.sleep_recoveries = r.u64();
    report.ecu_resets = r.u64();
    report.ecu_s3_expiries = r.u64();
    report.nm_enabled = r.b();
    report.nm.sleeps = r.u64();
    report.nm.wakeups = r.u64();
    report.nm.frames_lost_to_sleep = r.u64();
    report.nm.limp_episodes = r.u64();
    report.nm.ring_repairs = r.u64();
    report.nm.nm_frames_sent = r.u64();
    report.completed = r.b();
    report.failure_reason = r.str();
    if (!r.done()) return false;

    // Everything parsed; commit.
    restored_capture_ = std::move(cap);
    video_ = std::move(video);
    obd_video_ = std::move(obd_video);
    obd_phase_end_ = obd_phase_end;
    sessions_ = std::move(sessions);
    collected_ = collected;
    ocr_->restore(rng_state, engine_stats);
    mid_ = std::move(mid);
    report_ = std::move(report);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace dpr::core
