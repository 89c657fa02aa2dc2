#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/state.hpp"
#include "core/truth.hpp"
#include "gp/batch.hpp"
#include "util/crash.hpp"
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

// The rig's clocks (§9.4): camera b runs 180 ms ahead of global time and
// drifts 40 ppm, and the sniffer's laptop runs 25 ms behind. Camera a,
// which only steers the clicker, keeps global time.
constexpr util::SimTime kCameraClockOffset = 180 * util::kMillisecond;
constexpr double kCameraClockDriftPpm = 40.0;
constexpr util::SimTime kSnifferClockOffset = -25 * util::kMillisecond;

/// Moves a product that no later phase reads out of the checkpointed
/// state, so the checkpoints after this phase do not carry it. `retired`
/// keeps it until the campaign is destroyed and frees everything at
/// once, so retiring adds no frees to run().
template <class T>
void retire(T& product, T& retired) {
  retired = std::exchange(product, T());
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
    tool_->enable_nm();
  }
  if (options_.faults.stateful()) {
    // Stateful failures (ECU reboots, S3 expiry) survive the client's
    // retry loop; only the session supervisor can ride them out.
    tool_->enable_supervision();
  }
  sniffer_ = std::make_unique<can::Sniffer>(
      *bus_, util::DeviceClock(kSnifferClockOffset, /*drift_ppm=*/0.0));

  util::Rng rng(options_.seed ^ 0xCB5);
  ocr_ = std::make_unique<cps::OcrEngine>(rng.fork(), options_.ocr_noise,
                                          options_.ocr_rate_scale);
  analyzer_ = std::make_unique<cps::UiAnalyzer>(*ocr_, rng.fork());
  clicker_ = std::make_unique<cps::RoboticClicker>(clock_);

  const util::DeviceClock camera_clock(kCameraClockOffset,
                                       kCameraClockDriftPpm);
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
    obs_.video.frames.push_back(camera_b_->capture(clock_.now()));
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
    obs_.obd_video.frames.push_back(camera_b_->capture(clock_.now()));
  }
  click_back();
  obs_.obd_phase_end = clock_.now();
}

void Campaign::collect_ecu(std::size_t index) {
  EcuVisit visit;
  visit.ecu_index = index;

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
  visit.live_begin = clock_.now();
  record_live(options_.live_window);
  visit.live_end = clock_.now();
  click_button("Stop");
  click_back();  // back to the ECU menu

  // --- Active Test ----------------------------------------------------------
  if (!vehicle_->spec().ecus.at(index).actuators.empty()) {
    if (click_button("Active Test")) {
      visit.active_begin = clock_.now();
      const auto shot = camera_a_->capture(clock_.now());
      // Every text button on the active-test screen is a component.
      for (const auto& widget : analyzer_->recognize(shot)) {
        if (!widget.clickable) continue;
        visit.actuator_names.push_back(widget.text);
        clicker_->move_and_click(widget.center.x, widget.center.y);
        tool_->click(widget.center.x, widget.center.y);
        tool_->run_for(500 * util::kMillisecond);
      }
      visit.active_end = clock_.now();
      click_back();
    }
  }
  click_back();  // back to the ECU list
  obs_.visits.push_back(std::move(visit));
}

void Campaign::collect() { phase_collect(); }

void Campaign::phase_collect() {
  {
    PhaseTimer timer(report_.phases.collect_s);
    collect_obd_phase();

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
  obs_.capture = sniffer_->take();
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
  return state::options_digest(options_);
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
        const char* refused =
            loaded->phase >= kNumPhases       ? "phase index out of range"
            : !restore_state(loaded->payload) ? "payload failed to restore"
                                              : nullptr;
        if (!refused) {
          first = loaded->phase + 1;
        } else {
          // Structurally valid container, unusable content: move the file
          // out of the way and re-run from scratch — the phases it
          // covered simply run again; the car is never failed over it.
          store->quarantine_key(car, options_.seed, digest, refused);
          ++report_.ckpt_quarantined;
          util::LogLine(util::LogLevel::kWarning, "ckpt")
              << report_.car_label << ": resume fell back to fresh ("
              << refused << ", file quarantined)";
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
  const auto hint = vehicle_->spec().transport;
  report_.census = frames::census(obs_.capture, hint);
  mid_.messages = frames::assemble(obs_.capture, hint);
  report_.messages_assembled = mid_.messages.size();
}

void Campaign::phase_ocr_extract() {
  PhaseTimer timer(report_.phases.ocr_extract_s);
  if (obs_.obd_phase_end > 0) {
    mid_.obd_samples = screenshot::extract_samples(obs_.obd_video, *ocr_);
  }
  mid_.samples = screenshot::extract_samples(obs_.video, *ocr_);
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
    mid_.associations = associate(obs_.visits, mid_.extraction, mid_.samples);
  }
  PhaseTimer timer(report_.phases.align_s);
  const auto alignment = align(obs_.obd_phase_end, mid_.messages,
                               mid_.obd_samples, mid_.associations);
  report_.alignment_offset = alignment.offset;
  report_.alignment_anchors = alignment.matched;
  retire(mid_.messages, retired_.messages);
  retire(mid_.samples, retired_.samples);
  retire(mid_.obd_samples, retired_.obd_samples);
}

void Campaign::phase_associate() {
  PhaseTimer timer(report_.phases.associate_s);
  report_.signals =
      signal_findings(mid_.associations, report_.alignment_offset);
  retire(mid_.associations, retired_.associations);
  report_.ecrs = ecr_findings(obs_.visits, mid_.extraction);
  retire(mid_.extraction, retired_.extraction);
}

void Campaign::phase_infer() {
  PhaseTimer timer(report_.phases.infer_s);
  if (!options_.run_inference) return;

  // Each non-enum signal is an independent (vehicle, DID) inference
  // problem: fan them out over a thread pool. Seeds are derived per
  // signal exactly as the serial loop did, so the batch results are
  // identical regardless of thread count.
  std::vector<gp::BatchJob> jobs;
  std::vector<SignalFinding*> targets;
  for (auto& finding : report_.signals) {
    if (finding.is_enum) continue;
    gp::BatchJob job;
    job.dataset = &finding.dataset;
    job.config = options_.gp;
    // The phase watchdog lets a deadline wind the GP loops down promptly;
    // an unarmed watchdog never expires, so plain runs are unaffected.
    // run() arms it before this fan-out and disarms it after.
    job.config.cancel = &watchdog_;
    job.config.seed ^= (static_cast<std::uint64_t>(finding.did) << 16) ^
                       finding.local_id ^ (finding.esv_index << 8);
    jobs.push_back(job);
    targets.push_back(&finding);
  }
  // A fleet-injected pool wins over the local thread knob: the whole
  // machine then runs on one shared budget, with this batch's jobs
  // interleaved among the other campaigns' work.
  std::optional<util::ThreadPool> own_pool;
  util::ThreadPool* pool = options_.infer_pool;
  if (pool == nullptr && jobs.size() > 1 &&
      util::ThreadPool::resolve(options_.infer_threads) > 1) {
    pool = &own_pool.emplace(options_.infer_threads);
  }
  auto results = gp::infer_batch(jobs, pool);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i]->gp = std::move(results[i]);
    if (options_.run_baselines) {
      targets[i]->linear = regress::fit_linear(targets[i]->dataset);
      targets[i]->polynomial = regress::fit_polynomial(targets[i]->dataset);
    }
  }
}

void Campaign::phase_score() {
  PhaseTimer timer(report_.phases.score_s);
  score_findings();
}

void Campaign::score_findings() {
  const GroundTruth truths(vehicle_->spec());
  for (auto& finding : report_.signals) {
    const auto truth = truths.signal(finding);
    if (!truth) continue;
    finding.truth_is_enum = truth->is_enum;
    finding.truth_formula = truth->formula;
    if (finding.is_enum ||
        !(finding.gp || finding.linear || finding.polynomial)) {
      continue;
    }
    // The truth at each point, evaluated once for the three fits.
    const auto expected = regress::evaluate(truth->eval, finding.dataset);
    if (finding.gp) {
      finding.gp_correct = recovered(
          gp::relative_error(*finding.gp, finding.dataset, expected));
    }
    if (finding.linear) {
      finding.linear_correct = recovered(regress::relative_error(
          *finding.linear, finding.dataset, expected));
    }
    if (finding.polynomial) {
      finding.polynomial_correct = recovered(regress::relative_error(
          *finding.polynomial, finding.dataset, expected));
    }
  }

  for (auto& finding : report_.ecrs) {
    finding.matches_truth = truths.has_actuator(finding.id);
  }
}

// --- Checkpoint serialization ----------------------------------------------
// The payload is what collect observed, the OCR engine's state, the
// report so far and the intermediates a later phase still reads: each
// phase retires those no later phase reads, so the checkpoints after
// associate carry none. core/state.hpp lists its fields.

util::Bytes Campaign::serialize_state() const {
  state::Writer w;
  w(state::PayloadView{.observations = obs_,
                       .ocr_rng = ocr_->rng_state(),
                       .ocr_stats = ocr_->stats(),
                       .mid = mid_,
                       .report = report_});
  return w.take();
}

bool Campaign::restore_state(const util::Bytes& payload) {
  state::Payload p;
  try {
    state::Reader r(payload);
    r(p);
    if (!r.done()) return false;
  } catch (const std::exception&) {
    return false;
  }
  // Everything parsed; commit.
  obs_ = std::move(p.observations);
  ocr_->restore(p.ocr_rng, p.ocr_stats);
  mid_ = std::move(p.mid);
  report_ = std::move(p.report);
  return true;
}

}  // namespace dpr::core
