#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/state.hpp"
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
    tool_->enable_nm(nm_->config());
  }
  if (options_.faults.stateful()) {
    // Stateful failures (ECU reboots, S3 expiry) survive the client's
    // retry loop; only the session supervisor can ride them out.
    tool_->enable_supervision(diagtool::SupervisorConfig{
        /*keepalive_period_s=*/
        0.5 * static_cast<double>(options_.faults.s3_timeout) /
            static_cast<double>(util::kSecond),
        // 8 probes x boot/4 = two full boot windows of patience.
        /*boot_backoff_s=*/
        std::max(0.05,
                 0.25 * static_cast<double>(options_.faults.reset_boot_time) /
                     static_cast<double>(util::kSecond))});
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
    const auto recovered = [](const regress::RelativeError& error) {
      return error.mean < kEquivalenceTolerance &&
             error.max < kMaxPointTolerance;
    };
    if (finding.gp) {
      finding.gp_correct = recovered(
          gp::relative_error(*finding.gp, finding.dataset, truth));
    }
    if (finding.linear) {
      finding.linear_correct = recovered(
          regress::relative_error(*finding.linear, finding.dataset, truth));
    }
    if (finding.polynomial) {
      finding.polynomial_correct = recovered(regress::relative_error(
          *finding.polynomial, finding.dataset, truth));
    }
  }

  for (auto& finding : report_.ecrs) {
    finding.matches_truth = actuator_ids.count(finding.id) > 0;
  }
}

// --- Checkpoint serialization ----------------------------------------------
// The payload is the full union of everything a later phase could need;
// core/state.hpp lists its fields.

util::Bytes Campaign::serialize_state() const {
  state::Writer w;
  w(state::PayloadView{.capture = capture(),
                       .video = video_,
                       .obd_video = obd_video_,
                       .obd_phase_end = obd_phase_end_,
                       .sessions = sessions_,
                       .collected = collected_,
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
  restored_capture_ = std::move(p.capture);
  video_ = std::move(p.video);
  obd_video_ = std::move(p.obd_video);
  obd_phase_end_ = p.obd_phase_end;
  sessions_ = std::move(p.sessions);
  collected_ = p.collected;
  ocr_->restore(p.ocr_rng, p.ocr_stats);
  mid_ = std::move(p.mid);
  report_ = std::move(p.report);
  return true;
}

}  // namespace dpr::core
