#include "diagtool/tool.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "kwp/formulas.hpp"
#include "nm/nm.hpp"
#include "obd/pid.hpp"
#include "util/ecu_session.hpp"
#include "vwtp/channel.hpp"

namespace dpr::diagtool {

namespace {

/// The tester's NM node address and its proactive wakeup cadence.
constexpr std::uint8_t kNmAddress = 0x3E;
constexpr util::SimTime kWakeupPeriod = util::kSecond;

/// Supervision rides the server timings: a keepalive every half S3
/// period, and a quarter boot window (at least 50 ms) between liveness
/// probes, so kMaxRecoveryProbes probes span two full boot windows.
constexpr util::SimTime kKeepalivePeriod = util::kS3Timeout / 2;
constexpr util::SimTime kRecoveryBackoff =
    std::max<util::SimTime>(50 * util::kMillisecond, util::kResetBootTime / 4);
constexpr int kMaxRecoveryProbes = 8;

// Magnitude-aware formatting, as real tools render live values: small
// quantities (lambda voltages) get more decimals than large ones (RPM).
std::string fixed1(double v) {
  char buf[32];
  const double magnitude = std::abs(v);
  if (magnitude < 10.0) {
    std::snprintf(buf, sizeof buf, "%.2f", v);
  } else if (magnitude < 1000.0) {
    std::snprintf(buf, sizeof buf, "%.1f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  }
  return buf;
}

}  // namespace

DiagnosticTool::DiagnosticTool(ToolProfile profile,
                               vehicle::Vehicle& vehicle, can::CanBus& bus,
                               util::SimClock& clock,
                               util::TransactPolicy policy)
    : profile_(std::move(profile)),
      vehicle_(vehicle),
      bus_(bus),
      clock_(clock),
      policy_(policy) {
  build_screen();
}

util::TransactStats DiagnosticTool::transact_stats() const {
  util::TransactStats total;
  for (const auto& [index, conn] : connections_) {
    if (conn.uds) total += conn.uds->stats();
    if (conn.kwp) total += conn.kwp->stats();
  }
  if (obd_client_) total += obd_client_->stats();
  return total;
}

void DiagnosticTool::record_failure(bool is_kwp, std::uint16_t id) {
  ++failed_reads_[{is_kwp, id}];
}

void DiagnosticTool::send_keepalives() {
  // Suppressed TesterPresent (no response expected) keeps the server's
  // activity timer fresh without adding response traffic to the capture.
  for (auto& [index, conn] : connections_) {
    if (conn.uds) {
      conn.uds->tester_present(/*suppress=*/true);
      ++session_stats_.keepalives;
    } else if (conn.kwp) {
      conn.kwp->tester_present(/*suppress=*/true);
      ++session_stats_.keepalives;
    }
  }
}

bool DiagnosticTool::probe_alive(const std::function<bool()>& probe) {
  // A rebooting ECU is bus-silent for its boot window; back off between
  // probes.
  for (int attempt = 0; attempt < kMaxRecoveryProbes; ++attempt) {
    clock_.advance(kRecoveryBackoff);
    if (probe()) return true;
  }
  return false;
}

bool DiagnosticTool::recover_session(std::size_t ecu_index) {
  auto& conn = connection(ecu_index);
  const bool had_session = conn.session_started;
  conn.session_started = false;  // reset/expiry wiped the server side
  const bool alive =
      conn.uds ? probe_alive([&] { return conn.uds->tester_present(false); })
               : probe_alive([&] { return conn.kwp->tester_present(false); });
  if (!alive) return false;
  if (had_session) {
    conn.session_started =
        conn.uds ? conn.uds->start_session(0x03)
                 : conn.kwp->start_session(0x89);
    return conn.session_started;
  }
  return true;
}

template <typename Op, typename Recover>
auto DiagnosticTool::with_recovery(Op op, Recover recover) {
  auto result = op();
  if (!result && recover_from_sleep()) {
    result = op();
    if (result) ++session_stats_.sleep_recoveries;
  }
  if (!result && supervised_) {
    // Retries already ran their course inside the client, so a dead
    // request means a lost session (reset boot window / S3 expiry), not
    // wire noise. Recover the session and replay the request once.
    ++session_stats_.sessions_lost;
    if (recover()) {
      ++session_stats_.reissued_requests;
      result = op();
    }
    if (result) {
      ++session_stats_.sessions_restored;
    } else {
      ++session_stats_.recovery_failures;
    }
  }
  return result;
}

void DiagnosticTool::enable_nm() {
  nm_enabled_ = true;
  next_wakeup_at_ = 0;
  sleep_lost_mark_ = bus_.frames_lost_to_sleep();
}

void DiagnosticTool::settle(util::SimTime duration) {
  if (!bus_.lifecycle_enabled()) {
    clock_.advance(duration);
    return;
  }
  // With NM armed the ring must keep circulating while the component
  // actuates, or every active test's settle gap would read as a fake
  // limp-home episode (and the limp counters would stop meaning
  // "a node vanished").
  const util::SimTime deadline = clock_.now() + duration;
  while (clock_.now() < deadline) {
    if (nm_enabled_ && clock_.now() >= next_wakeup_at_) {
      nm::send_wakeup(bus_, kNmAddress);
      next_wakeup_at_ = clock_.now() + kWakeupPeriod;
    }
    clock_.advance(std::min<util::SimTime>(25 * util::kMillisecond,
                                           deadline - clock_.now()));
    bus_.deliver_pending();
  }
  // About to resume talking: if the ring still slept through the gap (an
  // aggressive sleep timeout outruns the wakeup cadence), re-wake the bus
  // now rather than sacrificing the next request to find out.
  if (nm_enabled_ && bus_.asleep()) {
    nm::send_wakeup(bus_, kNmAddress);
    for (int i = 0; i < 4; ++i) {
      clock_.advance(2 * util::kMillisecond);
      bus_.deliver_pending();
    }
  }
}

bool DiagnosticTool::recover_from_sleep() {
  // A transaction that died against a *sleeping* bus is not a lost
  // session: the frames were swallowed before any ECU could see them.
  // Two tells, either sufficient: the bus is asleep right now, or the
  // bus's lost-frame counter moved since we last looked (the bus napped
  // mid-transaction and a cadenced wakeup already brought it back). In
  // both cases re-wake if needed, settle the NM traffic, and let the
  // caller retry the transaction once.
  if (!nm_enabled_) return false;
  const std::uint64_t lost = bus_.frames_lost_to_sleep();
  const bool slept_on_us = bus_.asleep() || lost != sleep_lost_mark_;
  sleep_lost_mark_ = lost;
  if (!slept_on_us) return false;
  ++session_stats_.bus_sleeps;
  if (bus_.asleep()) {
    nm::send_wakeup(bus_, kNmAddress);
    for (int i = 0; i < 4; ++i) {
      clock_.advance(2 * util::kMillisecond);
      bus_.deliver_pending();
    }
    sleep_lost_mark_ = bus_.frames_lost_to_sleep();
  }
  return true;
}

std::size_t DiagnosticTool::selected_rows() const {
  return static_cast<std::size_t>(
      std::count_if(rows_.begin(), rows_.end(),
                    [](const Row& r) { return r.selected; }));
}

DiagnosticTool::Connection& DiagnosticTool::connection(
    std::size_t ecu_index) {
  auto it = connections_.find(ecu_index);
  if (it != connections_.end()) return it->second;

  const auto& ecu_spec = vehicle_.spec().ecus.at(ecu_index);
  const auto transport = vehicle_.spec().transport;
  const bool vwtp = transport == vehicle::TransportKind::kVwTp20;
  if (vwtp) {
    // Emit the channel-setup handshake so the sniffed traffic contains
    // the control frames §3.2 step 1 must screen out.
    bus_.send(vwtp::encode_setup_request(
        ecu_spec.address, can::CanId{ecu_spec.response_id, false}));
    bus_.send(vwtp::encode_setup_response(
        ecu_spec.address, can::CanId{ecu_spec.request_id, false},
        can::CanId{ecu_spec.response_id, false}));
  }
  Connection conn;
  conn.link =
      vehicle::make_link(bus_, transport, ecu_spec, vehicle::LinkSide::kTester);
  if (vwtp) {
    // Channel-parameter negotiation (0xA0 -> peer answers 0xA1).
    bus_.send(can::CanFrame(can::CanId{ecu_spec.request_id, false},
                            util::Bytes{0xA0, 0x0F, 0x8A, 0xFF, 0x32, 0xFF}));
    bus_.deliver_pending();
  }
  auto pump = [this] {
    clock_.advance(2 * util::kMillisecond);  // ECU processing latency
    bus_.deliver_pending();
  };
  if (vehicle_.spec().protocol == vehicle::Protocol::kKwp2000 ||
      vehicle_.spec().io_service == vehicle::IoService::kKwp30) {
    conn.kwp =
        std::make_unique<kwp::Client>(*conn.link, pump, policy_, &clock_);
  }
  if (vehicle_.spec().protocol == vehicle::Protocol::kUds) {
    conn.uds =
        std::make_unique<uds::Client>(*conn.link, pump, policy_, &clock_);
  }
  auto [inserted, ok] = connections_.emplace(ecu_index, std::move(conn));
  return inserted->second;
}

void DiagnosticTool::build_rows(std::size_t ecu_index) {
  rows_.clear();
  const auto& ecu_spec = vehicle_.spec().ecus.at(ecu_index);
  for (const auto& sig : ecu_spec.uds_signals) {
    Row row;
    row.name = sig.name;
    row.unit = sig.unit;
    row.is_enum = sig.formula.is_enum();
    row.is_kwp = false;
    row.ecu_index = ecu_index;
    row.did = sig.did;
    row.data_bytes = sig.data_bytes;
    row.formula = sig.formula;
    rows_.push_back(std::move(row));
  }
  for (const auto& block : ecu_spec.kwp_local_ids) {
    for (std::size_t i = 0; i < block.esvs.size(); ++i) {
      const auto& esv = block.esvs[i];
      Row row;
      row.name = esv.name;
      row.unit = esv.unit;
      row.is_enum = esv.is_enum;
      row.is_kwp = true;
      row.ecu_index = ecu_index;
      row.local_id = block.local_id;
      row.esv_index = i;
      row.kwp_formula_type = esv.formula_type;
      rows_.push_back(std::move(row));
    }
  }
}

std::string DiagnosticTool::format_value(const Row& row,
                                         double physical) const {
  if (row.is_enum) {
    const int state = static_cast<int>(physical);
    if (state == 0) return "OFF";
    if (state == 1) return "ON";
    return "State " + std::to_string(state);
  }
  return fixed1(physical);
}

void DiagnosticTool::note_pending(util::SimTime at) {
  if (next_pending_due_ < 0 || at < next_pending_due_) {
    next_pending_due_ = at;
  }
}

void DiagnosticTool::apply_pending(util::SimTime now) {
  // Watermark fast path: nothing is due yet, so no row can change.
  if (next_pending_due_ < 0 || now < next_pending_due_) return;
  util::SimTime next = -1;
  // A landed value is painted where a rebuild would show it: the live
  // data view has a value text for each selected row of the shown page,
  // the OBD view one for every row. Rows no screen shows just keep it.
  const auto land = [&](auto& rows, Mode shown_in) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      auto& row = rows[i];
      if (row.pending_at < 0) continue;
      if (row.pending_at > now) {
        if (next < 0 || row.pending_at < next) next = row.pending_at;
        continue;
      }
      row.value_text = row.pending_text;
      row.pending_at = -1;
      if (mode_ == shown_in) repaint(i, row.value_text);
    }
  };
  land(rows_, Mode::kDataLive);
  land(obd_rows_, Mode::kObdLive);
  next_pending_due_ = next;
}

void DiagnosticTool::repaint(std::size_t row, const std::string& text) {
  for (Widget& widget : screen_.widgets) {
    if (widget.kind != Widget::Kind::kValueText ||
        widget.row != static_cast<int>(row)) {
      continue;
    }
    if (widget.text != text) {
      widget.text = text;
      ++screen_version_;
    }
    return;
  }
}

void DiagnosticTool::poll_live_rows() {
  const util::SimTime lag = static_cast<util::SimTime>(
      profile_.ui_lag_s * static_cast<double>(util::kSecond));

  // Collect the selected rows of the current ECU.
  std::vector<Row*> live;
  for (auto& row : rows_) {
    if (row.selected) live.push_back(&row);
  }
  if (live.empty()) return;
  auto& conn = connection(current_ecu_);

  // UDS rows: short (1-byte) signals are read individually — request and
  // response both fit single frames — while wider signals are batched two
  // DIDs per 0x22 request, whose response spans multiple frames. This is
  // the traffic mix Table 9 measures.
  const auto& ecu_spec = vehicle_.spec().ecus.at(current_ecu_);
  auto length_of = [&ecu_spec](uds::Did did) -> std::optional<std::size_t> {
    for (const auto& sig : ecu_spec.uds_signals) {
      if (sig.did == did) return sig.data_bytes;
    }
    return std::nullopt;
  };
  auto read_batch = [&](std::span<Row* const> rows) {
    if (rows.empty()) return;
    std::vector<uds::Did> dids;
    for (Row* row : rows) dids.push_back(row->did);
    const auto records = with_recovery(
        [&] { return conn.uds->read_data(dids, length_of); },
        [&] { return recover_session(current_ecu_); });
    if (!records) {
      for (uds::Did did : dids) record_failure(false, did);
      return;
    }
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const double physical = rows[k]->formula.eval((*records)[k].data);
      rows[k]->pending_text = format_value(*rows[k], physical);
      rows[k]->pending_at = clock_.now() + lag;
      note_pending(rows[k]->pending_at);
    }
  };
  // Reads happen strictly in row order (the §3.4 association relies on
  // it). Short (1-byte) signals go out as their own single-frame
  // requests; *adjacent* wide signals are batched two per 0x22 request,
  // yielding the multi-frame responses Table 9 measures.
  std::vector<Row*> batch;
  for (Row* row : live) {
    if (row->is_kwp) continue;
    if (row->data_bytes <= 1) {
      read_batch(batch);
      batch.clear();
      read_batch(std::span<Row* const>(&row, 1));
      continue;
    }
    batch.push_back(row);
    if (batch.size() == 2) {
      read_batch(batch);
      batch.clear();
    }
  }
  read_batch(batch);

  // KWP rows: a periodic identification refresh (real VAG tools keep the
  // ECU header data current), then one 0x21 request per local id.
  ++poll_counter_;
  if (conn.kwp && poll_counter_ % 6 == 0) {
    bool any_kwp = false;
    for (Row* row : live) any_kwp |= row->is_kwp;
    if (any_kwp) {
      conn.kwp->transact(util::Bytes{kwp::kReadEcuIdentification, 0x9B});
    }
  }
  std::vector<std::uint8_t> local_ids;
  for (Row* row : live) {
    if (row->is_kwp &&
        std::find(local_ids.begin(), local_ids.end(), row->local_id) ==
            local_ids.end()) {
      local_ids.push_back(row->local_id);
    }
  }
  for (std::uint8_t local_id : local_ids) {
    const auto resp = with_recovery(
        [&] { return conn.kwp->read_local_id(local_id); },
        [&] { return recover_session(current_ecu_); });
    if (!resp) {
      record_failure(true, local_id);
      continue;
    }
    for (Row* row : live) {
      if (!row->is_kwp || row->local_id != local_id) continue;
      if (row->esv_index >= resp->records.size()) continue;
      const auto& rec = resp->records[row->esv_index];
      std::string text;
      if (row->is_enum) {
        text = rec.x1 == 0 ? "OFF" : "ON";
      } else if (const auto value =
                     kwp::decode_esv(rec.formula_type, rec.x0, rec.x1)) {
        text = fixed1(*value);
      } else {
        text = "--";
      }
      row->pending_text = std::move(text);
      row->pending_at = clock_.now() + lag;
      note_pending(row->pending_at);
    }
  }
}

void DiagnosticTool::poll_obd() {
  if (!obd_link_) {
    obd_link_ = std::make_unique<isotp::Endpoint>(
        bus_, isotp::EndpointConfig{can::CanId{0x7DF, false},
                                    can::CanId{0x7E8, false}});
    obd_client_ = std::make_unique<uds::Client>(
        *obd_link_,
        [this] {
          clock_.advance(2 * util::kMillisecond);
          bus_.deliver_pending();
        },
        policy_, &clock_);
  }
  const util::SimTime lag = static_cast<util::SimTime>(
      profile_.ui_lag_s * static_cast<double>(util::kSecond));
  for (auto& row : obd_rows_) {
    // The functional id has no session to re-enter: recovery only probes.
    const auto resp = with_recovery(
        [&] { return obd_client_->transact(obd::encode_request(row.pid)); },
        [&] {
          return probe_alive(
              [this] { return obd_client_->tester_present(false); });
        });
    if (!resp) {
      // Mode-01 PIDs mirror to DID 0xF400+pid in ISO 14229 terms.
      record_failure(false, static_cast<std::uint16_t>(0xF400 + row.pid));
      continue;
    }
    if (const auto value = obd::decode_value(*resp)) {
      row.pending_text = fixed1(*value);
      row.pending_at = clock_.now() + lag;
      note_pending(row.pending_at);
    }
  }
}

void DiagnosticTool::run_active_test(std::size_t ecu_index,
                                     std::size_t actuator_index) {
  const auto& ecu_spec = vehicle_.spec().ecus.at(ecu_index);
  const auto& act = ecu_spec.actuators.at(actuator_index);
  auto& conn = connection(ecu_index);

  auto attempt = [&]() -> bool {
    bool ok = false;
    if (vehicle_.spec().io_service == vehicle::IoService::kUds2F) {
      if (!conn.session_started) {
        conn.session_started = conn.uds->start_session(0x03);
      }
      // The three-message pattern of §4.5: freeze, adjust, return.
      ok = conn.uds
               ->io_control(act.id,
                            uds::IoControlParameter::kFreezeCurrentState)
               .has_value();
      ok = ok &&
           conn.uds
               ->io_control(act.id,
                            uds::IoControlParameter::kShortTermAdjustment,
                            act.example_state)
               .has_value();
      settle(1 * util::kSecond);  // let the component actuate
      ok = ok &&
           conn.uds
               ->io_control(act.id,
                            uds::IoControlParameter::kReturnControlToEcu)
               .has_value();
    } else {
      if (!conn.session_started) {
        // UDS vehicles that expose the local-identifier IO service still
        // use UDS session management; pure KWP vehicles use 0x10 0x89.
        conn.session_started =
            vehicle_.spec().protocol == vehicle::Protocol::kUds
                ? conn.uds->start_session(0x03)
                : conn.kwp->start_session(0x89);
      }
      const auto local_id = static_cast<std::uint8_t>(act.id);
      util::Bytes freeze{0x02};
      ok = conn.kwp->io_control_local(local_id, freeze).has_value();
      util::Bytes adjust{0x03};
      adjust.insert(adjust.end(), act.example_state.begin(),
                    act.example_state.end());
      ok = ok && conn.kwp->io_control_local(local_id, adjust).has_value();
      settle(1 * util::kSecond);
      util::Bytes ret{0x00};
      ok = ok && conn.kwp->io_control_local(local_id, ret).has_value();
    }
    return ok;
  };
  // A broken three-message sequence leaves the actuator in an unknown
  // state; after a recovery the whole procedure is replayed from the
  // freeze step, exactly as a human operator would.
  const bool ok =
      with_recovery(attempt, [&] { return recover_session(ecu_index); });
  if (!ok) {
    record_failure(vehicle_.spec().io_service != vehicle::IoService::kUds2F,
                   act.id);
  }
  status_text_ = std::string(ok ? "Test OK: " : "Test FAILED: ") + act.name;
}

namespace {

// SAE-style rendering of a DTC: the top two bits of the first byte pick
// the system letter (P/C/B/U), the rest are hex digits.
std::string dtc_to_string(std::uint32_t code, int bytes) {
  static constexpr char kSystems[] = {'P', 'C', 'B', 'U'};
  const std::uint32_t top = bytes == 3 ? (code >> 16) : (code >> 8);
  char buf[16];
  std::snprintf(buf, sizeof buf, "%c%04X", kSystems[(top >> 6) & 0x3],
                code & (bytes == 3 ? 0x3FFFFF : 0x3FFF));
  return buf;
}

}  // namespace

void DiagnosticTool::read_trouble_codes(std::size_t ecu_index) {
  auto& conn = connection(ecu_index);
  dtc_texts_.clear();
  if (vehicle_.spec().protocol == vehicle::Protocol::kUds) {
    const auto resp = conn.uds->transact(util::Bytes{0x19, 0x02, 0xFF});
    if (resp && !resp->empty() && (*resp)[0] == 0x59) {
      for (std::size_t i = 3; i + 3 < resp->size(); i += 4) {
        const std::uint32_t code = (static_cast<std::uint32_t>((*resp)[i])
                                    << 16) |
                                   ((*resp)[i + 1] << 8) | (*resp)[i + 2];
        dtc_texts_.push_back(dtc_to_string(code, 3) + "  status " +
                             util::to_hex({&(*resp)[i + 3], 1}));
      }
    }
  } else {
    const auto resp =
        conn.kwp->transact(util::Bytes{0x18, 0x00, 0xFF, 0x00});
    if (resp && resp->size() >= 2 && (*resp)[0] == 0x58) {
      for (std::size_t i = 2; i + 2 < resp->size(); i += 3) {
        const std::uint32_t code =
            (static_cast<std::uint32_t>((*resp)[i]) << 8) | (*resp)[i + 1];
        dtc_texts_.push_back(dtc_to_string(code, 2) + "  status " +
                             util::to_hex({&(*resp)[i + 2], 1}));
      }
    }
  }
  if (dtc_texts_.empty()) dtc_texts_.push_back("No trouble codes stored");
  mode_ = Mode::kDtcList;
}

void DiagnosticTool::clear_trouble_codes(std::size_t ecu_index) {
  auto& conn = connection(ecu_index);
  bool ok = false;
  if (vehicle_.spec().protocol == vehicle::Protocol::kUds) {
    const auto resp =
        conn.uds->transact(util::Bytes{0x14, 0xFF, 0xFF, 0xFF});
    ok = resp && !resp->empty() && (*resp)[0] == 0x54;
  } else {
    const auto resp = conn.kwp->transact(util::Bytes{0x14, 0xFF, 0x00});
    ok = resp && !resp->empty() && (*resp)[0] == 0x54;
  }
  status_text_ = ok ? "Trouble codes cleared" : "Clear FAILED";
}

void DiagnosticTool::run_for(util::SimTime duration) {
  const auto poll = static_cast<util::SimTime>(
      profile_.poll_period_s * static_cast<double>(util::kSecond));
  const util::SimTime deadline = clock_.now() + duration;
  // Fine-grained stepping: polls fire on their own cadence, and pending
  // UI repaints land at their exact due time (the camera must be able to
  // observe the screen *between* polls, or every frame would show the
  // previous poll's values).
  constexpr util::SimTime kStep = 25 * util::kMillisecond;
  while (clock_.now() < deadline) {
    if (nm_enabled_ && clock_.now() >= next_wakeup_at_) {
      // Proactive wakeup cadence: bounds the length of any sleep window
      // even when no diagnostic traffic is pending.
      nm::send_wakeup(bus_, kNmAddress);
      next_wakeup_at_ = clock_.now() + kWakeupPeriod;
    }
    if (supervised_ && clock_.now() >= next_keepalive_at_) {
      send_keepalives();
      next_keepalive_at_ = clock_.now() + kKeepalivePeriod;
    }
    if (clock_.now() >= next_poll_at_) {
      if (mode_ == Mode::kDataLive) {
        poll_live_rows();
      } else if (mode_ == Mode::kObdLive) {
        poll_obd();
      }
      next_poll_at_ = clock_.now() + poll;
    }
    const util::SimTime step =
        std::min<util::SimTime>(kStep, deadline - clock_.now());
    clock_.advance(step);
    // When a bus lifecycle is armed the NM state machines only advance
    // inside deliver_pending(); pump it every step so ring timers fire
    // even while the tool itself is idle. Gated on the *bus*, not the
    // tool's own NM participation: an NM-oblivious tool on an NM vehicle
    // must still let the ECUs ring (and fall asleep underneath it).
    if (bus_.lifecycle_enabled()) bus_.deliver_pending();
    // Inside this loop the only state the screen shows that can change is
    // a value landing (clicks and mode changes rebuild on their own), and
    // apply_pending paints each one into its value text in place.
    apply_pending(clock_.now());
  }
}

bool DiagnosticTool::click(int x, int y) {
  const Widget* widget = screen_.hit_test(x, y);
  if (widget == nullptr) return false;
  const std::string& action = widget->action;

  if (action == "menu:diagnostics") {
    mode_ = Mode::kEcuList;
  } else if (action == "menu:obd") {
    obd_rows_.clear();
    // The well-documented PIDs a telematics-style OBD view shows.
    for (const auto& spec : obd::pid_table()) {
      obd_rows_.push_back(ObdRow{spec.pid, spec.name, "--", "", -1});
      if (obd_rows_.size() >= kRowsPerPage) break;
    }
    mode_ = Mode::kObdLive;
  } else if (action.rfind("ecu:", 0) == 0) {
    enter_ecu(static_cast<std::size_t>(std::stoul(action.substr(4))));
  } else if (action == "ecu_menu:data") {
    build_rows(current_ecu_);
    page_ = 0;
    mode_ = Mode::kDataSelect;
  } else if (action == "ecu_menu:active") {
    mode_ = Mode::kActiveTest;
  } else if (action == "ecu_menu:read_dtc") {
    read_trouble_codes(current_ecu_);
  } else if (action == "ecu_menu:clear_dtc") {
    clear_trouble_codes(current_ecu_);
  } else if (action.rfind("row:", 0) == 0) {
    const auto index = static_cast<std::size_t>(std::stoul(action.substr(4)));
    if (index < rows_.size()) rows_[index].selected = !rows_[index].selected;
  } else if (action == "page:next") {
    if ((page_ + 1) * kRowsPerPage < rows_.size()) ++page_;
  } else if (action == "page:prev") {
    if (page_ > 0) --page_;
  } else if (action == "start") {
    mode_ = Mode::kDataLive;
  } else if (action == "stop") {
    mode_ = Mode::kDataSelect;
  } else if (action.rfind("act:", 0) == 0) {
    run_active_test(current_ecu_,
                    static_cast<std::size_t>(std::stoul(action.substr(4))));
  } else if (action == "back") {
    switch (mode_) {
      case Mode::kEcuList:
      case Mode::kObdLive:
        mode_ = Mode::kMainMenu;
        break;
      case Mode::kEcuMenu:
        mode_ = Mode::kEcuList;
        break;
      case Mode::kDataSelect:
      case Mode::kActiveTest:
      case Mode::kDtcList:
        mode_ = Mode::kEcuMenu;
        break;
      case Mode::kDataLive:
        mode_ = Mode::kDataSelect;
        break;
      default:
        break;
    }
  }
  build_screen();
  return true;
}

void DiagnosticTool::enter_ecu(std::size_t index) {
  current_ecu_ = index;
  mode_ = Mode::kEcuMenu;
  connection(index);  // open the transport (handshake traffic, if any)
}

void DiagnosticTool::build_screen() {
  Screen s;
  s.width = profile_.screen_width;
  s.height = profile_.screen_height;

  const int margin = s.width / 24;
  const int button_h = s.height / 14;
  auto add_title = [&](const std::string& text) {
    s.title = text;
    s.widgets.push_back(Widget{Widget::Kind::kLabel, text,
                               Rect{margin, 10, s.width - 2 * margin, 40},
                               "", "", -1});
  };
  auto add_button = [&](const std::string& text, int index,
                        const std::string& action) {
    s.widgets.push_back(
        Widget{Widget::Kind::kButton, text,
               Rect{margin, 70 + (button_h + 12) * index,
                    s.width - 2 * margin, button_h},
               action, "", -1});
  };
  auto add_back_icon = [&] {
    // Icon-only button (no text): the UI analyzer must recognize it by
    // widget similarity (§3.1).
    s.widgets.push_back(Widget{Widget::Kind::kIconButton, "",
                               Rect{8, 8, 40, 40}, "back", "back_arrow",
                               -1});
  };

  switch (mode_) {
    case Mode::kMainMenu: {
      add_title(profile_.name + " - " + vehicle_.spec().model);
      add_button("Local Diagnostics", 0, "menu:diagnostics");
      add_button("OBD-II Scan", 1, "menu:obd");
      add_button("Settings", 2, "noop");
      add_button("Software Update", 3, "noop");
      add_button("Data Playback", 4, "noop");
      break;
    }
    case Mode::kEcuList: {
      add_title("Select Control Unit");
      add_back_icon();
      const auto& ecus = vehicle_.spec().ecus;
      for (std::size_t i = 0; i < ecus.size(); ++i) {
        add_button(ecus[i].name, static_cast<int>(i),
                   "ecu:" + std::to_string(i));
      }
      break;
    }
    case Mode::kEcuMenu: {
      add_title(vehicle_.spec().ecus.at(current_ecu_).name);
      add_back_icon();
      add_button("Read Data Stream", 0, "ecu_menu:data");
      add_button("Active Test", 1, "ecu_menu:active");
      add_button("Read Trouble Codes", 2, "ecu_menu:read_dtc");
      add_button("Clear Trouble Codes", 3, "ecu_menu:clear_dtc");
      if (!status_text_.empty()) {
        s.widgets.push_back(Widget{Widget::Kind::kLabel, status_text_,
                                   Rect{margin, s.height - 60,
                                        s.width - 2 * margin, 40},
                                   "", "", -1});
      }
      break;
    }
    case Mode::kDataSelect:
    case Mode::kDataLive: {
      const bool live = mode_ == Mode::kDataLive;
      add_title(live ? "Data Stream (live)" : "Select Data Stream Items");
      add_back_icon();
      const int row_h = (s.height - 170) / static_cast<int>(kRowsPerPage);
      const std::size_t begin = page_ * kRowsPerPage;
      const std::size_t end =
          std::min(rows_.size(), begin + kRowsPerPage);
      for (std::size_t i = begin; i < end; ++i) {
        const auto& row = rows_[i];
        const int ry = 60 + row_h * static_cast<int>(i - begin);
        std::string label = row.name;
        if (!row.unit.empty()) label += " (" + row.unit + ")";
        if (!live) {
          s.widgets.push_back(
              Widget{Widget::Kind::kButton,
                     (row.selected ? "[x] " : "[ ] ") + label,
                     Rect{margin, ry, s.width * 6 / 10, row_h - 4},
                     "row:" + std::to_string(i), "", static_cast<int>(i)});
        } else {
          s.widgets.push_back(Widget{
              Widget::Kind::kLabel, label,
              Rect{margin, ry, s.width * 5 / 10, row_h - 4}, "", "",
              static_cast<int>(i)});
          if (row.selected) {
            s.widgets.push_back(Widget{
                Widget::Kind::kValueText, row.value_text,
                Rect{s.width * 6 / 10, ry, s.width * 2 / 10,
                     profile_.value_font_px},
                "", "", static_cast<int>(i)});
          }
        }
      }
      const int controls_y = s.height - 70;
      s.widgets.push_back(Widget{
          Widget::Kind::kButton, live ? "Stop" : "Start",
          Rect{margin, controls_y, s.width / 5, button_h},
          live ? "stop" : "start", "", -1});
      s.widgets.push_back(Widget{Widget::Kind::kButton, "Prev Page",
                                 Rect{margin + s.width / 4, controls_y,
                                      s.width / 6, button_h},
                                 "page:prev", "", -1});
      s.widgets.push_back(Widget{Widget::Kind::kButton, "Next Page",
                                 Rect{margin + s.width * 5 / 12, controls_y,
                                      s.width / 6, button_h},
                                 "page:next", "", -1});
      break;
    }
    case Mode::kActiveTest: {
      add_title("Active Test - " +
                vehicle_.spec().ecus.at(current_ecu_).name);
      add_back_icon();
      const auto& acts = vehicle_.spec().ecus.at(current_ecu_).actuators;
      for (std::size_t i = 0; i < acts.size(); ++i) {
        add_button(acts[i].name, static_cast<int>(i),
                   "act:" + std::to_string(i));
      }
      if (!status_text_.empty()) {
        s.widgets.push_back(Widget{Widget::Kind::kLabel, status_text_,
                                   Rect{margin, s.height - 60,
                                        s.width - 2 * margin, 40},
                                   "", "", -1});
      }
      break;
    }
    case Mode::kDtcList: {
      add_title("Trouble Codes - " +
                vehicle_.spec().ecus.at(current_ecu_).name);
      add_back_icon();
      const int row_h = 42;
      for (std::size_t i = 0; i < dtc_texts_.size(); ++i) {
        s.widgets.push_back(Widget{
            Widget::Kind::kLabel, dtc_texts_[i],
            Rect{margin, 60 + row_h * static_cast<int>(i),
                 s.width - 2 * margin, row_h - 4},
            "", "", -1});
      }
      break;
    }
    case Mode::kObdLive: {
      add_title("OBD-II Live Data");
      add_back_icon();
      const int row_h = (s.height - 170) / static_cast<int>(kRowsPerPage);
      for (std::size_t i = 0; i < obd_rows_.size(); ++i) {
        const int ry = 60 + row_h * static_cast<int>(i);
        s.widgets.push_back(Widget{Widget::Kind::kLabel, obd_rows_[i].name,
                                   Rect{margin, ry, s.width * 5 / 10,
                                        row_h - 4},
                                   "", "", static_cast<int>(i)});
        s.widgets.push_back(Widget{
            Widget::Kind::kValueText, obd_rows_[i].value_text,
            Rect{s.width * 6 / 10, ry, s.width * 2 / 10,
                 profile_.value_font_px},
            "", "", static_cast<int>(i)});
      }
      break;
    }
  }
  screen_ = std::move(s);
  ++screen_version_;
}

}  // namespace dpr::diagtool
