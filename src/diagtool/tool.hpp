#pragma once
// Simulated professional diagnostic tool (AUTEL 919 / LAUNCH X431 / VCDS /
// Techstream). The tool embeds the manufacturer's proprietary knowledge
// (DID tables, formulas, actuator procedures — taken from the vehicle
// catalog, exactly as a real tool ships with the manufacturer's database)
// and exposes only two surfaces to the outside world:
//   * its UI (a Screen of widgets) — observed by the CPS cameras, and
//   * its CAN traffic — observed by the OBD-port sniffer.
// DP-Reverser reverse engineers the protocol from those two surfaces only.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "can/bus.hpp"
#include "diagtool/profile.hpp"
#include "diagtool/ui.hpp"
#include "isotp/endpoint.hpp"
#include "kwp/client.hpp"
#include "uds/client.hpp"
#include "util/clock.hpp"
#include "util/transact.hpp"
#include "vehicle/vehicle.hpp"

namespace dpr::diagtool {

/// Counters for everything the supervisor did. Deterministic for a fixed
/// (seed, fault config): recovery uses only SimClock time, no RNG.
struct SessionStats {
  std::uint64_t keepalives = 0;         // suppressed TesterPresent sent
  std::uint64_t sessions_lost = 0;      // failed request attributed to loss
  std::uint64_t sessions_restored = 0;  // re-issue succeeded after recovery
  std::uint64_t reissued_requests = 0;  // in-flight requests replayed
  std::uint64_t recovery_failures = 0;  // probe loop or re-issue gave up
  std::uint64_t bus_sleeps = 0;         // failed request found the bus asleep
  std::uint64_t sleep_recoveries = 0;   // retry succeeded after re-waking
};

class DiagnosticTool {
 public:
  /// `policy` governs every protocol client the tool creates; the default
  /// single-shot policy reproduces the legacy lossless-bus behaviour,
  /// campaigns pass TransactPolicy::resilient() when faults are enabled.
  DiagnosticTool(ToolProfile profile, vehicle::Vehicle& vehicle,
                 can::CanBus& bus, util::SimClock& clock,
                 util::TransactPolicy policy = {});

  DiagnosticTool(const DiagnosticTool&) = delete;
  DiagnosticTool& operator=(const DiagnosticTool&) = delete;

  const ToolProfile& profile() const { return profile_; }

  /// The currently displayed screen (camera a / camera b view).
  const Screen& screen() const { return screen_; }

  /// Robotic-clicker entry point: click at pixel coordinates.
  /// Returns true if a widget was hit.
  bool click(int x, int y);

  /// Let simulated time pass while the tool performs its periodic work
  /// (polling ESVs in a live data-stream view).
  void run_for(util::SimTime duration);

  /// Names of the modes, for tests/examples.
  enum class Mode {
    kMainMenu,
    kEcuList,
    kEcuMenu,
    kDataSelect,
    kDataLive,
    kActiveTest,
    kDtcList,
    kObdLive,
  };
  Mode mode() const { return mode_; }

  /// Number of data-stream rows currently selected for live view.
  std::size_t selected_rows() const;

  /// Retry/timeout counters summed over every protocol client the tool
  /// has opened (per-ECU UDS/KWP clients plus the OBD scanner).
  util::TransactStats transact_stats() const;

  /// Identifiers whose reads/controls exhausted all retries, with the
  /// number of failed transactions each. OBD PIDs are keyed under their
  /// ISO 14229 mirror DID 0xF400+pid.
  const std::map<std::pair<bool, std::uint16_t>, std::size_t>&
  failed_reads() const {
    return failed_reads_;
  }

  /// Arm session supervision. A supervised tool behaves like a real scan
  /// tool on a flaky car: it sends suppressed TesterPresent keepalives at
  /// half the ECU's S3 period and, when a request dies (S3 expiry,
  /// spontaneous ECU reset), probes until the ECU answers again, re-enters
  /// the diagnostic session and re-issues the failed request. Campaigns
  /// enable this exactly when stateful faults are configured, so lossless
  /// runs keep their legacy traffic bit-identical.
  void enable_supervision() {
    supervised_ = true;
    next_keepalive_at_ = 0;
  }
  const SessionStats& session_stats() const { return session_stats_; }

  /// Arm NM participation when the vehicle runs an OSEK NM ring. The tool
  /// stays outside the ring: it sends a wakeup frame every second, which
  /// holds up a bus whose sleep timeout is longer, and re-wakes the bus
  /// whenever a transaction dies against it asleep (the recovery
  /// strategy). Campaigns call this exactly when FaultConfig::nm is set,
  /// so NM-off runs keep their traffic bit-identical.
  void enable_nm();

 private:
  /// One displayed signal.
  struct Row {
    std::string name;
    std::string unit;
    bool is_enum = false;
    bool is_kwp = false;
    std::size_t ecu_index = 0;
    uds::Did did = 0;               // UDS source
    std::uint8_t local_id = 0;      // KWP source
    std::size_t esv_index = 0;
    std::size_t data_bytes = 1;
    vehicle::PropFormula formula;   // tool's proprietary decode knowledge
    std::uint8_t kwp_formula_type = 0;
    bool selected = false;
    // Live value, with repaint lag modeling (§4.3 error cause (i)).
    std::string value_text = "--";
    std::string pending_text;
    util::SimTime pending_at = -1;
  };

  struct Connection {
    std::unique_ptr<util::MessageLink> link;
    std::unique_ptr<uds::Client> uds;
    std::unique_ptr<kwp::Client> kwp;
    bool session_started = false;
  };

  void build_screen();
  void enter_ecu(std::size_t index);
  void build_rows(std::size_t ecu_index);
  Connection& connection(std::size_t ecu_index);
  void poll_live_rows();
  /// Land due repaints; returns whether any value text changed (i.e. the
  /// screen needs a rebuild). O(1) when no repaint is due yet, via the
  /// next_pending_due_ watermark.
  bool apply_pending(util::SimTime now);
  /// Fold a newly scheduled repaint time into the watermark.
  void note_pending(util::SimTime at);
  void run_active_test(std::size_t ecu_index, std::size_t actuator_index);
  void read_trouble_codes(std::size_t ecu_index);
  void clear_trouble_codes(std::size_t ecu_index);
  void poll_obd();
  std::string format_value(const Row& row, double physical) const;
  void record_failure(bool is_kwp, std::uint16_t id);
  void send_keepalives();
  /// Run `probe` (a response-required TesterPresent on the connection's
  /// client) until the ECU answers, backing off between attempts
  /// (bounded).
  bool probe_alive(const std::function<bool()>& probe);
  bool recover_session(std::size_t ecu_index);
  /// Run `op` (a transaction or a whole procedure); when it yields
  /// nothing, retry once after a bus sleep, then — supervised — count a
  /// lost session, `recover()` and replay once, keeping SessionStats.
  template <typename Op, typename Recover>
  auto with_recovery(Op op, Recover recover);
  /// True when a dead transaction should be retried because the bus was
  /// found asleep; re-wakes the bus and settles NM traffic first.
  bool recover_from_sleep();
  /// Advance sim time; with a bus lifecycle armed, in small pumped steps
  /// so the NM ring keeps circulating across the gap.
  void settle(util::SimTime duration);

  ToolProfile profile_;
  vehicle::Vehicle& vehicle_;
  can::CanBus& bus_;
  util::SimClock& clock_;
  util::TransactPolicy policy_;
  std::map<std::pair<bool, std::uint16_t>, std::size_t> failed_reads_;
  bool supervised_ = false;
  SessionStats session_stats_;
  util::SimTime next_keepalive_at_ = 0;

  // NM participation (enable_nm).
  bool nm_enabled_ = false;
  util::SimTime next_wakeup_at_ = 0;
  std::uint64_t sleep_lost_mark_ = 0;    // bus frames_lost_to_sleep() watermark

  Mode mode_ = Mode::kMainMenu;
  /// Earliest pending_at across rows_ and obd_rows_, or -1 when none is
  /// scheduled. May be conservative (too early) after rows are rebuilt —
  /// apply_pending then scans once, finds nothing due, and re-tightens.
  util::SimTime next_pending_due_ = -1;
  util::SimTime next_poll_at_ = 0;
  std::size_t poll_counter_ = 0;
  Screen screen_;
  std::size_t current_ecu_ = 0;
  std::size_t page_ = 0;
  std::vector<Row> rows_;
  std::vector<std::string> dtc_texts_;
  std::string status_text_;
  std::map<std::size_t, Connection> connections_;

  // OBD live view state (main-menu "OBD-II Scan").
  struct ObdRow {
    std::uint8_t pid = 0;
    std::string name;
    std::string value_text = "--";
    std::string pending_text;
    util::SimTime pending_at = -1;
  };
  std::vector<ObdRow> obd_rows_;
  std::unique_ptr<isotp::Endpoint> obd_link_;
  std::unique_ptr<uds::Client> obd_client_;  // reused as raw transport

  static constexpr std::size_t kRowsPerPage = 14;
};

}  // namespace dpr::diagtool
