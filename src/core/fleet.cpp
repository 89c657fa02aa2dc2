#include "core/fleet.hpp"

#include <chrono>
#include <exception>
#include <sstream>
#include <string>

#include "core/checkpoint.hpp"
#include "util/thread_pool.hpp"

namespace dpr::core {

namespace {

std::size_t sum_over(const std::vector<CampaignReport>& reports,
                     std::size_t (CampaignReport::*fn)() const) {
  std::size_t total = 0;
  for (const auto& report : reports) total += (report.*fn)();
  return total;
}

}  // namespace

std::size_t FleetSummary::total_signals() const {
  std::size_t total = 0;
  for (const auto& report : reports) total += report.signals.size();
  return total;
}

std::size_t FleetSummary::total_formula_signals() const {
  return sum_over(reports, &CampaignReport::formula_signals);
}

std::size_t FleetSummary::total_enum_signals() const {
  return sum_over(reports, &CampaignReport::enum_signals);
}

std::size_t FleetSummary::total_gp_correct() const {
  return sum_over(reports, &CampaignReport::gp_correct);
}

std::size_t FleetSummary::total_ecrs() const {
  std::size_t total = 0;
  for (const auto& report : reports) total += report.ecrs.size();
  return total;
}

std::size_t FleetSummary::cars_ok() const {
  std::size_t total = 0;
  for (const auto& report : reports) total += report.completed ? 1 : 0;
  return total;
}

std::size_t FleetSummary::cars_failed() const {
  return reports.size() - cars_ok();
}

util::TransactStats FleetSummary::total_transactions() const {
  util::TransactStats total;
  for (const auto& report : reports) total += report.transactions;
  return total;
}

FleetRunner::FleetRunner(FleetOptions options)
    : options_(std::move(options)),
      threads_(options_.fleet_threads == 1
                   ? 1
                   : util::ThreadPool::resolve(options_.fleet_threads)) {}

namespace {

/// Degraded quarantine profile: half the capture window (floor 2
/// sim-seconds) and no inference/baselines — the cheapest configuration
/// that still produces a full traffic census, so a car that failed on a
/// deadline or a resource wall gets a real second chance instead of an
/// identical re-run. Watchdog/stall settings are deliberately kept: a
/// deterministically wedged phase must fail the retry too.
CampaignOptions degraded_options(CampaignOptions options) {
  options.live_window =
      std::max<util::SimTime>(2 * util::kSecond, options.live_window / 2);
  options.run_inference = false;
  options.run_baselines = false;
  return options;
}

}  // namespace

FleetSummary FleetRunner::run_impl(
    std::size_t count,
    const std::function<const vehicle::CarSpec*(std::size_t)>& spec_for,
    const std::function<std::string(std::size_t)>& fallback_label) const {
  FleetSummary summary;
  summary.reports.resize(count);
  summary.threads_used = count <= 1 ? 1 : threads_;

  const auto start = std::chrono::steady_clock::now();
  if (options_.campaign.resume && !options_.campaign.checkpoint_dir.empty()) {
    // One self-healing scan before the fan-out (not per campaign — a
    // 1024-car fleet must not rescan the directory 1024 times): torn,
    // corrupt or key-mismatched files are quarantined with a logged
    // reason, so every campaign below either resumes from a trustworthy
    // checkpoint or starts fresh — never fails its car over a bad file.
    const CheckpointStore store(options_.campaign.checkpoint_dir);
    const auto healed = store.heal();
    summary.ckpt_quarantined += healed.quarantined;
  }
  auto run_one = [&](std::size_t i, util::ThreadPool* pool,
                     const CampaignOptions& base_options) {
    CampaignOptions campaign_options = base_options;
    if (pool != nullptr) campaign_options.infer_pool = pool;
    // Graceful degradation: one bad vehicle must never kill the fleet (or
    // escape into a ThreadPool worker, which would terminate the process).
    // A throwing campaign becomes a failed per-car report slot.
    const vehicle::CarSpec* spec = nullptr;
    try {
      spec = spec_for(i);
      if (spec == nullptr) throw std::out_of_range("unknown car id");
      Campaign campaign(*spec, campaign_options);
      campaign.run();
      summary.reports[i] = campaign.report();
    } catch (const std::exception& e) {
      summary.reports[i] = CampaignReport{};
      summary.reports[i].spec_digest =
          spec != nullptr ? vehicle::spec_digest(*spec) : 0;
      summary.reports[i].car_label =
          spec != nullptr ? spec->label : fallback_label(i);
      summary.reports[i].completed = false;
      summary.reports[i].failure_reason = e.what();
    } catch (...) {
      summary.reports[i] = CampaignReport{};
      summary.reports[i].spec_digest =
          spec != nullptr ? vehicle::spec_digest(*spec) : 0;
      summary.reports[i].car_label =
          spec != nullptr ? spec->label : fallback_label(i);
      summary.reports[i].completed = false;
      summary.reports[i].failure_reason = "unknown exception";
    }
  };

  if (summary.threads_used <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      run_one(i, nullptr, options_.campaign);
    }
  } else {
    util::ThreadPool pool(summary.threads_used);
    pool.parallel_for(
        count, [&](std::size_t i) { run_one(i, &pool, options_.campaign); });
  }
  if (options_.quarantine_retry) {
    // Supervised quarantine pass: each failed car gets exactly one serial
    // re-run under the degraded profile. Either way the first failure
    // stays on record — "recovered after retry" on success, both reasons
    // on a second failure.
    for (std::size_t i = 0; i < count; ++i) {
      if (summary.reports[i].completed) continue;
      const std::string first_reason = summary.reports[i].failure_reason;
      run_one(i, nullptr, degraded_options(options_.campaign));
      if (summary.reports[i].completed) {
        summary.reports[i].failure_reason =
            first_reason + "; recovered after retry";
      } else {
        summary.reports[i].failure_reason =
            first_reason + "; retry: " + summary.reports[i].failure_reason;
      }
    }
  }
  summary.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  for (const auto& report : summary.reports) {
    summary.phase_totals += report.phases;
    summary.ckpt_quarantined += report.ckpt_quarantined;
  }
  return summary;
}

FleetSummary FleetRunner::run(
    const std::vector<vehicle::CarSpec>& specs) const {
  return run_impl(
      specs.size(), [&](std::size_t i) { return &specs[i]; },
      [](std::size_t i) { return "car#" + std::to_string(i); });
}

FleetSummary FleetRunner::run(const std::vector<vehicle::CarId>& cars) const {
  return run_impl(
      cars.size(),
      [&](std::size_t i) -> const vehicle::CarSpec* {
        for (const auto& spec : vehicle::catalog()) {
          if (spec.id == cars[i]) return &spec;
        }
        return nullptr;
      },
      [&](std::size_t i) {
        return "car#" + std::to_string(static_cast<int>(cars[i]));
      });
}

FleetSummary FleetRunner::run_catalog() const {
  return run(vehicle::catalog());
}

std::string report_signature(const CampaignReport& report) {
  std::ostringstream out;
  out << std::hexfloat;  // doubles round-trip bit-exactly

  out << "car=" << report.car_label << ";census=" << report.census.single_frames
      << ',' << report.census.first_frames << ','
      << report.census.consecutive_frames << ','
      << report.census.flow_control_frames << ','
      << report.census.vwtp_data_last << ',' << report.census.vwtp_data_more
      << ',' << report.census.vwtp_control << ',' << report.census.other
      << ";messages=" << report.messages_assembled
      << ";offset=" << report.alignment_offset
      << ";anchors=" << report.alignment_anchors << '\n';

  for (const auto& s : report.signals) {
    out << "sig " << s.is_kwp << ' ' << s.did << ' '
        << static_cast<int>(s.local_id) << ' ' << s.esv_index << " '"
        << s.semantic_name << "' '" << s.request_message
        << "' enum=" << s.is_enum << " n=" << s.dataset.points.size()
        << " vars=" << s.dataset.n_vars;
    for (const auto& point : s.dataset.points) {
      out << " (";
      for (double x : point.xs) out << x << ',';
      out << point.y << '@' << point.x_time << '/' << point.y_time << ')';
    }
    if (s.gp) {
      out << " gp='" << s.gp->formula << "' fit=" << s.gp->fitness
          << " gen=" << s.gp->generations_run << " conv=" << s.gp->converged;
    }
    const auto fit_sig = [&out](const char* tag,
                                const regress::FitResult& fit) {
      out << ' ' << tag << "='" << fit.formula << "'";
      for (double c : fit.coefficients) out << ' ' << c;
    };
    if (s.linear) fit_sig("lin", *s.linear);
    if (s.polynomial) fit_sig("poly", *s.polynomial);
    out << " truth='" << s.truth_formula << "' tenum=" << s.truth_is_enum
        << " ok=" << s.gp_correct << s.linear_correct << s.polynomial_correct
        << '\n';
  }
  for (const auto& e : report.ecrs) {
    out << "ecr " << e.is_uds << ' ' << e.id << " '" << e.semantic_name
        << "' seq=";
    for (auto p : e.param_sequence) out << static_cast<int>(p) << ',';
    out << " state=" << util::to_hex(e.adjustment_state)
        << " p3=" << e.three_message_pattern << " ok=" << e.matches_truth
        << '\n';
  }
  out << "ocr=" << report.ocr_stats.strings_read << '/'
      << report.ocr_stats.strings_correct << '/'
      << report.ocr_stats.char_errors << '/'
      << report.ocr_stats.decimal_drops << '\n';
  out << "ok=" << report.completed << " reason='" << report.failure_reason
      << "' tx=" << report.transactions.transactions << '/'
      << report.transactions.retries << '/'
      << report.transactions.busy_retries << '/'
      << report.transactions.pending_waits << '/'
      << report.transactions.failures;
  for (const auto& f : report.failed_transactions) {
    out << " fail(" << f.is_kwp << ',' << f.id << ")=" << f.failures;
  }
  out << " bus=" << report.bus_faults.delivered << '/'
      << report.bus_faults.dropped << '/' << report.bus_faults.corrupted
      << '/' << report.bus_faults.duplicated << '/'
      << report.bus_faults.jittered << '/' << report.bus_faults.bursts;
  out << " sess=" << report.session_stats.keepalives << '/'
      << report.session_stats.sessions_lost << '/'
      << report.session_stats.sessions_restored << '/'
      << report.session_stats.reissued_requests << '/'
      << report.session_stats.recovery_failures
      << " resets=" << report.ecu_resets << '/' << report.ecu_s3_expiries;
  if (report.nm_enabled) {
    // Only emitted when NM was armed: NM-off reports stay byte-identical
    // to pre-NM builds (the session_stats sleep counters are zero and
    // unrepresented in that case too).
    out << " nm=1 sleeps=" << report.nm.sleeps << '/' << report.nm.wakeups
        << '/' << report.nm.frames_lost_to_sleep
        << " limps=" << report.nm.limp_episodes << '/'
        << report.nm.ring_repairs << " nmtx=" << report.nm.nm_frames_sent
        << " slrec=" << report.session_stats.bus_sleeps << '/'
        << report.session_stats.sleep_recoveries;
  }
  out << '\n';
  return out.str();
}

std::string fleet_signature(const FleetSummary& summary) {
  std::string signature;
  for (const auto& report : summary.reports) {
    signature += report_signature(report);
  }
  return signature;
}

}  // namespace dpr::core
