#include "paper.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>

#include "appanalysis/corpus.hpp"
#include "appanalysis/taint.hpp"
#include "bench_common.hpp"
#include "can/bus.hpp"
#include "core/fleet.hpp"
#include "core/obd_experiment.hpp"
#include "core/truth.hpp"
#include "cps/camera.hpp"
#include "cps/clicker.hpp"
#include "cps/ocr.hpp"
#include "cps/planner.hpp"
#include "diagtool/tool.hpp"
#include "frames/analysis.hpp"
#include "gp/engine.hpp"
#include "kwp/client.hpp"
#include "regress/regress.hpp"
#include "uds/client.hpp"
#include "vehicle/vehicle.hpp"

namespace dpr::bench {

namespace {

__attribute__((format(printf, 1, 2))) std::string format(const char* fmt,
                                                         ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<std::size_t>(size), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

/// "num/den = p%", the form most cells use.
std::string ratio(std::size_t num, std::size_t den) {
  return format("%zu/%zu = %s", num, den, percent(num, den).c_str());
}

// --- Table 4: OCR precision ------------------------------------------------
// A frame counts as correct when every live-value glyph is recognized
// exactly. The resolution dependence comes from each tool's glyph height.

struct OcrRun {
  std::size_t total = 0;
  std::size_t correct = 0;
};

OcrRun run_ocr(diagtool::ToolKind kind, std::size_t frames) {
  util::SimClock clock;
  can::CanBus bus(clock);
  vehicle::Vehicle vehicle(vehicle::CarId::kA, bus, clock, 0x7AB1E4);
  diagtool::DiagnosticTool tool(diagtool::profile_for(kind), vehicle, bus,
                                clock);
  cps::Camera camera(tool, util::DeviceClock{}, tool.profile().value_font_px);
  cps::OcrEngine ocr(util::Rng(0x0C12 + static_cast<int>(kind)));

  // Navigate to a live data-stream view.
  auto click_text = [&](const std::string& keyword) {
    for (const auto& w : tool.screen().widgets) {
      if (w.kind == diagtool::Widget::Kind::kButton &&
          w.text.find(keyword) != std::string::npos) {
        tool.click(w.bounds.center_x(), w.bounds.center_y());
        return true;
      }
    }
    return false;
  };
  click_text("Local Diagnostics");
  click_text("Engine");
  click_text("Read Data Stream");
  while (click_text("[ ]")) {
  }
  click_text("Start");

  OcrRun run;
  while (run.total < frames) {
    tool.run_for(250 * util::kMillisecond);
    const auto shot = camera.capture(clock.now());
    bool frame_correct = true;
    bool has_values = false;
    for (const auto& region : shot.image->text_regions) {
      if (region.row < 0 || region.bounds.x <= shot.image->width / 2) continue;
      has_values = true;
      if (ocr.read(region.truth, region.font_px) != region.truth) {
        frame_correct = false;
      }
    }
    if (!has_values) continue;
    ++run.total;
    if (frame_correct) ++run.correct;
  }
  return run;
}

// --- Table 8: work per inferred formula ------------------------------------

/// Representative non-enum datasets from one car's campaign.
std::vector<correlate::Dataset> work_datasets(vehicle::CarId car) {
  constexpr std::size_t kCap = 8;
  auto options = table_options();
  options.run_inference = false;
  core::Campaign campaign(car, options);
  campaign.collect();
  campaign.analyze();
  std::vector<correlate::Dataset> datasets;
  for (const auto& finding : campaign.report().signals) {
    if (finding.is_enum || finding.dataset.points.size() < 6) continue;
    datasets.push_back(finding.dataset);
    if (datasets.size() >= kCap) break;
  }
  return datasets;
}

struct Work {
  std::size_t candidates = 0;  // formulas GP scored, summed over datasets
  std::size_t formulas = 0;    // datasets GP inferred a formula for
  std::size_t fitted = 0;      // datasets both baselines solved
  std::size_t datasets = 0;
};

/// The paper's raw evolutionary search: population 1000, at most 30
/// generations, no seeding, templates or tuning, and no fitness-threshold
/// stop. The stall rule still ends a search that has stopped gaining.
/// Without tuning, every evaluation scores one candidate.
Work work_per_formula(vehicle::CarId car) {
  gp::GpConfig config;
  config.population = 1000;
  config.max_generations = 30;
  config.seed_least_squares = false;
  config.seed_templates = false;
  config.constant_tuning = false;
  config.fitness_threshold = 0.0;
  Work work;
  for (const auto& dataset : work_datasets(car)) {
    ++work.datasets;
    if (const auto result = gp::infer_formula(dataset, config)) {
      work.candidates += result->timings.evaluations;
      ++work.formulas;
    }
    if (regress::fit_linear(dataset) && regress::fit_polynomial(dataset)) {
      ++work.fitted;
    }
  }
  return work;
}

// --- Table 13: attack replay -----------------------------------------------

/// The attacker's OBD dongle on one ECU of the victim: a raw message
/// link from the public transport standards, plus the clients that talk
/// through it. The link's bus listener captures the link and each
/// client's message handler captures the client, so all three must live
/// as long as the victim's bus can dispatch.
struct Dongle {
  std::unique_ptr<util::MessageLink> link;
  std::unique_ptr<uds::Client> uds;
  std::unique_ptr<kwp::Client> kwp;
};

struct Attack {
  std::size_t reads = 0, reads_ok = 0;
  std::size_t controls = 0, controls_ok = 0;
};

/// Reverse engineer a rented instance of the model, then replay two
/// recovered reads and every recovered control procedure against a
/// different instance (fresh seed, fresh state).
Attack attack_car(vehicle::CarId car) {
  auto options = table_options();
  options.run_inference = false;
  core::Campaign campaign(car, options);
  campaign.collect();
  campaign.analyze();
  const auto& report = campaign.report();

  util::SimClock clock;
  can::CanBus bus(clock);
  vehicle::Vehicle victim(car, bus, clock, /*seed=*/0xA77AC4);
  const auto& spec = victim.spec();
  const auto pump = [&bus] { bus.deliver_pending(); };
  // One dongle per ECU, created on first use and kept for the bus's life.
  std::map<const vehicle::EcuSpec*, Dongle> dongles;
  const auto dongle_for = [&](const vehicle::EcuSpec& ecu) -> Dongle& {
    Dongle& dongle = dongles[&ecu];
    if (!dongle.link) {
      dongle.link = vehicle::make_link(bus, spec.transport, ecu,
                                       vehicle::LinkSide::kTester);
      dongle.uds = std::make_unique<uds::Client>(*dongle.link, pump);
      dongle.kwp = std::make_unique<kwp::Client>(*dongle.link, pump);
    }
    return dongle;
  };

  Attack attack;
  for (const auto& signal : report.signals) {
    if (signal.is_kwp || attack.reads >= 2) continue;
    auto* ecu = victim.find_ecu_with_did(signal.did);
    if (ecu == nullptr) continue;
    const vehicle::EcuSpec* ecu_spec = nullptr;
    for (const auto& e : spec.ecus) {
      if (e.request_id == ecu->request_id() &&
          e.response_id == ecu->response_id()) {
        ecu_spec = &e;
      }
    }
    if (!ecu_spec) continue;
    const std::vector<uds::Did> dids{signal.did};
    const auto resp = dongle_for(*ecu_spec).uds->transact(
        uds::encode_read_data_by_identifier(dids));
    ++attack.reads;
    if (resp && !resp->empty() && (*resp)[0] == 0x62) ++attack.reads_ok;
  }

  for (const auto& ecr : report.ecrs) {
    auto* ecu = victim.find_ecu_with_actuator(ecr.id);
    if (ecu == nullptr) continue;
    const vehicle::EcuSpec* ecu_spec = nullptr;
    for (const auto& e : spec.ecus) {
      if (e.response_id == ecu->response_id()) ecu_spec = &e;
    }
    if (!ecu_spec) continue;
    Dongle& dongle = dongle_for(*ecu_spec);
    ++attack.controls;
    bool ok = false;
    dongle.uds->start_session(0x03);
    if (ecr.is_uds) {
      uds::Client& client = *dongle.uds;
      ok = client.io_control(ecr.id,
                             uds::IoControlParameter::kFreezeCurrentState)
               .has_value();
      ok = ok && client.io_control(
                     ecr.id, uds::IoControlParameter::kShortTermAdjustment,
                     ecr.adjustment_state).has_value();
      ok = ok && client.io_control(
                     ecr.id, uds::IoControlParameter::kReturnControlToEcu)
                     .has_value();
    } else {
      kwp::Client& client = *dongle.kwp;
      const auto local = static_cast<std::uint8_t>(ecr.id);
      util::Bytes freeze{0x02};
      ok = client.io_control_local(local, freeze).has_value();
      util::Bytes adjust{0x03};
      adjust.insert(adjust.end(), ecr.adjustment_state.begin(),
                    ecr.adjustment_state.end());
      ok = ok && client.io_control_local(local, adjust).has_value();
      util::Bytes ret{0x00};
      ok = ok && client.io_control_local(local, ret).has_value();
    }
    if (ok && ecu->actuator(ecr.id)->activations() > 0) ++attack.controls_ok;
  }
  return attack;
}

// --- §3.1: click planner ---------------------------------------------------

/// Total selection time for a click order: pen travel plus the fixed
/// per-click wait the script generator inserts so the tool can react
/// (§3.1). The paper's 80.45 s / 74.6 s for 14 ESVs imply ~5 s per
/// selection, dominated by that wait, which is why the NN saving is a
/// single-digit percentage of *total* time.
constexpr double kToolReactionS = 4.5;

double tour_seconds(const std::vector<cps::Point>& points,
                    const std::vector<std::size_t>& order) {
  util::SimClock clock;
  cps::RoboticClicker clicker(clock);
  for (std::size_t i : order) {
    clicker.move_and_click(points[i].x, points[i].y);
    clock.advance(static_cast<util::SimTime>(kToolReactionS * util::kSecond));
  }
  return static_cast<double>(clock.now()) / static_cast<double>(util::kSecond);
}

// --- Table 2 ablation: pre/post scaling ------------------------------------

/// Truth Y = scale * (3 sqrt(X) + 5) over raw bytes: outside the
/// affine/degree-2 bases, so the evolutionary search itself must find
/// the structure (and feels the operand/target ranges).
correlate::Dataset sqrt_dataset(double scale, util::Rng& rng) {
  correlate::Dataset dataset;
  dataset.n_vars = 1;
  for (int i = 0; i < 40; ++i) {
    const double x = rng.uniform(0.0, 255.0);
    dataset.points.push_back(
        correlate::DataPoint{{x}, scale * (3.0 * std::sqrt(x) + 5.0)});
  }
  return dataset;
}

struct Recovery {
  double recovered = 0;          // % runs passing §4.2's test (recovered)
  double constant_collapse = 0;  // % runs degenerating to a constant
};

Recovery recovery_rate(double scale, bool use_scaling) {
  constexpr int kTrials = 24;
  util::Rng rng(0xAB1A7E);
  int correct = 0;
  int collapsed = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto dataset = sqrt_dataset(scale, rng);
    gp::GpConfig config;
    config.population = 192;
    config.max_generations = 30;
    config.use_scaling = use_scaling;
    config.seed = 0x5CA1E + static_cast<std::uint64_t>(trial);
    const auto result = gp::infer_formula(dataset, config);
    if (!result) continue;
    const auto truth = [scale](std::span<const double> xs) {
      return scale * (3.0 * std::sqrt(xs[0]) + 5.0);
    };
    if (core::recovered(gp::relative_error(*result, dataset, truth))) {
      ++correct;
    }
    // "GP will directly set a constant value as the formula": the failure
    // mode Table 2 exists to prevent.
    bool has_variable = false;
    for (const auto& gene : result->best) {
      if (gene.op == gp::Op::kVar) has_variable = true;
    }
    if (!has_variable) ++collapsed;
  }
  return Recovery{100.0 * correct / kTrials, 100.0 * collapsed / kTrials};
}

// --- §3.3 ablation: two-stage ESV filtering --------------------------------

struct FilterRun {
  std::size_t formulas = 0;
  std::size_t gp = 0, lin = 0, poly = 0;
};

/// The LAUNCH X431 cars with the filter on or off, under a 6x character
/// error rate (glare / vibration) and fewer frames, so corrupted reads
/// pair more often and the filter's contribution shows.
FilterRun filter_run(bool filter) {
  FilterRun run;
  for (const auto car : {vehicle::CarId::kA, vehicle::CarId::kC}) {
    auto options = table_options();
    options.two_stage_filter = filter;
    options.ocr_rate_scale = 6.0;
    options.video_fps = 4.0;
    core::Campaign campaign(car, options);
    campaign.collect();
    campaign.analyze();
    const auto& report = campaign.report();
    run.formulas += report.formula_signals();
    run.gp += report.gp_correct();
    run.lin += report.linear_correct();
    run.poly += report.polynomial_correct();
  }
  return run;
}

// --- The doc comparison ----------------------------------------------------

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = std::min(text.find('\n', start), text.size());
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// The lines strictly between the markers (the marker lines' own
/// remainders dropped), or nullopt when either marker is missing.
std::optional<std::vector<std::string_view>> block_lines(
    std::string_view text) {
  const std::size_t begin = text.find(kBeginMarker);
  if (begin == std::string_view::npos) return std::nullopt;
  const std::size_t body = text.find('\n', begin);
  if (body == std::string_view::npos) return std::nullopt;
  const std::size_t end = text.find(kEndMarker, body);
  if (end == std::string_view::npos) return std::nullopt;
  const std::size_t last = text.rfind('\n', end);
  if (last <= body) return std::vector<std::string_view>{};
  return split_lines(text.substr(body + 1, last - body - 1));
}

/// What a line is called in a difference: a table line by its first
/// cell, any other line by its position among the non-table lines.
std::vector<std::pair<std::string, std::string_view>> keyed(
    const std::vector<std::string_view>& lines) {
  std::vector<std::pair<std::string, std::string_view>> out;
  std::size_t text_lines = 0;
  for (const auto line : lines) {
    const std::size_t bar = line.find('|', 1);
    if (line.starts_with('|') && bar != std::string_view::npos) {
      auto cell = line.substr(1, bar - 1);
      while (cell.starts_with(' ')) cell.remove_prefix(1);
      while (cell.ends_with(' ')) cell.remove_suffix(1);
      out.emplace_back("row \"" + std::string(cell) + "\"", line);
    } else {
      out.emplace_back(format("text line %zu", ++text_lines), line);
    }
  }
  return out;
}

}  // namespace

Row table4_ocr() {
  std::string measured;
  for (const auto kind :
       {diagtool::ToolKind::kAutel919, diagtool::ToolKind::kLaunchX431}) {
    const auto run = run_ocr(kind, 500);
    if (!measured.empty()) measured += "; ";
    measured += diagtool::profile_for(kind).name + " " +
                ratio(run.correct, run.total);
  }
  return {"Table 4 (OCR precision)",
          "AUTEL 919: 488/500 = 97.6%; LAUNCH X431: 425/500 = 85.0%",
          measured,
          "reproduced (the OCR noise model is calibrated to these targets; "
          "the resolution ordering is structural)"};
}

Row table5_obd() {
  core::ObdExperimentOptions options;
  options.duration = 25 * util::kSecond;
  options.gp.population = 160;
  const auto report = core::run_obd_experiment(options);

  // The seven PIDs of the paper's Table 5.
  const std::uint8_t table5_pids[] = {0x11, 0x04, 0x2F, 0x0C,
                                      0x0D, 0x05, 0x0B};
  std::size_t shown = 0, correct = 0;
  for (const std::uint8_t pid : table5_pids) {
    for (const auto& finding : report.findings) {
      if (finding.pid != pid) continue;
      ++shown;
      if (finding.correct) ++correct;
    }
  }
  return {"Table 5 (OBD-II formulas)", "7/7 recovered, 100%",
          format("%zu/%zu recovered, %s; %zu/%zu PIDs correct overall",
                 correct, shown, percent(correct, shown).c_str(),
                 report.correct_count(), report.findings.size()),
          "reproduced; recovered formulas are output-equivalent to SAE J1979, "
          "incl. the paper's `Y=64*X0+...` RPM simplification pattern"};
}

CatalogRows catalog_rows() {
  core::FleetOptions options;
  options.campaign = table_options();
  const auto summary = core::FleetRunner(options).run_catalog();

  std::size_t formulas = 0, gp = 0, lin = 0, poly = 0, enums = 0;
  std::size_t out_of_sample = 0;
  for (std::size_t i = 0; i < summary.reports.size(); ++i) {
    const auto& report = summary.reports[i];
    formulas += report.formula_signals();
    gp += report.gp_correct();
    out_of_sample +=
        core::gp_correct_out_of_sample(report, vehicle::catalog()[i]);
    lin += report.linear_correct();
    poly += report.polynomial_correct();
    enums += report.enum_signals();
  }

  // Table 7: the dashboard signal of four cars is the ground truth.
  struct Target {
    vehicle::CarId car;
    const char* signal;
  };
  const Target targets[] = {
      {vehicle::CarId::kF, "Engine Speed"},         // paper: Y = X
      {vehicle::CarId::kK, "Engine Speed"},         // paper: Y = X0*X1/5
      {vehicle::CarId::kL, "Coolant Temperature"},  // paper: Y = 0.5X
      {vehicle::CarId::kR, "Engine Speed"},  // paper: Y = 64.1X0+0.241X1
  };
  std::size_t dashboard_correct = 0;
  std::string outputs;
  for (const auto& target : targets) {
    const auto& catalog = vehicle::catalog();
    std::size_t slot = 0;
    while (catalog[slot].id != target.car) ++slot;
    const auto& report = summary.reports[slot];
    // The dashboard actually displays this signal.
    util::SimClock clock;
    can::CanBus bus(clock);
    const vehicle::Vehicle dashboard(target.car, bus, clock,
                                     options.campaign.seed);
    const core::SignalFinding* found = nullptr;
    for (const auto& finding : report.signals) {
      if (finding.semantic_name == target.signal) found = &finding;
    }
    if (found != nullptr && found->gp_correct &&
        dashboard.dashboard_value(target.signal).has_value()) {
      ++dashboard_correct;
    }
    outputs += format("%s %s `%s`", outputs.empty() ? "" : ";",
                      report.car_label.c_str(),
                      found && found->gp ? found->gp->formula.c_str()
                                         : "(none)");
  }

  CatalogRows rows;
  rows.table6 = {
      "Table 6 (UDS/KWP GP precision)",
      "285/290 = 98.3% formulas, 156 enum ESVs",
      format("%s formulas over %zu cars, %zu enum ESVs",
             ratio(gp, formulas).c_str(), summary.reports.size(), enums),
      "reproduced; same car list and per-car ESV counts as the paper; the "
      "handful of failures concentrate in noisy product-form signals, as in "
      "§4.3"};
  rows.table6_out_of_sample = {
      "Table 6 (out of sample)",
      "not measured: §4.2 judges a formula on the operands it was fitted on",
      format("%s of the GP-correct formulas also pass §4.2's test on a grid "
             "over the signal's declared raw range (every value of one byte, "
             "512 steps of a two-byte quantity, a 25x25 lattice of two "
             "operands)",
             ratio(out_of_sample, gp).c_str()),
      "beyond the paper: the fitted points cover part of each range, so a "
      "formula can fit its window and still miss elsewhere"};
  rows.table7 = {"Table 7 (dashboard validation)",
                 "4/4 formulas correct (Cars F, K, L, R)",
                 format("%zu/%zu correct; GP output:%s", dashboard_correct,
                        std::size(targets), outputs.c_str()),
                 "reproduced"};
  rows.table10 = {
      "Table 10 (baselines)",
      "LR 127/290 = 43.8%; poly 93/290 = 32.1% (GP 98.3%)",
      format("LR %s; poly %s (GP %s)", ratio(lin, formulas).c_str(),
             ratio(poly, formulas).c_str(), percent(gp, formulas).c_str()),
      "ordering reproduced (GP ≫ both); our baselines score higher, see "
      "\"fidelity gaps\" below"};
  rows.formulas = formulas;
  rows.enums = enums;
  rows.gp_correct = gp;
  return rows;
}

Row table8_work() {
  const auto uds = work_per_formula(vehicle::CarId::kA);
  const auto kwp = work_per_formula(vehicle::CarId::kB);
  const auto per_formula = [](const Work& work) {
    const double formulas = std::max<double>(1, work.formulas);
    return std::lround(static_cast<double>(work.candidates) / formulas);
  };
  return {"Table 8 (inference cost)",
          "GP 201.4 s (UDS) / 192.2 s (KWP) at pop 1000 x 30 gens (Python "
          "gplearn); LR/poly < 1 ms",
          format("GP scores %ld (UDS, Car A) / %ld (KWP, Car B) candidate "
                 "formulas per inferred formula at pop 1000 x at most 30 "
                 "gens, assists off (%zu + %zu formulas); LR and poly solve "
                 "one least-squares system each (%zu/%zu datasets fitted)",
                 per_formula(uds), per_formula(kwp), uds.formulas,
                 kwp.formulas, uds.fitted + kwp.fitted,
                 uds.datasets + kwp.datasets),
          "ordering reproduced (GP does orders of magnitude more work per "
          "formula than the closed-form baselines); wall-clock times depend "
          "on the implementation and host, see fidelity gap 3"};
}

Row table9_frames() {
  auto options = table_options();
  options.run_inference = false;

  // UDS traffic: Car A (Skoda Octavia), as in the paper.
  core::Campaign uds_campaign(vehicle::CarId::kA, options);
  uds_campaign.collect();
  const auto uds = frames::census(uds_campaign.capture(),
                                  frames::TransportHint::kIsoTp);
  const std::size_t total = uds.total();

  // KWP 2000 traffic: Cars B and C (VW TP 2.0).
  std::size_t more = 0, last = 0;
  for (const auto car : {vehicle::CarId::kB, vehicle::CarId::kC}) {
    core::Campaign campaign(car, options);
    campaign.collect();
    const auto census =
        frames::census(campaign.capture(), frames::TransportHint::kVwTp20);
    more += census.vwtp_data_more;
    last += census.vwtp_data_last;
  }
  const std::size_t data = more + last;
  return {"Table 9 (frame census)",
          "UDS: 55.1% SF / 32.0% multi / 12.9% FC; KWP: 75.2% waiting / "
          "24.8% last",
          format("UDS (Car A): %s SF / %s multi / %s FC (%zu / %zu / %zu of "
                 "%zu frames); KWP (Cars B+C): %s waiting / %s last (%zu / "
                 "%zu of %zu data frames)",
                 percent(uds.single_frames, total).c_str(),
                 percent(uds.multi_frames(), total).c_str(),
                 percent(uds.flow_control_frames, total).c_str(),
                 uds.single_frames, uds.multi_frames(),
                 uds.flow_control_frames, total,
                 percent(more, data).c_str(), percent(last, data).c_str(),
                 more, last, data),
          "shape reproduced: both protocols have a large multi-frame share "
          "that is unusable without payload recovery; exact mix depends on "
          "the tool's batching habits, which the paper does not specify"};
}

EcrRow table11_ecrs() {
  auto options = table_options();
  options.run_inference = false;
  const auto cars = table11_cars();
  std::size_t total = 0, with_pattern = 0, cars_matching = 0;
  std::size_t via_2f = 0, via_30 = 0;
  for (const auto car : cars) {
    core::Campaign campaign(car, options);
    campaign.collect();
    campaign.analyze();
    const auto& report = campaign.report();
    bool uses_2f = false, uses_30 = false;
    for (const auto& ecr : report.ecrs) {
      if (ecr.three_message_pattern) ++with_pattern;
      (ecr.is_uds ? uses_2f : uses_30) = true;
    }
    via_2f += uses_2f;
    via_30 += uses_30;
    total += report.ecrs.size();
    if (report.ecrs.size() == vehicle::car_spec(car).ecr_count) {
      ++cars_matching;
    }
  }
  return {{"Table 11 (ECR extraction)",
           "124 ECRs over 10 cars; 5 cars via 0x2F, 5 via 0x30; 3-message "
           "pattern",
           format("%zu ECRs over %zu cars, %zu/%zu cars at their catalog "
                  "count; %zu cars via 0x2F, %zu via 0x30; %zu/%zu show the "
                  "freeze→adjust→return pattern",
                  total, cars.size(), cars_matching, cars.size(), via_2f,
                  via_30, with_pattern, total),
           "reproduced exactly"},
          total};
}

Row table12_apps() {
  using namespace appanalysis;
  std::size_t proprietary = 0, obd_only = 0, resistant = 0, mismatches = 0;
  std::string counts;
  for (const auto& entry : build_corpus()) {
    const auto report = analyze_app(entry.app);
    std::map<ProtocolClass, std::size_t> by_protocol;
    for (const auto& formula : report.formulas) {
      ++by_protocol[formula.protocol];
    }
    const std::size_t uds = by_protocol[ProtocolClass::kUds];
    const std::size_t kwp = by_protocol[ProtocolClass::kKwp2000];
    const std::size_t obd = by_protocol[ProtocolClass::kObd2];
    if (uds + kwp > 0) {
      ++proprietary;
      counts += counts.empty() ? "" : ", ";
      counts += report.app_name;
      if (uds > 0) counts += format(" UDS %zu", uds);
      if (uds > 0 && kwp > 0) counts += " +";
      if (kwp > 0) counts += format(" KWP %zu", kwp);
    } else if (obd > 0) {
      ++obd_only;
    } else if (report.taint_breaks > 0) {
      ++resistant;
    }
    // Score the analyzer against the corpus ground truth.
    if (entry.extraction_resistant ? !report.formulas.empty()
                                   : uds != entry.uds_formulas ||
                                         kwp != entry.kwp_formulas ||
                                         obd != entry.obd_formulas) {
      ++mismatches;
    }
  }
  return {"Table 12 (app analysis)",
          "3 apps with UDS/KWP formulas (Carly VAG 90+137, Mercedes 1624+468, "
          "Toyota 7); ~25 OBD-II-formula apps; 13 extraction-resistant",
          format("%zu proprietary-formula apps (%s), %zu OBD-II apps, %zu "
                 "taint-broken apps, %zu analyzer/ground-truth mismatches",
                 proprietary, counts.c_str(), obd_only, resistant,
                 mismatches),
          "reproduced exactly (the corpus encodes Table 12's ground truth; "
          "the measurement is that Alg. 1 recovers it)"};
}

Row table13_attack() {
  Attack total;
  for (const auto car : {vehicle::CarId::kG, vehicle::CarId::kD,
                         vehicle::CarId::kL, vehicle::CarId::kN}) {
    const auto attack = attack_car(car);
    total.reads += attack.reads;
    total.reads_ok += attack.reads_ok;
    total.controls += attack.controls;
    total.controls_ok += attack.controls_ok;
  }
  return {"Table 13 (attack replay)",
          "all replayed messages succeed on 4 running vehicles",
          format("%zu/%zu reads + controls succeed against fresh vehicle "
                 "instances: %zu/%zu reads answered, %zu/%zu control "
                 "procedures trigger their actuator",
                 total.reads_ok + total.controls_ok,
                 total.reads + total.controls, total.reads_ok, total.reads,
                 total.controls_ok, total.controls),
          "reproduced"};
}

Row planner() {
  util::Rng rng(0x7A117);
  constexpr int kTrials = 200;
  double nn_time = 0.0, random_time = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    // 14 ESV rows laid out like a data-stream screen, with some x jitter
    // (two-column layouts etc.).
    std::vector<cps::Point> points;
    for (int i = 0; i < 14; ++i) {
      points.push_back(
          cps::Point{static_cast<int>(rng.uniform_int(60, 1100)),
                     60 + 48 * static_cast<int>(rng.uniform_int(0, 13))});
    }
    const cps::Point start{0, 0};
    nn_time += tour_seconds(points, cps::plan_nearest_neighbor(start, points));
    random_time += tour_seconds(points, cps::plan_random(points, rng));
  }
  nn_time /= kTrials;
  random_time /= kTrials;
  const double saving = (random_time - nn_time) / random_time * 100.0;

  // Exact optimality gap on small instances.
  double nn_total = 0, opt_total = 0;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<cps::Point> points;
    for (int i = 0; i < 8; ++i) {
      points.push_back(cps::Point{static_cast<int>(rng.uniform_int(0, 1100)),
                                  static_cast<int>(rng.uniform_int(0, 700))});
    }
    const cps::Point start{0, 0};
    nn_total += static_cast<double>(cps::tour_length(
        start, points, cps::plan_nearest_neighbor(start, points)));
    opt_total += static_cast<double>(cps::tour_length(
        start, points, cps::plan_brute_force(start, points)));
  }
  return {"§3.1 (planner)",
          "NN saves 7.3% of selection time vs random (14 ESVs)",
          format("NN saves %.1f%% of total selection time vs random (%.2f s → "
                 "%.2f s: pen motion + per-click tool reaction); NN is "
                 "+%.1f%% over the exact tour on 8-point instances",
                 saving, random_time, nn_time,
                 (nn_total - opt_total) / opt_total * 100.0),
          "reproduced"};
}

Row ablation_scaling() {
  const double scales[] = {1e-4, 1e-2, 1.0, 1e2, 1e4};
  std::optional<Recovery> extreme_with, extreme_without;
  double with_total = 0, without_total = 0;
  for (const double scale : scales) {
    const auto with_scaling = recovery_rate(scale, true);
    const auto without_scaling = recovery_rate(scale, false);
    if (!extreme_with) {
      extreme_with = with_scaling;
      extreme_without = without_scaling;
    }
    with_total += with_scaling.recovered;
    without_total += without_scaling.recovered;
  }
  const double n = static_cast<double>(std::size(scales));
  return {"Table 2 (ablation)",
          "scaling prevents GP degenerating on extreme target ranges (\"GP "
          "will directly set a constant\")",
          format("at target scale %g: scaling on → %.0f%% recovery, %.0f%% "
                 "constant-collapse; scaling off → %.0f%% recovery, %.0f%% "
                 "constant-collapse; mean recovery over scales %g to %g: "
                 "on %.0f%%, off %.0f%%",
                 scales[0], extreme_with->recovered,
                 extreme_with->constant_collapse, extreme_without->recovered,
                 extreme_without->constant_collapse, scales[0],
                 scales[std::size(scales) - 1], with_total / n,
                 without_total / n),
          "constant-collapse reproduced, the paper's claim: with scaling on "
          "no trial sets a constant; under §4.2's full test GP almost never "
          "recovers `3*sqrt(X)+5` on either side, so the recovery cells do "
          "not separate them (fidelity gap 4)"};
}

Row ablation_filter() {
  const auto with = filter_run(true);
  const auto without = filter_run(false);
  const long gp_loss =
      static_cast<long>(with.gp) - static_cast<long>(without.gp);
  const long ls_loss = static_cast<long>(with.lin + with.poly) -
                       static_cast<long>(without.lin + without.poly);
  return {"§3.3 (ablation)",
          "two-stage ESV filtering removes OCR artifacts; GP robust to "
          "residual outliers",
          format("under 6x OCR stress, filter on → off: GP %zu → %zu, LinReg "
                 "%zu → %zu, Poly %zu → %zu (of %zu → %zu formulas); GP loses "
                 "%ld, least-squares baselines lose %ld",
                 with.gp, without.gp, with.lin, without.lin, with.poly,
                 without.poly, with.formulas, without.formulas, gp_loss,
                 ls_loss),
          "mechanism reproduced (this is also §4.4's robustness claim)"};
}

PaperTable measure() {
  auto catalog = catalog_rows();
  auto table11 = table11_ecrs();
  PaperTable table;
  table.rows = {table4_ocr(),
                table5_obd(),
                std::move(catalog.table6),
                std::move(catalog.table6_out_of_sample),
                std::move(catalog.table7),
                table8_work(),
                table9_frames(),
                std::move(catalog.table10),
                std::move(table11.row),
                table12_apps(),
                table13_attack(),
                planner(),
                ablation_scaling(),
                ablation_filter()};
  const std::size_t reads = catalog.formulas + catalog.enums;
  table.headline = format(
      "Headline: the fleet campaign recovers **%zu read messages (%zu with "
      "formulas + %zu enums) + %zu control messages = %zu reverse-engineered "
      "messages**, the paper's headline count by construction of the "
      "catalog, with GP correct on %s of the formulas.",
      reads, catalog.formulas, catalog.enums, table11.ecrs,
      reads + table11.ecrs,
      ratio(catalog.gp_correct, catalog.formulas).c_str());
  return table;
}

std::string render(const PaperTable& table) {
  std::string out(kBeginMarker);
  out += "\n| Id | Paper result | Measured here | Verdict |\n";
  out += "|---|---|---|---|\n";
  for (const auto& row : table.rows) {
    out += "| " + row.id + " | " + row.paper + " | " + row.measured + " | " +
           row.verdict + " |\n";
  }
  out += "\n" + table.headline + "\n";
  out += kEndMarker;
  out += '\n';
  return out;
}

std::vector<std::string> compare(std::string_view doc,
                                 const PaperTable& fresh) {
  const auto doc_lines = block_lines(doc);
  if (!doc_lines) {
    return {format("the doc has no block between \"%s\" and \"%s\"",
                   std::string(kBeginMarker).c_str(),
                   std::string(kEndMarker).c_str())};
  }
  const std::string rendered = render(fresh);
  const auto fresh_lines = *block_lines(rendered);
  if (*doc_lines == fresh_lines) return {};

  const auto doc_keyed = keyed(*doc_lines);
  const auto fresh_keyed = keyed(fresh_lines);
  const auto find = [](const auto& lines, const std::string& key)
      -> std::optional<std::string_view> {
    for (const auto& [k, line] : lines) {
      if (k == key) return line;
    }
    return std::nullopt;
  };
  std::vector<std::string> differences;
  for (const auto& [key, line] : fresh_keyed) {
    const auto in_doc = find(doc_keyed, key);
    if (!in_doc) {
      differences.push_back(key + " is missing from the doc\n  fresh: " +
                            std::string(line));
    } else if (*in_doc != line) {
      differences.push_back(key + " differs\n  doc:   " +
                            std::string(*in_doc) + "\n  fresh: " +
                            std::string(line));
    }
  }
  for (const auto& [key, line] : doc_keyed) {
    if (!find(fresh_keyed, key)) {
      differences.push_back(key + " is in the doc but not measured\n  doc:   " +
                            std::string(line));
    }
  }
  if (differences.empty()) {
    differences.push_back(
        "the doc has the same lines in a different order, or a line twice");
  }
  return differences;
}

}  // namespace dpr::bench
