#include "core/obd_experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "can/sniffer.hpp"
#include "core/analysis.hpp"
#include "cps/analyzer.hpp"
#include "cps/camera.hpp"
#include "cps/clicker.hpp"
#include "cps/ocr.hpp"
#include "diagtool/tool.hpp"
#include "frames/analysis.hpp"
#include "obd/pid.hpp"
#include "screenshot/extract.hpp"
#include "screenshot/filter.hpp"
#include "vehicle/vehicle.hpp"

namespace dpr::core {

std::size_t ObdExperimentReport::correct_count() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [](const ObdFinding& f) { return f.correct; }));
}

ObdExperimentReport run_obd_experiment(ObdExperimentOptions options) {
  constexpr std::uint64_t kSeed = 0xB0BD;
  constexpr double kVideoFps = 8.0;

  util::SimClock clock;
  can::CanBus bus(clock);
  // The "vehicle simulator" of §4.2: any ISO-TP vehicle whose engine ECU
  // answers SAE J1979 mode-01 requests.
  vehicle::Vehicle vehicle(vehicle::CarId::kA, bus, clock, kSeed);
  diagtool::DiagnosticTool app(
      diagtool::profile_for(diagtool::ToolKind::kAutel919), vehicle, bus,
      clock);
  can::Sniffer sniffer(bus, util::DeviceClock(-10 * util::kMillisecond, 0));

  util::Rng rng(kSeed ^ 0x0BD);
  cps::OcrEngine ocr(rng.fork());
  cps::UiAnalyzer analyzer(ocr, rng.fork());
  cps::RoboticClicker clicker(clock);
  cps::Camera camera(app, util::DeviceClock(45 * util::kMillisecond, 20.0),
                     app.profile().value_font_px);

  // Enter the OBD live view and record.
  {
    const auto shot = camera.capture(clock.now());
    const auto point = analyzer.find_button(shot, "OBD");
    if (!point) return {};
    clicker.move_and_click(point->x, point->y);
    app.click(point->x, point->y);
  }
  cps::VideoRecording video;
  const auto frame_period = static_cast<util::SimTime>(
      static_cast<double>(util::kSecond) / kVideoFps);
  const util::SimTime deadline = clock.now() + options.duration;
  while (clock.now() < deadline) {
    app.run_for(frame_period);
    video.frames.push_back(camera.capture(clock.now()));
  }

  // --- Analysis --------------------------------------------------------------
  // X observations: one series per PID in first-seen order, from the
  // mode-01 positive responses; the data bytes after the PID are the raw
  // operands (single-PID responses). A PID is keyed as its ISO 14229 DID
  // 0xF400 + PID.
  std::vector<Association> series;
  for (const auto& msg : frames::assemble(sniffer.capture(),
                                          frames::TransportHint::kIsoTp)) {
    if (msg.payload.size() < 3 || msg.payload[0] != 0x41) continue;
    const std::uint16_t did = 0xF400 | msg.payload[1];
    auto it = std::find_if(series.begin(), series.end(),
                           [did](const auto& a) { return a.did == did; });
    if (it == series.end()) {
      it = series.emplace(it);
      it->did = did;
    }
    correlate::XSample x;
    x.timestamp = msg.timestamp;
    for (std::size_t i = 2; i < msg.payload.size() && i < 4; ++i) {
      x.xs.push_back(static_cast<double>(msg.payload[i]));
    }
    it->xs.push_back(std::move(x));
  }

  const auto samples = screenshot::filter_samples(
      screenshot::extract_samples(video, ocr));
  const auto associations =
      pair_rows(std::move(series), samples,
                std::numeric_limits<util::SimTime>::min(),
                std::numeric_limits<util::SimTime>::max());
  const auto offset = estimate_offset(associations);

  ObdExperimentReport report;
  for (auto& signal :
       signal_findings(associations, offset ? offset->offset : 0)) {
    ObdFinding& finding = report.findings.emplace_back();
    finding.pid = static_cast<std::uint8_t>(signal.did & 0xFF);
    finding.name = std::move(signal.semantic_name);
    char request[16];
    std::snprintf(request, sizeof request, "01 %02X", finding.pid);
    finding.request_message = request;
    finding.dataset = std::move(signal.dataset);
    const auto spec = obd::find_pid(finding.pid);
    if (spec) finding.truth_formula = "Y = " + spec->formula;

    gp::GpConfig config = options.gp;
    config.seed ^= finding.pid;
    finding.gp = gp::infer_formula(finding.dataset, config);
    if (finding.gp && spec) {
      const auto truth = [&spec](std::span<const double> xs) {
        std::vector<std::uint8_t> bytes;
        for (double x : xs) bytes.push_back(static_cast<std::uint8_t>(x));
        return spec->decode(bytes);
      };
      finding.correct = recovered(
          gp::relative_error(*finding.gp, finding.dataset, truth));
    }
  }
  return report;
}

}  // namespace dpr::core
