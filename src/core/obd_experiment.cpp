#include "core/obd_experiment.hpp"

#include <algorithm>
#include <map>

#include "can/sniffer.hpp"
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
  util::SimClock clock;
  can::CanBus bus(clock);
  // The "vehicle simulator" of §4.2: any ISO-TP vehicle whose engine ECU
  // answers SAE J1979 mode-01 requests.
  vehicle::Vehicle vehicle(vehicle::CarId::kA, bus, clock, options.seed);
  diagtool::DiagnosticTool app(
      diagtool::profile_for(diagtool::ToolKind::kAutel919), vehicle, bus,
      clock);
  can::Sniffer sniffer(bus, util::DeviceClock(-10 * util::kMillisecond, 0));

  util::Rng rng(options.seed ^ 0x0BD);
  cps::OcrEngine ocr(rng.fork(), options.ocr_noise);
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
      static_cast<double>(util::kSecond) / options.video_fps);
  const util::SimTime deadline = clock.now() + options.duration;
  while (clock.now() < deadline) {
    app.run_for(frame_period);
    video.frames.push_back(camera.capture(clock.now()));
  }

  // --- Analysis --------------------------------------------------------------
  const auto messages =
      frames::assemble(sniffer.capture(), frames::TransportHint::kIsoTp);

  // X observations: mode-01 positive responses; the data bytes after the
  // PID are the raw operands (single-PID responses).
  struct PidSeries {
    std::vector<correlate::XSample> xs;
  };
  std::vector<std::uint8_t> pid_order;
  std::map<std::uint8_t, PidSeries> by_pid;
  for (const auto& msg : messages) {
    if (msg.payload.size() < 3 || msg.payload[0] != 0x41) continue;
    const std::uint8_t pid = msg.payload[1];
    auto it = by_pid.find(pid);
    if (it == by_pid.end()) {
      pid_order.push_back(pid);
      it = by_pid.emplace(pid, PidSeries{}).first;
    }
    correlate::XSample x;
    x.timestamp = msg.timestamp;
    for (std::size_t i = 2; i < msg.payload.size() && i < 4; ++i) {
      x.xs.push_back(static_cast<double>(msg.payload[i]));
    }
    it->second.xs.push_back(std::move(x));
  }

  // Y observations by layout row.
  auto samples = screenshot::extract_samples(video, ocr);
  samples = screenshot::filter_samples(std::move(samples));
  std::map<int, std::vector<correlate::YSample>> ys_by_row;
  std::map<int, std::vector<std::string>> names_by_row;
  for (const auto& sample : samples) {
    if (!sample.value) continue;
    ys_by_row[sample.row].push_back(
        correlate::YSample{sample.timestamp, *sample.value});
    names_by_row[sample.row].push_back(sample.name);
  }

  // Clock/display-latency offset from value changes (same estimator the
  // campaign uses for NTP-only vehicles).
  util::SimTime offset = 0;
  {
    std::vector<std::pair<std::vector<correlate::XSample>,
                          std::vector<correlate::YSample>>>
        series;
    std::size_t idx = 0;
    for (const auto& [row, ys] : ys_by_row) {
      if (idx >= pid_order.size()) break;
      series.emplace_back(by_pid[pid_order[idx++]].xs, ys);
    }
    if (const auto estimate = correlate::estimate_offset_by_changes(series)) {
      offset = estimate->offset;
    }
  }

  ObdExperimentReport report;
  std::size_t key_index = 0;
  for (const auto& [row, ys] : ys_by_row) {
    if (key_index >= pid_order.size()) break;
    const std::uint8_t pid = pid_order[key_index++];

    ObdFinding finding;
    finding.pid = pid;
    {
      std::map<std::string, int> votes;
      for (const auto& n : names_by_row[row]) ++votes[n];
      int best = 0;
      for (const auto& [n, c] : votes) {
        if (c > best) {
          best = c;
          finding.name = n;
        }
      }
    }
    char buf[16];
    std::snprintf(buf, sizeof buf, "01 %02X", pid);
    finding.request_message = buf;

    const auto spec = obd::find_pid(pid);
    if (spec) finding.truth_formula = "Y = " + spec->formula;

    finding.dataset = correlate::build_dataset(by_pid[pid].xs, ys, offset);
    gp::GpConfig config = options.gp;
    config.seed ^= pid;
    finding.gp = gp::infer_formula(finding.dataset, config);
    if (finding.gp && spec) {
      const auto truth = [&spec](std::span<const double> xs) {
        std::vector<std::uint8_t> bytes;
        for (double x : xs) bytes.push_back(static_cast<std::uint8_t>(x));
        return spec->decode(bytes);
      };
      finding.correct =
          gp::relative_error(*finding.gp, finding.dataset, truth).mean < 0.03;
    }
    report.findings.push_back(std::move(finding));
  }
  return report;
}

}  // namespace dpr::core
