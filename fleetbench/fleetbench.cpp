// Fleet benchmark: closed-loop reverse-engineering campaigns over a
// generated fleet, one car in flight, timed from outside the program.
//
// The fleet is vehicle::generate_fleet(GeneratorConfig{}, seed, N); each
// car is one core::Campaign (two for `resume`). The cars run in order, one
// at a time, in whole passes over the fleet until --seconds have elapsed.
// Count and fraction metrics come from the first pass, so they repeat
// exactly for a seed; timing metrics are medians over the passes. See
// README.md for the workloads, the metrics and what each should move.
//
// Usage:
//   fleetbench --workload <infer|capture|resume> --seed <n> --seconds <s>
//              --trace <0|1> --work-dir <dir> [--trace-out <file>]
//   fleetbench --self-test
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. The exit code is nonzero when any output check
// fails.

#include <malloc.h>
#include <time.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "gp/kernels.hpp"
#include "screenshot/filter.hpp"
#include "trace.hpp"
#include "util/simd_philox.hpp"
#include "vehicle/generator.hpp"

#ifndef FLEETBENCH_COMPILER
#define FLEETBENCH_COMPILER "unknown"
#endif
#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif

namespace fleetbench {
namespace {

using namespace dpr;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds used by this process. The timed calls are CPU-bound except
/// for `resume`'s fsyncs, whose wait on the shared disk swung its car
/// timings by half from one few-minute stretch to the next; CPU time keeps
/// the syscalls' own cost and leaves the wait out.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Cars in the fleet of every workload, so in one pass. Per-car cost
/// varies widely (on `infer` from 7 ms to over 100 ms), so which cars a
/// seed draws moves the figures: with 128 cars `infer`'s car_s.p50 spread
/// by 25% across seeds, against 1.4% for repeats of one seed.
constexpr std::size_t kFleetSize = 512;
/// The quality line also reports the first this-many cars, the fleet of
/// `dpreverser --generate 128` at the same seed.
constexpr std::size_t kCliFleetSize = 128;
/// Set-up is repeated this often per run and its median reported.
constexpr int kSetupRepeats = 31;
/// `resume` interrupts each car after this phase (associate).
constexpr int kInterruptAfterPhase = 4;
constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
/// Median time of time_reference_work() on the 4-core 2.1 GHz Xeon VM the
/// benchmark was written on; timings are scaled to a host that runs the
/// reference in this time.
constexpr double kReferenceNominalS = 330e-6;
/// Reference runs timed after each car.
constexpr int kReferenceRepeats = 2;

struct Workload {
  std::string name;
  core::CampaignOptions options;
  /// Each car runs interrupted after kInterruptAfterPhase, then resumed.
  bool resume = false;
};

/// The options `dpreverser --generate` uses, run serially: one car in
/// flight and no thread pool, so the box measures the program and not the
/// scheduler.
core::CampaignOptions generate_options() {
  core::CampaignOptions options;
  options.live_window = 16 * util::kSecond;
  options.video_fps = 10.0;
  options.gp.population = 192;
  options.infer_threads = 1;
  return options;
}

std::optional<Workload> make_workload(const std::string& name) {
  Workload workload;
  workload.name = name;
  workload.options = generate_options();
  if (name == "infer") return workload;
  if (name == "capture") {
    workload.options.run_inference = false;
    workload.options.run_baselines = false;
    workload.options.live_window = 60 * util::kSecond;
    workload.options.faults.rate = 0.02;
    workload.options.faults.session_faults = true;
    workload.options.faults.nm = true;
    return workload;
  }
  if (name == "resume") {
    workload.options.run_inference = false;
    workload.options.live_window = 4 * util::kSecond;
    workload.resume = true;
    return workload;
  }
  return std::nullopt;
}

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

bool same_census(const frames::FrameCensus& a, const frames::FrameCensus& b) {
  return a.single_frames == b.single_frames &&
         a.first_frames == b.first_frames &&
         a.consecutive_frames == b.consecutive_frames &&
         a.flow_control_frames == b.flow_control_frames &&
         a.vwtp_data_last == b.vwtp_data_last &&
         a.vwtp_data_more == b.vwtp_data_more &&
         a.vwtp_control == b.vwtp_control && a.other == b.other;
}

bool same_fit(const std::optional<regress::FitResult>& a,
              const std::optional<regress::FitResult>& b) {
  return a.has_value() == b.has_value() && (!a || a->formula == b->formula);
}

/// Host facts stamped on every result, so figures from different hosts or
/// builds are never compared.
std::string host_json() {
  const char* tape = !gp::simd_compiled()    ? "not-compiled"
                     : !gp::simd_supported() ? "unsupported"
                     : gp::simd_enabled()    ? "avx2"
                                             : "scalar";
  const char* philox =
      util::philox4() == &util::philox2x64x4_scalar ? "scalar" : "avx2";
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + json_string(FLEETBENCH_COMPILER) +
         ", \"build_type\": " + json_string(FLEETBENCH_BUILD_TYPE) +
         ", \"gp_tape\": " + json_string(tape) +
         ", \"philox\": " + json_string(philox) + "}";
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Counts and fractions over the first pass (they repeat exactly).
struct Quality {
  std::size_t cars = 0;
  std::size_t signals = 0;
  std::size_t formula_signals = 0;
  std::size_t gp_correct = 0;
  std::size_t ecrs = 0;
  std::size_t ecrs_correct = 0;
  std::uint64_t transactions = 0;
  std::uint64_t transaction_failures = 0;

  void add(const core::CampaignReport& report) {
    ++cars;
    signals += report.signals.size();
    formula_signals += report.formula_signals();
    gp_correct += report.gp_correct();
    ecrs += report.ecrs.size();
    for (const auto& ecr : report.ecrs) ecrs_correct += ecr.matches_truth;
    transactions += report.transactions.transactions;
    transaction_failures += report.transactions.failures;
  }
};

/// Signature of a fresh run of `spec` without checkpoints; empty when the
/// campaign throws.
std::string fresh_signature(const vehicle::CarSpec& spec,
                            const core::CampaignOptions& options) {
  try {
    core::Campaign campaign(spec, options);
    campaign.run();
    return core::report_signature(campaign.report());
  } catch (const std::exception&) {
    return {};
  }
}

volatile double reference_sink = 0.0;

/// Times a fixed piece of CPU work that shares no code with the program:
/// sort a copy of 4096 pseudo-random doubles and fold them through log and
/// sin. Timed after every car, its median tracks how fast the host ran
/// during the run; neighbours on a shared host move it by tens of percent
/// between runs, and the car timings with it.
double time_reference_work() {
  static const std::vector<double> base = [] {
    std::vector<double> values(4096);
    std::uint64_t x = 42;
    for (auto& value : values) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      value = static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    return values;
  }();
  const double start = cpu_seconds();
  std::vector<double> values = base;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (const double value : values) {
    sum += std::log(value + 1.0) * std::sin(value);
  }
  reference_sink = sum;  // keeps the work from being optimized away
  return cpu_seconds() - start;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Output checks: every mismatch is printed and makes the run incorrect.
struct Checks {
  std::size_t mismatches = 0;
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    if (++mismatches <= 20) {
      std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
    }
  }
};

/// Per-layer counters summed over traced cars; per-car means are taken
/// at the end.
using Sums = std::map<std::string, double>;

struct CarOutcome {
  bool completed = false;
  double campaign_s = 0.0;  // construct + run, summed over both runs
  std::unique_ptr<core::Campaign> campaign;  // the finished (last) run
};

class CarRunner {
 public:
  CarRunner(const Workload& workload, Trace& trace, Checks& checks,
            core::CheckpointStore* store, core::CheckpointStore* scratch)
      : workload_(workload),
        trace_(trace),
        checks_(checks),
        store_(store),
        scratch_(scratch) {}

  /// Runs one car and times its campaign calls. With tracing on, the
  /// layer replays run and are summed into `sums`.
  CarOutcome run(const vehicle::CarSpec& spec, std::uint32_t car,
                 Sums& sums) {
    CarOutcome out;
    Scope car_span(trace_, "car", car);
    try {
      if (workload_.resume) {
        run_resumed(spec, car, out, sums);
      } else {
        const double start = cpu_seconds();
        {
          Scope span(trace_, "core.campaign", car);
          out.campaign = std::make_unique<core::Campaign>(spec,
                                                          workload_.options);
          if (trace_.enabled()) {
            {
              Scope collect(trace_, "core.collect", car);
              out.campaign->collect();
            }
            Scope analyze(trace_, "core.analyze", car);
            out.campaign->analyze();
          } else {
            out.campaign->run();
          }
        }
        out.campaign_s = cpu_seconds() - start;
      }
      out.completed = out.campaign->report().completed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "car %s failed: %s\n", spec.label.c_str(),
                   e.what());
      out.completed = false;
    }
    if (out.completed && trace_.enabled()) {
      replay_layers(spec, *out.campaign, car, sums);
    }
    return out;
  }

 private:
  void run_resumed(const vehicle::CarSpec& spec, std::uint32_t car,
                   CarOutcome& out, Sums& sums) {
    core::CampaignOptions options = workload_.options;
    options.checkpoint_dir = store_->dir();
    options.stop_after_phase = kInterruptAfterPhase;
    std::uint64_t key = 0;
    std::uint64_t digest = 0;
    double start = cpu_seconds();
    {
      Scope span(trace_, "core.run_interrupted", car);
      core::Campaign interrupted(spec, options);
      interrupted.run();
      key = interrupted.checkpoint_car_key();
      digest = interrupted.checkpoint_options_digest();
    }
    out.campaign_s = cpu_seconds() - start;
    check_checkpoint(spec, key, digest, car, sums);
    options.stop_after_phase = -1;
    options.resume = true;
    start = cpu_seconds();
    {
      Scope span(trace_, "core.run_resumed", car);
      out.campaign = std::make_unique<core::Campaign>(spec, options);
      out.campaign->run();
    }
    out.campaign_s += cpu_seconds() - start;
  }

  /// Checks, outside the timed calls, that the interrupted run left a
  /// loadable checkpoint at kInterruptAfterPhase, so that the resumed run
  /// really resumes: a run that silently starts over would give the same
  /// report. With tracing on, this also replays the car's checkpoint
  /// traffic against the store layer: heal() over the run's directory
  /// before the load, then as many saves as the two runs make (one per
  /// phase) and one remove, into a scratch store.
  void check_checkpoint(const vehicle::CarSpec& spec, std::uint64_t key,
                        std::uint64_t digest, std::uint32_t car,
                        Sums& sums) {
    const std::uint64_t seed = workload_.options.seed;
    Scope group(trace_, "core.ckpt", car);
    if (trace_.enabled()) {
      Scope span(trace_, "core.ckpt.heal", car);
      store_->heal();
    }
    core::CheckpointStore::LoadResult loaded;
    {
      Scope span(trace_, "core.ckpt.load", car);
      loaded = store_->load(key, seed, digest);
    }
    checks_.expect(loaded.has_value() &&
                       loaded->phase ==
                           static_cast<std::uint32_t>(kInterruptAfterPhase),
                   spec.label + ": the interrupted run left no loadable "
                                "checkpoint");
    if (!loaded || !trace_.enabled()) return;
    sums["core.ckpt.bytes"] += static_cast<double>(loaded->payload.size());
    for (std::uint32_t phase = 0; phase < core::Campaign::kNumPhases;
         ++phase) {
      util::IoResult saved;
      {
        Scope span(trace_, "core.ckpt.save", car);
        saved = scratch_->save(key, seed, digest, phase, loaded->payload);
      }
      if (!saved) {
        checks_.expect(false, "checkpoint save failed: " + saved.message());
      }
    }
    Scope span(trace_, "core.ckpt.remove", car);
    scratch_->remove(key, seed, digest);
  }

  /// Replays the public entry points of each analysis layer on the car's
  /// artifacts, checking each replay against the report.
  void replay_layers(const vehicle::CarSpec& spec,
                     const core::Campaign& campaign, std::uint32_t car,
                     Sums& sums) {
    const auto& report = campaign.report();
    const auto& capture = campaign.capture();
    const auto& options = workload_.options;

    sums["can.frames"] += static_cast<double>(capture.size());
    sums["util.fault.delivered"] += report.bus_faults.delivered;
    sums["util.fault.dropped"] += report.bus_faults.dropped;
    sums["util.fault.corrupted"] += report.bus_faults.corrupted;
    sums["util.fault.duplicated"] += report.bus_faults.duplicated;
    sums["nm.frames_sent"] += report.nm.nm_frames_sent;
    sums["nm.sleeps"] += report.nm.sleeps;
    sums["nm.wakeups"] += report.nm.wakeups;
    sums["nm.frames_lost_to_sleep"] += report.nm.frames_lost_to_sleep;
    sums["diagtool.transactions"] += report.transactions.transactions;
    sums["diagtool.retries"] += report.transactions.retries;
    sums["diagtool.busy_retries"] += report.transactions.busy_retries;
    sums["diagtool.pending_waits"] += report.transactions.pending_waits;
    sums["diagtool.keepalives"] += report.session_stats.keepalives;
    sums["diagtool.sessions_lost"] += report.session_stats.sessions_lost;
    sums["cps.video_frames"] +=
        static_cast<double>(campaign.video().frames.size());
    sums["cps.ocr_strings"] +=
        static_cast<double>(report.ocr_stats.strings_read);
    sums["cps.ocr_correct"] +=
        static_cast<double>(report.ocr_stats.strings_correct);

    const auto hint = hint_for(spec.transport);
    frames::FrameCensus census;
    std::vector<frames::DiagMessage> messages;
    frames::ExtractionResult extraction;
    {
      Scope group(trace_, "frames", car);
      {
        Scope span(trace_, "frames.census", car);
        census = frames::census(capture, hint);
      }
      {
        Scope span(trace_, "frames.assemble", car);
        messages = frames::assemble(capture, hint);
      }
      Scope span(trace_, "frames.extract_fields", car);
      extraction = frames::extract_fields(messages);
    }
    checks_.expect(same_census(census, report.census),
                   spec.label + ": census replay differs from the report");
    checks_.expect(messages.size() == report.messages_assembled,
                   spec.label + ": assemble replay differs from the report");
    sums["frames.messages"] += static_cast<double>(messages.size());
    sums["frames.esvs"] += static_cast<double>(extraction.esvs.size());
    sums["frames.unmatched"] +=
        static_cast<double>(extraction.unmatched_responses);

    {
      // A fresh engine on the campaign's OCR seed: the replay costs what
      // the campaign's screenshot analysis costs without sharing its
      // RNG position.
      cps::OcrEngine ocr(util::Rng(options.seed ^ 0xCB5).fork(),
                         options.ocr_noise, options.ocr_rate_scale);
      Scope group(trace_, "screenshot", car);
      std::vector<screenshot::UiSample> samples;
      {
        Scope span(trace_, "screenshot.extract_samples", car);
        samples = screenshot::extract_samples(campaign.video(), ocr);
      }
      Scope span(trace_, "screenshot.filter_samples", car);
      samples = screenshot::filter_samples(std::move(samples));
      sums["screenshot.samples"] += static_cast<double>(samples.size());
    }

    if (options.run_inference) {
      Scope group(trace_, "gp", car);
      for (const auto& finding : report.signals) {
        if (finding.is_enum) continue;
        gp::GpConfig config = options.gp;
        config.seed ^= (static_cast<std::uint64_t>(finding.did) << 16) ^
                       finding.local_id ^ (finding.esv_index << 8);
        std::optional<gp::GpResult> result;
        {
          Scope span(trace_, "gp.infer", car);
          result = gp::infer_formula(finding.dataset, config);
        }
        checks_.expect(
            result.has_value() == finding.gp.has_value() &&
                (!result || result->formula == finding.gp->formula),
            spec.label + " " + finding.request_message +
                ": GP replay formula differs from the report");
        if (!result) continue;
        const auto& t = result->timings;
        sums["gp.scoring_s"] += t.scoring_s;
        sums["gp.tuning_s"] += t.tuning_s;
        sums["gp.breeding_s"] += t.breeding_s;
        sums["gp.evaluations"] += static_cast<double>(t.evaluations);
        sums["gp.cache_hits"] += static_cast<double>(t.cache_hits);
        sums["gp.cache_lookups"] +=
            static_cast<double>(t.cache_hits + t.cache_misses);
        sums["gp.generations"] += static_cast<double>(result->generations_run);
        sums["gp.converged"] += result->converged ? 1.0 : 0.0;
        sums["gp.results"] += 1.0;
      }
    }

    // The campaign fits baselines only next to inference, so the replay
    // runs under the same condition.
    if (options.run_inference && options.run_baselines) {
      Scope group(trace_, "regress", car);
      for (const auto& finding : report.signals) {
        if (finding.is_enum) continue;
        std::optional<regress::FitResult> linear;
        std::optional<regress::FitResult> polynomial;
        {
          Scope span(trace_, "regress.fit", car);
          linear = regress::fit_linear(finding.dataset);
          polynomial = regress::fit_polynomial(finding.dataset);
        }
        checks_.expect(same_fit(linear, finding.linear) &&
                           same_fit(polynomial, finding.polynomial),
                       spec.label + " " + finding.request_message +
                           ": regression replay differs from the report");
      }
    }
  }

  const Workload& workload_;
  Trace& trace_;
  Checks& checks_;
  core::CheckpointStore* store_;
  core::CheckpointStore* scratch_;
};

/// Result of one measured loop: whole passes over the fleet.
struct Loop {
  std::vector<double> car_s;        // campaign seconds of completed cars
  std::vector<double> fleet_car_s;  // the same, for the first pass only
  // Host-scaled figures of each pass; the metrics are their medians.
  std::vector<double> pass_cars_per_s;
  std::vector<double> pass_p50;
  std::vector<double> pass_p90;
  std::vector<double> reference_s;  // every reference work time
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t fleet_failed = 0;  // failures in the first pass
  std::size_t passes = 0;
  double elapsed_s = 0.0;

  /// Adds one pass's completed car timings, scaled by how fast the host
  /// ran the reference work during that pass, so that host speed drift
  /// within and between runs cancels.
  void add_pass(const std::vector<double>& pass_car_s,
                const std::vector<double>& pass_reference_s) {
    const double scale =
        ratio(kReferenceNominalS, percentile(pass_reference_s, 0.5));
    double total = 0.0;
    for (const double s : pass_car_s) total += s;
    car_s.insert(car_s.end(), pass_car_s.begin(), pass_car_s.end());
    reference_s.insert(reference_s.end(), pass_reference_s.begin(),
                       pass_reference_s.end());
    pass_cars_per_s.push_back(
        ratio(static_cast<double>(pass_car_s.size()), total * scale));
    pass_p50.push_back(percentile(pass_car_s, 0.5) * scale);
    pass_p90.push_back(percentile(pass_car_s, 0.9) * scale);
    ++passes;
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  bool self_test = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0.0;
    } else if (arg == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--work-dir") {
      args.work_dir = value;
    } else if (arg == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (args.self_test) return args;
  if (!have_seed || !have_seconds || !have_trace || args.work_dir.empty()) {
    return std::nullopt;
  }
  return args;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Per-name span totals of a trace: summed duration, summed self time and
/// call count.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  std::size_t calls = 0;
  std::vector<double> durations;
};

std::map<std::string, SpanTotals> span_totals(const Trace& trace) {
  std::map<std::string, SpanTotals> totals;
  const auto& spans = trace.spans();
  const auto self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& entry = totals[spans[i].name];
    entry.total_s += spans[i].duration();
    entry.self_s += self[i];
    ++entry.calls;
    entry.durations.push_back(spans[i].duration());
  }
  return totals;
}

void write_trace_file(const std::string& path, const Args& args,
                      const Trace& trace,
                      const std::map<std::string, SpanTotals>& totals,
                      const std::vector<Metric>& metrics,
                      std::uint64_t digest) {
  std::ofstream out(path);
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  out << "{\"workload\": " << json_string(args.workload)
      << ", \"seed\": " << args.seed << ", \"host\": " << host_json()
      << ", \"digest\": " << json_string(digest_hex)
      << ",\n \"metrics\": " << metrics_json(metrics) << ",\n \"layers\": {";
  bool first = true;
  for (const auto& [name, entry] : totals) {
    out << (first ? "\n  " : ",\n  ") << json_string(name)
        << ": {\"total_s\": " << json_number(entry.total_s)
        << ", \"self_s\": " << json_number(entry.self_s)
        << ", \"calls\": " << entry.calls << "}";
    first = false;
  }
  out << "},\n \"spans\": [";
  const auto& spans = trace.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"name\": "
        << json_string(spans[i].name)
        << ", \"start\": " << json_number(spans[i].start)
        << ", \"end\": " << json_number(spans[i].end)
        << ", \"parent\": " << spans[i].parent
        << ", \"car\": " << spans[i].car << "}";
  }
  out << "]}\n";
  if (!out) {
    std::fprintf(stderr, "could not write trace file %s\n", path.c_str());
  }
}

int run(const Args& args) {
  const auto workload = make_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s' (infer, capture, resume)\n",
                 args.workload.c_str());
    return 2;
  }

  // --- Set-up: generate the fleet and create the checkpoint stores,
  // several times. Each set-up is scaled by the reference work timed right
  // after it; setup_s is the median scaled set-up.
  const fs::path run_dir =
      fs::path(args.work_dir) / ("run-" + std::to_string(getpid()));
  std::vector<vehicle::CarSpec> specs;
  std::optional<core::CheckpointStore> store;
  std::optional<core::CheckpointStore> scratch;
  std::vector<double> setup_samples;
  std::vector<double> setup_scaled;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    fs::remove_all(run_dir);
    store.reset();
    scratch.reset();
    specs.clear();
    const double start = cpu_seconds();
    specs = vehicle::generate_fleet(vehicle::GeneratorConfig{}, args.seed,
                                    kFleetSize);
    if (workload->resume) {
      store.emplace((run_dir / "ckpt").string());
      scratch.emplace((run_dir / "scratch").string());
    }
    const double setup = cpu_seconds() - start;
    setup_samples.push_back(setup);
    setup_scaled.push_back(setup *
                           ratio(kReferenceNominalS, time_reference_work()));
  }

  Checks checks;
  Trace trace(args.trace);
  CarRunner runner(*workload, trace, checks, store ? &*store : nullptr,
                   scratch ? &*scratch : nullptr);
  Sums sums;
  Quality quality;
  Quality cli_quality;  // the first kCliFleetSize cars
  std::uint64_t digest = kFnvBasis;
  std::string first_signature;

  // Per fleet car, the hash of its first-pass signature.
  std::vector<std::uint64_t> first_pass(specs.size(), 0);

  // --- Measured loop: the fleet's cars in order, one in flight, pass
  // after pass until --seconds have elapsed. Only whole passes run, so
  // every run times the same cars equally often whatever the host speed.
  // The first pass gives the counts, fractions and digest; every later run
  // of a car must give its first-pass report. Checks run outside the
  // timed calls.
  Loop loop;
  const auto loop_start = Clock::now();
  for (std::size_t pass = 0; pass == 0 || loop.elapsed_s < args.seconds;
       ++pass) {
    std::vector<double> pass_car_s;
    std::vector<double> pass_reference_s;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const vehicle::CarSpec& spec = specs[i];
      ++loop.attempted;
      const auto outcome =
          runner.run(spec, static_cast<std::uint32_t>(i), sums);
      if (outcome.completed) {
        pass_car_s.push_back(outcome.campaign_s);
        if (pass == 0) loop.fleet_car_s.push_back(outcome.campaign_s);
        for (int repeat = 0; repeat < kReferenceRepeats; ++repeat) {
          pass_reference_s.push_back(time_reference_work());
        }
      } else {
        ++loop.failed;
        if (pass == 0) ++loop.fleet_failed;
      }
      const std::string signature =
          outcome.completed
              ? core::report_signature(outcome.campaign->report())
              : "FAILED " + spec.label + "\n";
      const std::uint64_t hash = util::fnv1a64_str(signature, kFnvBasis);
      if (pass > 0) {
        checks.expect(hash == first_pass[i],
                      spec.label + ": a repeated run gives another report");
        continue;
      }
      first_pass[i] = hash;
      digest = util::fnv1a64_str(signature, digest);
      if (!outcome.completed) continue;
      if (i == 0) first_signature = signature;
      quality.add(outcome.campaign->report());
      if (i < kCliFleetSize) cli_quality.add(outcome.campaign->report());
      if (workload->resume) {
        checks.expect(
            fresh_signature(spec, workload->options) == signature,
            spec.label + ": resumed report differs from an uninterrupted run");
      }
    }
    loop.add_pass(pass_car_s, pass_reference_s);
    loop.elapsed_s = seconds_since(loop_start);
  }
  if (!first_signature.empty()) {
    checks.expect(fresh_signature(specs[0], workload->options) ==
                      first_signature,
                  specs[0].label + ": a second run gives another report");
  }

  // The end-to-end timings are host-scaled (see Loop::add_pass); the
  // unscaled ones are printed for reference. Each timing metric is the
  // median over passes, so one pass caught in a burst of slow disk or a
  // busy neighbour does not move it.
  double campaign_total = 0.0;
  for (const double s : loop.car_s) campaign_total += s;
  const double unscaled_cars_per_s =
      ratio(static_cast<double>(loop.car_s.size()), campaign_total);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", percentile(setup_scaled, 0.5), "s"},
        {"cars_per_s", percentile(loop.pass_cars_per_s, 0.5), "1/s"},
        {"car_s.p50", percentile(loop.pass_p50, 0.5), "s"},
        {"car_s.p90", percentile(loop.pass_p90, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"car_ok_frac",
         ratio(static_cast<double>(specs.size() - loop.fleet_failed),
               static_cast<double>(specs.size())),
         "ratio"},
        {"signals_per_car",
         ratio(static_cast<double>(quality.signals),
               static_cast<double>(quality.cars)),
         "signals/car"},
        {"ecr_correct_frac",
         ratio(static_cast<double>(quality.ecrs_correct),
               static_cast<double>(quality.ecrs)),
         "ratio"},
        // Without inference no formula is inferred, so none is wrong: the
        // workloads that run no GP report 1.
        {"gp_correct_frac",
         workload->options.run_inference
             ? ratio(static_cast<double>(quality.gp_correct),
                     static_cast<double>(quality.formula_signals))
             : 1.0,
         "ratio"},
        {"txn_ok_frac",
         ratio(static_cast<double>(quality.transactions -
                                   quality.transaction_failures),
               static_cast<double>(quality.transactions)),
         "ratio"},
    };
  } else {
    // The traced loop's campaign calls against an untraced pass over the
    // same cars: the difference of the medians is the tracing overhead.
    std::vector<double> untraced;
    {
      Trace off(false);
      CarRunner plain(*workload, off, checks, store ? &*store : nullptr,
                      scratch ? &*scratch : nullptr);
      Sums ignored;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto outcome =
            plain.run(specs[i], static_cast<std::uint32_t>(i), ignored);
        if (outcome.completed) untraced.push_back(outcome.campaign_s);
      }
    }
    const auto totals = span_totals(trace);
    const double cars = static_cast<double>(loop.car_s.size());
    auto total = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.total_s;
    };
    auto calls = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : static_cast<double>(it->second.calls);
    };
    auto call_percentile = [&](const char* name, double q) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : percentile(it->second.durations, q);
    };
    auto self_with_prefix = [&](const std::string& prefix) {
      double self = 0.0;
      for (const auto& [name, entry] : totals) {
        if (name == prefix || name.rfind(prefix + ".", 0) == 0) {
          self += entry.self_s;
        }
      }
      return self;
    };
    auto per_car = [&](double value) { return ratio(value, cars); };
    auto sum = [&](const char* name) {
      const auto it = sums.find(name);
      return it == sums.end() ? 0.0 : it->second;
    };
    const double campaign =
        total("core.campaign") + total("core.run_interrupted") +
        total("core.run_resumed");
    const double replays = total("frames") + total("screenshot") +
                           total("gp") + total("regress");
    const double analyze = total("core.analyze");
    const double runs = total("core.run_interrupted") +
                        total("core.run_resumed");
    const double collect = workload->resume ? total("core.run_interrupted")
                                            : total("core.collect");
    // heal() is not part of a campaign's own store traffic (the fleet
    // runner calls it once per resumed fleet), so it is kept out of the
    // checkpoint share of the campaign calls.
    const double ckpt_traffic = total("core.ckpt") - total("core.ckpt.heal");

    metrics = {
        {"core.campaign_s", per_car(campaign), "s/car"},
        {"core.collect_s", per_car(total("core.collect")), "s/car"},
        {"core.analyze_s", per_car(analyze), "s/car"},
        {"core.analyze_other_s",
         analyze > 0.0 ? per_car(analyze - replays) : 0.0, "s/car"},
        {"core.run_interrupted_s", per_car(total("core.run_interrupted")),
         "s/car"},
        {"core.run_resumed_s", per_car(total("core.run_resumed")), "s/car"},
        {"core.run_other_s", runs > 0.0 ? per_car(runs - ckpt_traffic) : 0.0,
         "s/car"},
        {"can.frames", per_car(sum("can.frames")), "frames/car"},
        {"can.frames_per_collect_s", ratio(sum("can.frames"), collect), "1/s"},
        {"util.fault.delivered", per_car(sum("util.fault.delivered")),
         "count/car"},
        {"util.fault.dropped", per_car(sum("util.fault.dropped")), "count/car"},
        {"util.fault.corrupted", per_car(sum("util.fault.corrupted")),
         "count/car"},
        {"util.fault.duplicated", per_car(sum("util.fault.duplicated")),
         "count/car"},
        {"nm.frames_sent", per_car(sum("nm.frames_sent")), "frames/car"},
        {"nm.sleeps", per_car(sum("nm.sleeps")), "count/car"},
        {"nm.wakeups", per_car(sum("nm.wakeups")), "count/car"},
        {"nm.frames_lost_to_sleep", per_car(sum("nm.frames_lost_to_sleep")),
         "frames/car"},
        {"diagtool.transactions", per_car(sum("diagtool.transactions")),
         "count/car"},
        {"diagtool.retries", per_car(sum("diagtool.retries")), "count/car"},
        {"diagtool.busy_retries", per_car(sum("diagtool.busy_retries")),
         "count/car"},
        {"diagtool.pending_waits", per_car(sum("diagtool.pending_waits")),
         "count/car"},
        {"diagtool.keepalives", per_car(sum("diagtool.keepalives")),
         "count/car"},
        {"diagtool.sessions_lost", per_car(sum("diagtool.sessions_lost")),
         "count/car"},
        {"cps.video_frames", per_car(sum("cps.video_frames")), "frames/car"},
        {"cps.ocr_strings", per_car(sum("cps.ocr_strings")), "count/car"},
        {"cps.ocr_precision", ratio(sum("cps.ocr_correct"),
                                    sum("cps.ocr_strings")),
         "ratio"},
        {"frames.census_s", per_car(total("frames.census")), "s/car"},
        {"frames.assemble_s", per_car(total("frames.assemble")), "s/car"},
        {"frames.extract_fields_s", per_car(total("frames.extract_fields")),
         "s/car"},
        {"frames.messages", per_car(sum("frames.messages")), "count/car"},
        {"frames.esvs", per_car(sum("frames.esvs")), "count/car"},
        {"frames.unmatched_frac",
         ratio(sum("frames.unmatched"), sum("frames.messages")), "ratio"},
        {"screenshot.extract_samples_s",
         per_car(total("screenshot.extract_samples")), "s/car"},
        {"screenshot.filter_samples_s",
         per_car(total("screenshot.filter_samples")), "s/car"},
        {"screenshot.samples", per_car(sum("screenshot.samples")),
         "count/car"},
        {"gp.infer_s.p50", call_percentile("gp.infer", 0.5), "s"},
        {"gp.infer_s.p90", call_percentile("gp.infer", 0.9), "s"},
        {"gp.infer_s.per_car", per_car(total("gp.infer")), "s/car"},
        {"gp.infers", per_car(calls("gp.infer")), "count/car"},
        {"gp.scoring_s", per_car(sum("gp.scoring_s")), "s/car"},
        {"gp.tuning_s", per_car(sum("gp.tuning_s")), "s/car"},
        {"gp.breeding_s", per_car(sum("gp.breeding_s")), "s/car"},
        {"gp.evaluations", per_car(sum("gp.evaluations")), "count/car"},
        {"gp.evals_per_s", ratio(sum("gp.evaluations"), sum("gp.scoring_s")),
         "1/s"},
        {"gp.cache_hit_rate", ratio(sum("gp.cache_hits"),
                                    sum("gp.cache_lookups")),
         "ratio"},
        {"gp.generations", ratio(sum("gp.generations"), sum("gp.results")),
         "count"},
        {"gp.converged_frac", ratio(sum("gp.converged"), sum("gp.results")),
         "ratio"},
        {"gp.self_share", ratio(self_with_prefix("gp"), campaign), "ratio"},
        {"regress.fit_s", per_car(total("regress.fit")), "s/car"},
        {"core.ckpt.heal_s", ratio(total("core.ckpt.heal"),
                                   calls("core.ckpt.heal")),
         "s"},
        {"core.ckpt.load_s", ratio(total("core.ckpt.load"),
                                   calls("core.ckpt.load")),
         "s"},
        {"core.ckpt.save_s", ratio(total("core.ckpt.save"),
                                   calls("core.ckpt.save")),
         "s"},
        {"core.ckpt.remove_s", ratio(total("core.ckpt.remove"),
                                     calls("core.ckpt.remove")),
         "s"},
        {"core.ckpt.bytes", per_car(sum("core.ckpt.bytes")), "bytes/car"},
        {"core.ckpt.per_car_s", per_car(ckpt_traffic), "s/car"},
        {"core.ckpt.self_share",
         ratio(self_with_prefix("core.ckpt") - total("core.ckpt.heal"),
               campaign),
         "ratio"},
        {"trace.overhead_s",
         percentile(loop.fleet_car_s, 0.5) - percentile(untraced, 0.5),
         "s"},
    };
    if (!args.trace_out.empty()) {
      write_trace_file(args.trace_out, args, trace, totals, metrics, digest);
    }
  }

  std::error_code ignored;
  fs::remove_all(run_dir, ignored);

  std::printf("fleetbench: workload=%s seed=%llu fleet=%zu trace=%d\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(args.seed), specs.size(),
              args.trace ? 1 : 0);
  std::printf("host: %s\n", host_json().c_str());
  std::printf("loop: %zu passes, %zu cars attempted, %zu failed, %zu timed "
              "samples, %.3f s\n",
              loop.passes, loop.attempted, loop.failed, loop.car_s.size(),
              loop.elapsed_s);
  std::printf("quality (fleet): signals %zu, GP correct %zu/%zu, "
              "ECR correct %zu/%zu, transactions failed %llu/%llu\n",
              quality.signals, quality.gp_correct, quality.formula_signals,
              quality.ecrs_correct, quality.ecrs,
              static_cast<unsigned long long>(quality.transaction_failures),
              static_cast<unsigned long long>(quality.transactions));
  std::printf("quality (first %zu cars): signals %zu, GP correct %zu/%zu\n",
              kCliFleetSize, cli_quality.signals, cli_quality.gp_correct,
              cli_quality.formula_signals);
  std::printf("host speed: reference work %.3f us (nominal %.0f us); "
              "unscaled setup_s %.6f, cars_per_s %.3f, car_s.p50 %.6f, "
              "car_s.p90 %.6f\n",
              percentile(loop.reference_s, 0.5) * 1e6,
              kReferenceNominalS * 1e6, percentile(setup_samples, 0.5),
              unscaled_cars_per_s, percentile(loop.car_s, 0.5),
              percentile(loop.car_s, 0.9));
  std::printf("digest: %016llx\n", static_cast<unsigned long long>(digest));
  std::printf("checks: %zu mismatches\n", checks.mismatches);
  const bool correct = checks.mismatches == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", loop.attempted, loop.failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  const auto args = fleetbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload <infer|capture|resume> "
                 "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
                 "[--trace-out <file>]\n"
                 "       fleetbench --self-test\n");
    return 2;
  }
  if (args->self_test) {
    const int failures = fleetbench::run_self_test();
    std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  // Freed memory stays in the process instead of going back to the
  // kernel. Re-faulting returned pages cost 1 to 7 s of system time per
  // 25 s `infer` pass, depending on the host's memory pressure and not on
  // the program, more than any bound allows.
  if (mallopt(M_MMAP_THRESHOLD, 32 << 20) == 0 ||
      mallopt(M_TRIM_THRESHOLD, 1 << 30) == 0) {
    std::fprintf(stderr, "fleetbench: mallopt failed\n");
    return 2;
  }
  return fleetbench::run(*args);
}
