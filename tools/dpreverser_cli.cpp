// dpreverser — command-line front end for the reverse-engineering
// pipeline: run a campaign against one simulated vehicle (or the whole
// fleet), print the recovered protocol map, optionally export the raw
// CAN capture.
//
// Usage:
//   dpreverser --car A [--window 16] [--seed N] [--no-filter]
//              [--no-ocr-noise] [--no-baselines] [--trace capture.log]
//   dpreverser --fleet [--fleet-threads N] [common options]
//   dpreverser --generate 64 [--gen-seed S] [common options]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "can/trace.hpp"
#include "core/fleet.hpp"
#include "util/crash.hpp"
#include "vehicle/generator.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: dpreverser --car <A..R> [options]\n"
               "       dpreverser --fleet [options]\n"
               "       dpreverser --generate <n> [--gen-seed <s>] [options]\n"
               "  --fleet          run every catalog car (campaigns fan out\n"
               "                   over a shared-budget pool; results are\n"
               "                   identical to the serial loop)\n"
               "  --generate <n>   synthesize n vehicles procedurally and run\n"
               "                   a campaign against each; same (n, gen-seed)\n"
               "                   always yields the same fleet\n"
               "  --gen-seed <s>   generator seed for --generate (default 1;\n"
               "                   car k uses seed s+k)\n"
               "  --fleet-threads <n>  concurrent campaigns in --fleet and\n"
               "                   --generate modes\n"
               "                   (0 = all cores, default 0; 1 = serial)\n"
               "  --window <s>     live-capture window per ECU (default 16)\n"
               "  --seed <n>       simulation seed\n"
               "  --threads <n>    GP inference threads (0 = all cores,\n"
               "                   default 0; results identical for any n)\n"
               "  --fault-rate <r> inject deterministic bus/server faults at\n"
               "                   rate r (0..1, default 0 = lossless); the\n"
               "                   clients retry/back off per ISO 14229-2\n"
               "  --fault-seed <n> fault stream seed (replays bit-identically\n"
               "                   for the same seed at any thread count)\n"
               "  --reset-rate <r> per-request chance of a spontaneous ECU\n"
               "                   reboot (session + security wiped, bus\n"
               "                   silent for the boot window)\n"
               "  --session-faults arm S3 session timers + the tool's\n"
               "                   keepalive/recovery supervisor\n"
               "  --nm             arm OSEK network management: per-ECU ring\n"
               "                   nodes, coordinated bus sleep/wakeup and an\n"
               "                   NM-aware tool that keeps the bus alive\n"
               "  --nm-sleep-timeout <s>  quiet-bus seconds before the ring\n"
               "                   agrees to sleep (default 3)\n"
               "  --nm-oblivious   keep the vehicle ringing but leave the\n"
               "                   tool NM-ignorant (ablation: transactions\n"
               "                   die against the sleeping bus)\n"
               "  --nm-veto <a>    NM veto holdout: the ring node at 1-based\n"
               "                   ECU address a never acks sleep, so the bus\n"
               "                   stays awake for the whole campaign\n"
               "  --sim-deadline <s>  sim-time budget per phase (same\n"
               "                   phase_timeout failure as --phase-deadline\n"
               "                   but in simulated seconds)\n"
               "  --checkpoint-dir <d>  write a per-phase checkpoint per car\n"
               "                   so an interrupted run can be resumed\n"
               "  --resume         resume from matching checkpoints (same\n"
               "                   car, seed and options); the resumed\n"
               "                   report is bit-identical to a fresh run.\n"
               "                   Torn, corrupt or older-format files are\n"
               "                   moved to <dir>/quarantine with a reason\n"
               "                   logged and the affected phases re-run\n"
               "  --crash-at <site[:n]>  deterministic crash injection: the\n"
               "                   n-th hit (default 1) of the named crash\n"
               "                   point _exit(86)s the process; see\n"
               "                   --list-crash-points (bench_crash sweeps\n"
               "                   every site and checks resume equality)\n"
               "  --list-crash-points  list crash-point sites and exit\n"
               "  --phase-deadline <s>  wall-clock budget per phase; an\n"
               "                   overrunning phase becomes a failed car\n"
               "                   slot (phase_timeout) instead of a hang\n"
               "  --stall-phase <p>  test hook: hang at the start of phase p\n"
               "                   (collect..score) until the watchdog fires\n"
               "  --signature <file>  write the run's deterministic report\n"
               "                   signature (CI compares fresh vs resumed)\n"
               "  --no-filter     disable the two-stage ESV filter (ablation)\n"
               "  --no-ocr-noise   perfect OCR (clean-room ablation)\n"
               "  --no-baselines   skip linear/polynomial baselines\n"
               "  --trace <file>   export the sniffed CAN capture\n"
               "  --list           list the vehicle catalog and exit\n");
}

void write_signature(const std::string& path, const std::string& signature) {
  std::ofstream out(path);
  out << signature;
  std::printf("signature written to %s\n", path.c_str());
}

int run_fleet(const std::vector<dpr::vehicle::CarSpec>& specs,
              dpr::core::CampaignOptions campaign_options,
              std::size_t fleet_threads, const std::string& signature_path) {
  using namespace dpr;
  core::FleetOptions options;
  options.campaign = campaign_options;
  options.fleet_threads = fleet_threads;

  const core::FleetRunner runner(options);
  std::printf("running %zu campaigns on %zu fleet threads...\n",
              specs.size(), runner.threads());
  const auto summary = runner.run(specs);

  std::printf("\n%-8s %-22s %-10s %-7s %-9s %-8s %-7s %-6s %-9s\n", "Car",
              "Model", "Protocol", "Status", "#signals", "#formula",
              "GP ok", "#ECR", "infer s");
  for (std::size_t i = 0; i < summary.reports.size(); ++i) {
    const auto& report = summary.reports[i];
    const auto& spec = specs[i];
    std::printf("%-8s %-22s %-10s %-7s %-9zu %-8zu %-7zu %-6zu %-9.2f\n",
                report.car_label.c_str(), spec.model.c_str(),
                spec.protocol == vehicle::Protocol::kUds ? "UDS" : "KWP",
                report.completed ? "ok" : "FAILED", report.signals.size(),
                report.formula_signals(), report.gp_correct(),
                report.ecrs.size(), report.phases.infer_s);
    if (!report.completed) {
      std::printf("         ^ %s\n", report.failure_reason.c_str());
    }
  }
  std::printf("\nfleet totals: %zu reads + %zu controls = %zu messages, "
              "GP %zu/%zu; cars ok %zu / failed %zu\n",
              summary.total_signals(), summary.total_ecrs(),
              summary.total_signals() + summary.total_ecrs(),
              summary.total_gp_correct(), summary.total_formula_signals(),
              summary.cars_ok(), summary.cars_failed());
  if (campaign_options.faults.enabled()) {
    const auto tx = summary.total_transactions();
    std::printf("fault resilience: %llu transactions, %llu retries, "
                "%llu busy retries, %llu pending waits, %llu failures\n",
                static_cast<unsigned long long>(tx.transactions),
                static_cast<unsigned long long>(tx.retries),
                static_cast<unsigned long long>(tx.busy_retries),
                static_cast<unsigned long long>(tx.pending_waits),
                static_cast<unsigned long long>(tx.failures));
  }
  if (!campaign_options.checkpoint_dir.empty() &&
      summary.ckpt_quarantined > 0) {
    std::printf("checkpoint store: ckpt_quarantined=%zu\n",
                summary.ckpt_quarantined);
  }
  std::printf("wall time %.2f s (%zu threads); phase CPU-s: collect %.1f, "
              "infer %.1f, other %.1f\n",
              summary.wall_s, summary.threads_used,
              summary.phase_totals.collect_s, summary.phase_totals.infer_s,
              summary.phase_totals.total_s() -
                  summary.phase_totals.collect_s -
                  summary.phase_totals.infer_s);
  if (!signature_path.empty()) {
    write_signature(signature_path, core::fleet_signature(summary));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpr;

  int car_index = -1;
  bool fleet = false;
  std::size_t generate_count = 0;
  std::uint64_t gen_seed = 1;
  std::size_t fleet_threads = 0;
  core::CampaignOptions options;
  options.live_window = 16 * util::kSecond;
  options.video_fps = 10.0;
  options.gp.population = 192;
  options.infer_threads = 0;  // fan per-signal GP over all cores
  std::string trace_path;
  std::string signature_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--car") {
      const char* value = next();
      if (std::strlen(value) == 1 && value[0] >= 'A' && value[0] <= 'R') {
        car_index = value[0] - 'A';
      }
    } else if (arg == "--fleet") {
      fleet = true;
    } else if (arg == "--generate") {
      generate_count = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--gen-seed") {
      gen_seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--fleet-threads") {
      fleet_threads = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--window") {
      options.live_window =
          static_cast<util::SimTime>(std::atof(next()) * util::kSecond);
    } else if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--fault-rate") {
      options.faults.rate = std::atof(next());
    } else if (arg == "--fault-seed") {
      options.faults.fault_seed =
          static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--reset-rate") {
      options.faults.reset_rate = std::atof(next());
    } else if (arg == "--session-faults") {
      options.faults.session_faults = true;
    } else if (arg == "--nm") {
      options.faults.nm = true;
    } else if (arg == "--nm-sleep-timeout") {
      options.faults.nm_sleep_timeout =
          static_cast<util::SimTime>(std::atof(next()) * util::kSecond);
    } else if (arg == "--nm-oblivious") {
      options.nm_oblivious = true;
    } else if (arg == "--nm-veto") {
      options.faults.nm_veto_address =
          static_cast<std::uint8_t>(std::atoi(next()));
    } else if (arg == "--crash-at") {
      const char* spec = next();
      if (!util::arm_crash_point_spec(spec)) {
        std::fprintf(stderr,
                     "unknown crash point spec '%s' "
                     "(see --list-crash-points)\n",
                     spec);
        return 2;
      }
    } else if (arg == "--list-crash-points") {
      for (const char* site : util::crash_point_sites()) {
        std::printf("%s\n", site);
      }
      return 0;
    } else if (arg == "--sim-deadline") {
      options.phase_sim_budget_s = std::atof(next());
    } else if (arg == "--checkpoint-dir") {
      options.checkpoint_dir = next();
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--phase-deadline") {
      options.phase_deadline_s = std::atof(next());
    } else if (arg == "--stall-phase") {
      options.stall_phase = next();
    } else if (arg == "--signature") {
      signature_path = next();
    } else if (arg == "--threads") {
      options.infer_threads =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--no-filter") {
      options.two_stage_filter = false;
    } else if (arg == "--no-ocr-noise") {
      options.ocr_noise = false;
    } else if (arg == "--no-baselines") {
      options.run_baselines = false;
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--list") {
      for (const auto& spec : vehicle::catalog()) {
        std::printf("%s  %-22s %-9s %-12s tool: %s\n", spec.label.c_str(),
                    spec.model.c_str(),
                    spec.protocol == vehicle::Protocol::kUds ? "UDS"
                                                             : "KWP 2000",
                    spec.transport == vehicle::TransportKind::kIsoTp
                        ? "ISO-TP"
                        : spec.transport == vehicle::TransportKind::kVwTp20
                              ? "VW TP 2.0"
                              : "BMW framing",
                    spec.tool.c_str());
      }
      return 0;
    } else {
      usage();
      return 2;
    }
  }
  if (generate_count > 0) {
    const auto specs =
        vehicle::generate_fleet(vehicle::GeneratorConfig{}, gen_seed,
                                generate_count);
    return run_fleet(specs, options, fleet_threads, signature_path);
  }
  if (fleet) {
    return run_fleet(vehicle::catalog(), options, fleet_threads,
                     signature_path);
  }
  if (car_index < 0) {
    usage();
    return 2;
  }

  core::Campaign campaign(static_cast<vehicle::CarId>(car_index), options);
  std::printf("collecting from %s (%s, tool %s)...\n",
              campaign.report().car_label.c_str(),
              campaign.vehicle().spec().model.c_str(),
              campaign.vehicle().spec().tool.c_str());
  try {
    campaign.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }
  std::printf("  %zu CAN frames, %zu video frames captured\n",
              campaign.capture().size(), campaign.video().frames.size());

  const auto& report = campaign.report();
  if (!signature_path.empty()) {
    write_signature(signature_path, core::report_signature(report));
  }
  std::printf("\nalignment offset %lld us (%zu anchors); %zu messages "
              "assembled\n",
              static_cast<long long>(report.alignment_offset),
              report.alignment_anchors, report.messages_assembled);

  std::printf("\nREAD MESSAGES (%zu formula / %zu enum):\n",
              report.formula_signals(), report.enum_signals());
  for (const auto& s : report.signals) {
    if (s.is_enum) {
      std::printf("  [%s] %-34s (status/enum)\n", s.request_message.c_str(),
                  s.semantic_name.c_str());
    } else {
      std::printf("  [%s] %-34s %s%s\n", s.request_message.c_str(),
                  s.semantic_name.c_str(),
                  s.gp ? s.gp->formula.c_str() : "(no formula)",
                  s.gp_correct ? "" : "   [unverified]");
    }
  }
  std::printf("\nCONTROL MESSAGES (%zu):\n", report.ecrs.size());
  for (const auto& e : report.ecrs) {
    std::printf("  [%s %04X] %-30s state %s%s\n", e.is_uds ? "2F" : "30",
                e.id, e.semantic_name.c_str(),
                util::to_hex(e.adjustment_state).c_str(),
                e.three_message_pattern ? "" : "   [no 3-msg pattern]");
  }
  std::printf("\nGP precision: %zu/%zu", report.gp_correct(),
              report.formula_signals());
  if (options.run_baselines) {
    std::printf("   (linear %zu, polynomial %zu)",
                report.linear_correct(), report.polynomial_correct());
  }
  std::printf("\n");

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    can::write_trace(out, campaign.capture());
    std::printf("capture written to %s\n", trace_path.c_str());
  }
  return 0;
}
