// Procedural-fleet scaling benchmark behind BENCH_scale.json: generated
// fleets of 64 / 256 / 1024 vehicles (vehicle::Generator, fixed seed)
// driven through core::FleetRunner, recording the cars-vs-wall-clock
// curve, peak RSS and the checkpoint-store fan-out of an interrupted
// tier.
//
// Two determinism probes ride along on the smallest tier:
//   * the fleet signature at 1, 2 and 8 fleet threads must be identical;
//   * an interrupt (stop_after_phase) + resume must reproduce the
//     uninterrupted signature bit for bit.
//
// Flags (all optional, for CI smoke runs on small machines):
//   --max-cars N    cap the largest tier (default 1024)
//   --threads N     fleet threads for the timed runs (default 0 = all)
//   --window S      per-ECU live window seconds (default 4)
//   --population P  GP population (default 64)
//   --gen-seed S    generator base seed (default 0x5CA1E)

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/fleet.hpp"
#include "vehicle/generator.hpp"

namespace {

using namespace dpr;

long peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

std::size_t count_checkpoints(const std::string& dir) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") ++count;
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_cars = 1024;
  std::size_t n_threads = 0;
  double window_s = 4.0;
  std::size_t population = 64;
  std::uint64_t gen_seed = 0x5CA1E;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(2);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--max-cars") == 0) {
      max_cars = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      n_threads = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--window") == 0) {
      window_s = std::atof(next());
    } else if (std::strcmp(argv[i], "--population") == 0) {
      population = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--gen-seed") == 0) {
      gen_seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  core::FleetOptions options;
  options.campaign.live_window =
      static_cast<util::SimTime>(window_s * util::kSecond);
  options.campaign.gp.population = population;
  options.fleet_threads = n_threads;

  std::vector<std::size_t> tiers;
  for (std::size_t size : {std::size_t{64}, std::size_t{256},
                           std::size_t{1024}}) {
    if (size <= max_cars) tiers.push_back(size);
  }
  if (tiers.empty()) tiers.push_back(max_cars);

  std::printf("Procedural fleet scaling: tiers up to %zu cars, "
              "%u hardware threads\n\n",
              tiers.back(), std::thread::hardware_concurrency());

  // Determinism probe 1: the smallest tier at 1 / 2 / 8 fleet threads.
  const auto probe_specs =
      vehicle::generate_fleet(vehicle::GeneratorConfig{}, gen_seed,
                              tiers.front());
  std::string probe_signature;
  bool threads_identical = true;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    core::FleetOptions probe_options = options;
    probe_options.fleet_threads = threads;
    const auto summary = core::FleetRunner(probe_options).run(probe_specs);
    const auto signature = core::fleet_signature(summary);
    if (probe_signature.empty()) {
      probe_signature = signature;
    } else if (signature != probe_signature) {
      threads_identical = false;
    }
    std::printf("threads=%zu: %zu cars ok, signature %s\n", threads,
                summary.cars_ok(),
                signature == probe_signature ? "identical" : "DIFFERS");
  }

  // Determinism probe 2: interrupt the same tier after the align phase,
  // count the per-car checkpoint fan-out, then resume to completion.
  const std::string ckpt_dir = "bench_scale_ckpt";
  std::filesystem::remove_all(ckpt_dir);
  core::FleetOptions resume_options = options;
  resume_options.fleet_threads = 1;
  resume_options.campaign.checkpoint_dir = ckpt_dir;
  resume_options.campaign.stop_after_phase = 3;  // ...align
  core::FleetRunner(resume_options).run(probe_specs);
  const std::size_t checkpoint_files = count_checkpoints(ckpt_dir);
  resume_options.campaign.stop_after_phase = -1;
  resume_options.campaign.resume = true;
  const auto resumed = core::FleetRunner(resume_options).run(probe_specs);
  const bool resume_identical =
      core::fleet_signature(resumed) == probe_signature;
  std::filesystem::remove_all(ckpt_dir);
  std::printf("interrupt/resume: %zu checkpoint files for %zu cars, "
              "resumed signature %s\n\n",
              checkpoint_files, probe_specs.size(),
              resume_identical ? "identical" : "DIFFERS");

  // The cars-vs-wall curve: every tier is a fresh generated fleet with
  // the same base seed, so tier N's cars are a prefix of tier N+1's.
  struct TierResult {
    std::size_t cars = 0;
    double wall_s = 0.0;
    std::size_t cars_ok = 0;
    std::size_t signals = 0;
    std::size_t ecrs = 0;
    long peak_rss_kb = 0;
  };
  std::vector<TierResult> results;
  std::printf("%-8s %-10s %-8s %-9s %-7s %-12s\n", "cars", "wall s", "ok",
              "#signals", "#ECR", "peak RSS MB");
  bench::print_rule(57);
  for (std::size_t size : tiers) {
    const auto specs =
        vehicle::generate_fleet(vehicle::GeneratorConfig{}, gen_seed, size);
    const auto summary = core::FleetRunner(options).run(specs);
    TierResult tier;
    tier.cars = size;
    tier.wall_s = summary.wall_s;
    tier.cars_ok = summary.cars_ok();
    tier.signals = summary.total_signals();
    tier.ecrs = summary.total_ecrs();
    tier.peak_rss_kb = peak_rss_kb();
    results.push_back(tier);
    std::printf("%-8zu %-10.3f %-8zu %-9zu %-7zu %-12.1f\n", tier.cars,
                tier.wall_s, tier.cars_ok, tier.signals, tier.ecrs,
                static_cast<double>(tier.peak_rss_kb) / 1024.0);
  }

  if (std::FILE* out = std::fopen("BENCH_scale.json", "w")) {
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"gen_seed\": %llu,\n",
                 static_cast<unsigned long long>(gen_seed));
    std::fprintf(out, "  \"window_s\": %.3f,\n", window_s);
    std::fprintf(out, "  \"population\": %zu,\n", population);
    std::fprintf(out, "  \"fleet_threads\": %zu,\n", n_threads);
    std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"threads_1_2_8_identical\": %s,\n",
                 threads_identical ? "true" : "false");
    std::fprintf(out, "  \"resume_identical\": %s,\n",
                 resume_identical ? "true" : "false");
    std::fprintf(out, "  \"checkpoint_files\": %zu,\n", checkpoint_files);
    std::fprintf(out, "  \"tiers\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& tier = results[i];
      std::fprintf(out,
                   "    {\"cars\": %zu, \"wall_s\": %.6f, "
                   "\"cars_ok\": %zu, \"signals\": %zu, \"ecrs\": %zu, "
                   "\"peak_rss_kb\": %ld}%s\n",
                   tier.cars, tier.wall_s, tier.cars_ok, tier.signals,
                   tier.ecrs, tier.peak_rss_kb,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote BENCH_scale.json\n");
  }

  // Determinism is the hard requirement; wall clock and RSS are host
  // facts, reported but never asserted.
  return threads_identical && resume_identical ? 0 : 1;
}
