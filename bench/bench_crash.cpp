// Crash-point sweep behind BENCH_crash.json (ISSUE 9): for every
// registered DPR_CRASH_POINT site, fork a child that arms the site and
// runs a checkpointed fleet until the site kills it with
// _exit(util::kCrashExitCode) — the deterministic stand-in for SIGKILL —
// then resume in the parent and require the stitched fleet signature to
// be byte-identical to an uninterrupted run. The sweep repeats at 1, 2
// and 8 fleet threads.
//
// Four properties are asserted (nonzero exit on violation):
//   1. Liveness: every registered crash-point site is actually hit by a
//      checkpointed fleet run (counting mode) — no dead sites.
//   2. Harmlessness: a checkpointed run with the registry idle produces
//      the same signature as a run without checkpointing at all.
//   3. Crash fidelity: an armed child dies with kCrashExitCode, never
//      with a clean exit (which would mean the site failed to fire).
//   4. Resume equivalence: healing + resuming the crashed directory
//      reproduces the uninterrupted signature at every thread count.
//
// Flags (all optional, for CI smoke runs on small machines):
//   --cars N        first N catalog cars (default 2)
//   --window S      per-ECU live window seconds (default 4)
//   --population P  GP population (default 48)
//   --seed N        campaign seed (default CampaignOptions')

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/fleet.hpp"
#include "util/crash.hpp"

namespace {

using namespace dpr;

struct SweepResult {
  std::size_t threads = 0;
  std::string site;
  std::uint64_t hits = 0;      ///< counting-mode hits at this thread count
  int crash_status = -1;       ///< child exit status (must be crash code)
  bool resumed_ok = false;     ///< resumed signature == fresh signature
  std::size_t quarantined = 0; ///< ckpt_quarantined reported by the resume
};

core::FleetOptions fleet_options(std::size_t threads, double window_s,
                                 std::size_t population, std::uint64_t seed,
                                 const std::string& checkpoint_dir,
                                 bool resume) {
  core::FleetOptions options;
  options.fleet_threads = threads;
  options.campaign.seed = seed;
  options.campaign.live_window =
      static_cast<util::SimTime>(window_s * util::kSecond);
  options.campaign.gp.population = population;
  options.campaign.gp.max_generations = 8;
  options.campaign.checkpoint_dir = checkpoint_dir;
  options.campaign.resume = resume;
  return options;
}

std::vector<vehicle::CarId> first_cars(std::size_t n) {
  std::vector<vehicle::CarId> cars;
  for (const auto& spec : vehicle::catalog()) {
    if (cars.size() >= n) break;
    cars.push_back(spec.id);
  }
  return cars;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_cars = 2;
  double window_s = 4.0;
  std::size_t population = 48;
  std::uint64_t seed = core::CampaignOptions{}.seed;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(2);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--cars") == 0) {
      n_cars = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--window") == 0) {
      window_s = std::atof(next());
    } else if (std::strcmp(argv[i], "--population") == 0) {
      population = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(next(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  const auto cars = first_cars(n_cars);
  const std::string ckpt_dir = "ckpt_crash_sweep";
  const std::size_t thread_counts[] = {1, 2, 8};
  std::size_t failures = 0;

  // Reference: one uninterrupted, uncheckpointed run. Thread-count
  // invariance of this signature is re-proven below by comparing every
  // resumed run at 1/2/8 threads against this single reference.
  std::printf("bench_crash: %zu cars, window %.1fs, population %zu\n",
              cars.size(), window_s, population);
  const std::string fresh = core::fleet_signature(
      core::FleetRunner(
          fleet_options(1, window_s, population, seed, "", false))
          .run(cars));

  std::vector<SweepResult> results;
  for (const std::size_t threads : thread_counts) {
    // Counting pass: a checkpointed run with no site armed. Proves both
    // that checkpointing is signature-neutral and that every registered
    // site is live under this workload.
    std::filesystem::remove_all(ckpt_dir);
    util::reset_crash_point_hits();
    util::set_crash_point_counting(true);
    const std::string counted = core::fleet_signature(
        core::FleetRunner(fleet_options(threads, window_s, population, seed,
                                        ckpt_dir, false))
            .run(cars));
    util::set_crash_point_counting(false);
    if (counted != fresh) {
      std::fprintf(stderr,
                   "FAIL: checkpointed run diverged from fresh at %zu "
                   "threads (registry idle)\n",
                   threads);
      ++failures;
    }

    for (const char* site : util::crash_point_sites()) {
      SweepResult result;
      result.threads = threads;
      result.site = site;
      result.hits = util::crash_point_hits(site);
      if (result.hits == 0) {
        std::fprintf(stderr, "FAIL: site %s never hit at %zu threads\n",
                     site, threads);
        ++failures;
        results.push_back(result);
        continue;
      }

      // Crash child: fresh directory, site armed for its first hit.
      std::filesystem::remove_all(ckpt_dir);
      const pid_t child = fork();
      if (child < 0) {
        std::perror("fork");
        return 1;
      }
      if (child == 0) {
        util::arm_crash_point(site, 1);
        core::FleetRunner(fleet_options(threads, window_s, population, seed,
                                        ckpt_dir, false))
            .run(cars);
        _exit(7);  // survived a run that was armed to die: sweep failure
      }
      int status = 0;
      if (waitpid(child, &status, 0) != child) {
        std::perror("waitpid");
        return 1;
      }
      result.crash_status =
          WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
      if (result.crash_status != util::kCrashExitCode) {
        std::fprintf(stderr,
                     "FAIL: child armed at %s exited %d (want %d) at %zu "
                     "threads\n",
                     site, result.crash_status, util::kCrashExitCode,
                     threads);
        ++failures;
      }

      // Resume over the crashed directory: heal, re-run the lost phase —
      // and land on the uninterrupted signature.
      const auto summary =
          core::FleetRunner(fleet_options(threads, window_s, population,
                                          seed, ckpt_dir, true))
              .run(cars);
      result.quarantined = summary.ckpt_quarantined;
      result.resumed_ok = core::fleet_signature(summary) == fresh;
      if (!result.resumed_ok) {
        std::fprintf(stderr,
                     "FAIL: resume after crash at %s diverged at %zu "
                     "threads\n",
                     site, threads);
        ++failures;
      }
      std::printf("  %zu threads  %-24s hits=%-4llu crash=%-3d resume=%s\n",
                  threads, site,
                  static_cast<unsigned long long>(result.hits),
                  result.crash_status, result.resumed_ok ? "ok" : "FAIL");
      results.push_back(result);
    }
  }
  std::filesystem::remove_all(ckpt_dir);

  if (std::FILE* out = std::fopen("BENCH_crash.json", "w")) {
    std::fprintf(out,
                 "{\n  \"cars\": %zu, \"window_s\": %.2f, "
                 "\"population\": %zu, \"sites\": %zu, \"failures\": %zu,\n"
                 "  \"sweeps\": [\n",
                 cars.size(), window_s, population,
                 util::crash_point_sites().size(), failures);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(out,
                   "    {\"threads\": %zu, \"site\": \"%s\", \"hits\": "
                   "%llu, \"crash_status\": %d, \"resumed_ok\": %s, "
                   "\"quarantined\": %zu}%s\n",
                   r.threads, r.site.c_str(),
                   static_cast<unsigned long long>(r.hits), r.crash_status,
                   r.resumed_ok ? "true" : "false", r.quarantined,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }

  if (failures != 0) {
    std::fprintf(stderr, "bench_crash: %zu failure(s)\n", failures);
    return 1;
  }
  std::printf("bench_crash: every site crashed and resumed to the "
              "uninterrupted signature at 1/2/8 threads\n");
  return 0;
}
