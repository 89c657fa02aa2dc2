#include "util/crash.hpp"

#include <unistd.h>

#include <cstring>
#include <mutex>

namespace dpr::util {

namespace {

// Every DPR_CRASH_POINT site in the codebase, in sweep order. Keep this
// list in sync with the call sites: arming validates against it, and
// bench_crash iterates it, proving each entry is live in a checkpointed
// campaign before killing there.
constexpr const char* kSites[] = {
    // util::write_file_atomic (fires for every checkpoint write)
    "ckpt.tmp_written",   // tmp file written, not yet fsynced
    "ckpt.pre_rename",    // tmp fsynced + closed, rename not issued
    "ckpt.post_rename",   // renamed, parent directory not yet fsynced
    // core::CheckpointStore
    "ckpt.pre_save",      // save() entered, nothing touched yet
    "ckpt.post_save",     // checkpoint durable, directory lock still held
    "ckpt.pre_remove",    // remove() entered, file still present
    "ckpt.post_remove",   // file unlinked, directory lock still held
    // core::Campaign::run
    "campaign.phase_done",       // phase returned, checkpoint not written
    "campaign.post_checkpoint",  // checkpoint written, next phase not begun
};
constexpr std::size_t kNumSites = sizeof(kSites) / sizeof(kSites[0]);

std::mutex mutex;                       // guards the slow path only
int armed_site = -1;                    // index into kSites, -1 = disarmed
std::uint64_t armed_n = 0;              // crash on this hit count
std::uint64_t armed_hits = 0;           // hits of the armed site so far
bool counting = false;
std::uint64_t hit_counts[kNumSites] = {};

int site_index(const char* site) {
  for (std::size_t i = 0; i < kNumSites; ++i) {
    if (std::strcmp(kSites[i], site) == 0) return static_cast<int>(i);
  }
  return -1;
}

void refresh_active() {
  detail::crash_points_active.store(armed_site >= 0 || counting,
                                    std::memory_order_relaxed);
}

}  // namespace

namespace detail {

std::atomic<bool> crash_points_active{false};

void crash_point_hit(const char* site) {
  std::unique_lock<std::mutex> lock(mutex);
  const int index = site_index(site);
  if (index < 0) return;  // unregistered literal: never crash, never count
  if (counting) ++hit_counts[index];
  if (index == armed_site && ++armed_hits >= armed_n) {
    // No destructors, no stream flushes: the process dies as abruptly as
    // a SIGKILL would, at a site the harness chose. _exit is async-signal
    // safe, so dying while other threads run is well-defined.
    _exit(kCrashExitCode);
  }
}

}  // namespace detail

std::span<const char* const> crash_point_sites() {
  return std::span<const char* const>(kSites, kNumSites);
}

bool arm_crash_point(const std::string& site, std::uint64_t n) {
  const int index = site_index(site.c_str());
  if (index < 0 || n == 0) return false;
  std::unique_lock<std::mutex> lock(mutex);
  armed_site = index;
  armed_n = n;
  armed_hits = 0;
  refresh_active();
  return true;
}

bool arm_crash_point_spec(const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos) return arm_crash_point(spec, 1);
  const std::string site = spec.substr(0, colon);
  const std::string count = spec.substr(colon + 1);
  if (site.empty() || count.empty()) return false;
  std::uint64_t n = 0;
  for (const char c : count) {
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return arm_crash_point(site, n);
}

void disarm_crash_points() {
  std::unique_lock<std::mutex> lock(mutex);
  armed_site = -1;
  armed_n = 0;
  armed_hits = 0;
  refresh_active();
}

void set_crash_point_counting(bool on) {
  std::unique_lock<std::mutex> lock(mutex);
  counting = on;
  refresh_active();
}

std::uint64_t crash_point_hits(const std::string& site) {
  std::unique_lock<std::mutex> lock(mutex);
  const int index = site_index(site.c_str());
  return index < 0 ? 0 : hit_counts[index];
}

void reset_crash_point_hits() {
  std::unique_lock<std::mutex> lock(mutex);
  for (auto& count : hit_counts) count = 0;
}

}  // namespace dpr::util
