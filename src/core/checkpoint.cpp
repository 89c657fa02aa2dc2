#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "util/crash.hpp"

namespace dpr::core {

namespace {

constexpr std::uint32_t kManifestMagic = 0x4D525044;  // "DPRM"
/// v3 has the XXH64 tail. An older MANIFEST reads as zeros and is rebuilt
/// by the next mutation.
constexpr std::uint32_t kManifestVersion = 3;

/// flock(2)-based advisory lock on <dir>/.lock, held only around short
/// mutating critical sections (write + manifest bump), so N campaign
/// threads sharing one directory serialize their writes and an external
/// process (a future dpr::serviced) can coordinate with CLI runs. Lock
/// failure degrades to unlocked operation — the lock is an upgrade, not
/// a correctness requirement for the single-writer-per-key common case.
class DirLock {
 public:
  explicit DirLock(const std::string& dir) {
    const std::string path = dir + "/.lock";
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~DirLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

 private:
  int fd_ = -1;
};

std::string hex_u32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

}  // namespace

namespace {

using LoadError = CheckpointStore::LoadError;

struct Parsed {
  std::uint64_t car = 0;
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
  std::uint32_t phase = 0;
  util::Bytes payload;
};

/// Decode a v6 container. kNone on success; on failure `detail` names
/// what was wrong with the file.
LoadError parse_checkpoint(const util::Bytes& data, Parsed& out,
                           std::string& detail) {
  if (data.size() < 16) {
    detail = "file too small to be a checkpoint";
    return LoadError::kTorn;
  }
  // The header (magic, version) is classified before the tail, so a file
  // from an older build, whose tail is a different digest, is refused by
  // name rather than reported as torn. Nothing past these 8 bytes is read
  // until the tail has been checked.
  const std::size_t body = data.size() - 8;
  util::BinaryReader r(std::span<const std::uint8_t>(data.data(), body));
  if (r.u32() != kCheckpointMagic) {
    detail = "bad magic (not a checkpoint file)";
    return LoadError::kBadMagic;
  }
  const std::uint32_t version = r.u32();
  if (version < kCheckpointVersion) {
    detail = "container version " + std::to_string(version) + " predates v" +
             std::to_string(kCheckpointVersion) + " and is no longer read";
    return LoadError::kObsoleteVersion;
  }
  if (version > kCheckpointVersion) {
    detail = "container version " + std::to_string(version) +
             " is from a newer build";
    return LoadError::kFutureVersion;
  }
  util::BinaryReader tail(std::span<const std::uint8_t>(data.data() + body, 8));
  if (tail.u64() !=
      util::xxh64(std::span<const std::uint8_t>(data.data(), body))) {
    detail = "trailing digest mismatch (torn or corrupted write)";
    return LoadError::kTorn;
  }

  try {
    // Section-tagged. Each section is (tag, version, length-prefixed
    // body) so a reader can account for sections it does not understand —
    // and reject them by name instead of misparsing.
    const std::uint32_t n_sections = r.u32();
    bool have_key = false, have_phase = false, have_state = false;
    for (std::uint32_t i = 0; i < n_sections; ++i) {
      const std::uint32_t tag = r.u32();
      const std::uint32_t section_version = r.u32();
      util::Bytes section = r.bytes();
      util::BinaryReader s(section);
      switch (tag) {
        case kSectionKey: {
          if (have_key) {
            detail = "duplicate KEY section";
            return LoadError::kBadStructure;
          }
          if (section_version != 1) {
            detail = "KEY section version " +
                     std::to_string(section_version) + " is from a newer build";
            return LoadError::kFutureVersion;
          }
          out.car = s.u64();
          out.seed = s.u64();
          out.digest = s.u64();
          have_key = true;
          break;
        }
        case kSectionPhase: {
          if (have_phase) {
            detail = "duplicate PHS section";
            return LoadError::kBadStructure;
          }
          if (section_version != 1) {
            detail = "PHS section version " +
                     std::to_string(section_version) + " is from a newer build";
            return LoadError::kFutureVersion;
          }
          out.phase = s.u32();
          have_phase = true;
          break;
        }
        case kSectionState: {
          if (have_state) {
            detail = "duplicate STA section";
            return LoadError::kBadStructure;
          }
          if (section_version > kCheckpointPayloadSchema) {
            detail = "state schema " + std::to_string(section_version) +
                     " is from a newer build";
            return LoadError::kFutureVersion;
          }
          if (section_version < kCheckpointPayloadSchema) {
            detail = "state schema " + std::to_string(section_version) +
                     " is no longer read";
            return LoadError::kObsoleteVersion;
          }
          out.payload = std::move(section);
          have_state = true;
          break;
        }
        default:
          detail = "unknown section tag " + hex_u32(tag);
          return LoadError::kUnknownSection;
      }
    }
    if (!have_key || !have_phase || !have_state) {
      detail = "missing required section(s)";
      return LoadError::kBadStructure;
    }
    if (!r.done()) {
      detail = "trailing bytes after section list";
      return LoadError::kBadStructure;
    }
    return LoadError::kNone;
  } catch (const std::exception& e) {
    detail = e.what();
    return LoadError::kTorn;
  }
}

/// Parse a checkpoint filename back into its key:
/// dpr-<16hex car>-<16hex seed>-<16hex digest>.ckpt.
struct NameKey {
  std::uint64_t car = 0, seed = 0, digest = 0;
};
std::optional<NameKey> parse_name(const std::string& name) {
  unsigned long long car = 0, seed = 0, digest = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "dpr-%16llx-%16llx-%16llx.ckpt%n", &car,
                  &seed, &digest, &consumed) == 3 &&
      consumed == static_cast<int>(name.size()) && name.size() == 59) {
    return NameKey{car, seed, digest};
  }
  return std::nullopt;
}

}  // namespace

const char* CheckpointStore::load_error_name(LoadError error) {
  switch (error) {
    case LoadError::kNone: return "none";
    case LoadError::kMissing: return "missing";
    case LoadError::kTorn: return "torn";
    case LoadError::kBadMagic: return "bad_magic";
    case LoadError::kFutureVersion: return "future_version";
    case LoadError::kObsoleteVersion: return "obsolete_version";
    case LoadError::kUnknownSection: return "unknown_section";
    case LoadError::kKeyMismatch: return "key_mismatch";
    case LoadError::kBadStructure: return "bad_structure";
  }
  return "?";
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort
}

std::string CheckpointStore::path_for(std::uint64_t car, std::uint64_t seed,
                                      std::uint64_t digest) const {
  char name[80];
  std::snprintf(name, sizeof name, "dpr-%016llx-%016llx-%016llx.ckpt",
                static_cast<unsigned long long>(car),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(digest));
  return dir_ + "/" + name;
}

util::IoResult CheckpointStore::save(
    std::uint64_t car, std::uint64_t seed, std::uint64_t digest,
    std::uint32_t phase, std::span<const std::uint8_t> payload) const {
  DPR_CRASH_POINT("ckpt.pre_save");
  DirLock lock(dir_);
  util::BinaryWriter w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u32(3);  // sections
  {
    util::BinaryWriter key;
    key.u64(car);
    key.u64(seed);
    key.u64(digest);
    w.u32(kSectionKey);
    w.u32(1);
    w.bytes(key.data());
  }
  {
    util::BinaryWriter phs;
    phs.u32(phase);
    w.u32(kSectionPhase);
    w.u32(1);
    w.bytes(phs.data());
  }
  w.u32(kSectionState);
  w.u32(kCheckpointPayloadSchema);
  w.bytes(payload);
  w.u64(util::xxh64(w.data()));  // digest over everything before it

  const auto io = util::write_file_atomic(path_for(car, seed, digest),
                                          w.data());
  if (!io) return io;
  DPR_CRASH_POINT("ckpt.pre_manifest");
  bump_manifest([](Manifest& m) { ++m.saves; });
  DPR_CRASH_POINT("ckpt.post_save");
  return io;
}

CheckpointStore::LoadResult CheckpointStore::load(std::uint64_t car,
                                                  std::uint64_t seed,
                                                  std::uint64_t digest) const {
  const std::string path = path_for(car, seed, digest);
  LoadResult result;
  const auto data = util::read_file(path);
  if (!data) {
    result.error = LoadError::kMissing;
    return result;
  }
  Parsed parsed;
  std::string detail;
  const LoadError error = parse_checkpoint(*data, parsed, detail);
  if (error != LoadError::kNone) {
    result.error = error;
    result.detail = detail;
    result.quarantined = quarantine_file(path, detail);
    return result;
  }
  if (parsed.car != car || parsed.seed != seed || parsed.digest != digest) {
    result.error = LoadError::kKeyMismatch;
    result.detail = "embedded key disagrees with filename key";
    result.quarantined = quarantine_file(path, result.detail);
    return result;
  }
  result.loaded = Loaded{parsed.phase, std::move(parsed.payload)};
  return result;
}

void CheckpointStore::remove(std::uint64_t car, std::uint64_t seed,
                             std::uint64_t digest) const {
  DPR_CRASH_POINT("ckpt.pre_remove");
  DirLock lock(dir_);
  std::error_code ec;
  const bool existed =
      std::filesystem::remove(path_for(car, seed, digest), ec);
  DPR_CRASH_POINT("ckpt.post_remove");
  if (existed && !ec) {
    bump_manifest([](Manifest& m) { ++m.removes; });
  }
}

bool CheckpointStore::quarantine_key(std::uint64_t car, std::uint64_t seed,
                                     std::uint64_t digest,
                                     const std::string& reason) const {
  return quarantine_file(path_for(car, seed, digest), reason);
}

bool CheckpointStore::quarantine_file(const std::string& path,
                                      const std::string& reason) const {
  DirLock lock(dir_);
  std::error_code ec;
  std::filesystem::create_directories(quarantine_dir(), ec);
  const std::string name = std::filesystem::path(path).filename().string();
  std::string target = quarantine_dir() + "/" + name;
  // Never clobber earlier evidence: suffix on collision.
  for (int i = 1; std::filesystem::exists(target, ec); ++i) {
    target = quarantine_dir() + "/" + name + "." + std::to_string(i);
  }
  std::filesystem::rename(path, target, ec);
  if (ec) return false;
  if (std::FILE* log = std::fopen(reasons_log_path().c_str(), "a")) {
    std::fprintf(log, "%s: %s\n", name.c_str(), reason.c_str());
    std::fclose(log);
  }
  bump_manifest([](Manifest& m) { ++m.quarantines; });
  return true;
}

CheckpointStore::Manifest CheckpointStore::manifest() const {
  Manifest m;
  const auto data = util::read_file(dir_ + "/MANIFEST");
  if (!data || data->size() < 8) return m;
  const std::size_t body = data->size() - 8;
  util::BinaryReader tail(std::span<const std::uint8_t>(data->data() + body, 8));
  if (tail.u64() !=
      util::xxh64(std::span<const std::uint8_t>(data->data(), body))) {
    return m;  // torn manifest: read as fresh, rebuilt on next mutation
  }
  try {
    util::BinaryReader r(std::span<const std::uint8_t>(data->data(), body));
    if (r.u32() != kManifestMagic || r.u32() != kManifestVersion) return m;
    m.generation = r.u64();
    m.saves = r.u64();
    m.removes = r.u64();
    m.quarantines = r.u64();
    if (!r.done()) return Manifest{};
  } catch (const std::exception&) {
    return Manifest{};
  }
  return m;
}

void CheckpointStore::bump_manifest(
    const std::function<void(Manifest&)>& apply) const {
  Manifest m = manifest();
  ++m.generation;
  apply(m);
  util::BinaryWriter w;
  w.u32(kManifestMagic);
  w.u32(kManifestVersion);
  w.u64(m.generation);
  w.u64(m.saves);
  w.u64(m.removes);
  w.u64(m.quarantines);
  w.u64(util::xxh64(w.data()));
  // Best effort: the manifest is observability, not a correctness gate.
  util::write_file_atomic(dir_ + "/MANIFEST", w.data());
}

CheckpointStore::HealReport CheckpointStore::heal() const {
  HealReport report;
  std::error_code ec;
  std::vector<std::filesystem::path> ckpts;
  std::vector<std::filesystem::path> tmps;
  for (std::filesystem::directory_iterator it(dir_, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() > 5 && name.ends_with(".ckpt")) {
      ckpts.push_back(it->path());
    } else if (name.find(".ckpt.tmp.") != std::string::npos) {
      tmps.push_back(it->path());
    }
  }

  // Temp files belong to a live writer mid-rename or to a dead one; the
  // pid suffix says which. Dead-writer leftovers are always garbage (the
  // rename that would have consumed them can no longer happen).
  for (const auto& tmp : tmps) {
    const std::string name = tmp.filename().string();
    const auto dot = name.rfind('.');
    const long pid = std::atol(name.c_str() + dot + 1);
    if (pid <= 0 || pid == static_cast<long>(::getpid())) continue;
    if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
      std::error_code rm_ec;
      if (std::filesystem::remove(tmp, rm_ec)) ++report.tmp_swept;
    }
  }

  for (const auto& path : ckpts) {
    ++report.scanned;
    const std::string name = path.filename().string();
    const auto data = util::read_file(path.string());
    if (!data) continue;  // raced with a concurrent remove
    Parsed parsed;
    std::string detail;
    const LoadError error = parse_checkpoint(*data, parsed, detail);
    if (error != LoadError::kNone) {
      if (quarantine_file(path.string(), detail)) ++report.quarantined;
      continue;
    }
    if (const auto key = parse_name(name)) {
      if (parsed.car != key->car || parsed.seed != key->seed ||
          parsed.digest != key->digest) {
        if (quarantine_file(path.string(),
                            "embedded key disagrees with filename key")) {
          ++report.quarantined;
        }
        continue;
      }
    }
    ++report.healthy;
  }
  return report;
}

}  // namespace dpr::core
