#pragma once
// On-disk checkpoint store for campaign resume.
//
// One file per (car-spec digest, seed, options-digest) key. After each
// completed pipeline phase the campaign overwrites its file with the
// serialized state needed to resume at the *next* phase, so a killed
// process loses at most one phase of work.
//
// Container format v6 is self-describing: a section-tagged list (KEY /
// PHS / STA), each section carrying its own version, wrapped in magic +
// version + a trailing XXH64 digest over everything before it. The reader
// classifies the magic and version before it checks the tail, so a file
// from an older build (v5 and earlier carried an FNV-1a tail) is refused
// by name, not as torn. Only v6 with the current state schema is read.
// Files from an older build (older containers, older state schemas) or a
// *newer* one (unknown container version, unknown section, newer payload
// schema) are rejected cleanly with a named reason, never parsed as UB. A
// checkpoint is a cache keyed by digest, so a refused file only costs a
// re-run of its phases.
//
// The store is also self-healing: heal() scans the directory, quarantines
// torn/corrupt/key-mismatched/unreadable files into quarantine/ with a
// logged reason, and sweeps temp files orphaned by dead writers. A
// per-directory MANIFEST (generation counter + save/remove/quarantine
// tallies) and a flock(2) advisory lock around every mutating operation
// make the directory safe for a future dpr::serviced to own concurrently
// with CLI runs.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "util/checkpoint.hpp"

namespace dpr::core {

/// Container-format constants, exported for tests and tools that
/// synthesize or inspect raw checkpoint files.
inline constexpr std::uint32_t kCheckpointMagic = 0x43525044;  // "DPRC"
/// Current container version (the file envelope).
inline constexpr std::uint32_t kCheckpointVersion = 6;
/// Current campaign-state schema carried by the STA section (the section
/// version). The field lists in core/state.hpp define the layout.
inline constexpr std::uint32_t kCheckpointPayloadSchema = 4;
/// Section tags (ASCII in a u32, zero-padded).
inline constexpr std::uint32_t kSectionKey = 0x0059454B;    // "KEY"
inline constexpr std::uint32_t kSectionPhase = 0x00534850;  // "PHS"
inline constexpr std::uint32_t kSectionState = 0x00415453;  // "STA"

class CheckpointStore {
 public:
  /// Creates `dir` (and parents) if missing; save() fails soft when the
  /// directory cannot be created.
  explicit CheckpointStore(std::string dir);

  /// Why a load produced no state (fleet logs print the name so a resume
  /// that falls back to fresh says why).
  enum class LoadError {
    kNone,           ///< success
    kMissing,        ///< no file for this key (fresh run — not a fault)
    kTorn,           ///< truncated / trailing-digest mismatch (torn write)
    kBadMagic,       ///< not a checkpoint file
    kFutureVersion,  ///< container/section/schema from a newer build
    kObsoleteVersion, ///< container older than v6 or older state schema
    kUnknownSection, ///< v6 container with a section this build lacks
    kKeyMismatch,    ///< file content disagrees with its filename key
    kBadStructure,   ///< parsed but malformed (duplicate/missing section)
  };
  static const char* load_error_name(LoadError error);

  struct Loaded {
    std::uint32_t phase = 0;  ///< index of the last *completed* phase
    util::Bytes payload;      ///< campaign state after that phase
  };

  /// optional-like load outcome that also carries the failure reason.
  struct LoadResult {
    std::optional<Loaded> loaded;
    LoadError error = LoadError::kNone;
    std::string detail;        ///< human-readable reason ("" on success)
    bool quarantined = false;  ///< offending file moved to quarantine/

    bool has_value() const { return loaded.has_value(); }
    explicit operator bool() const { return has_value(); }
    const Loaded* operator->() const { return &*loaded; }
    const Loaded& operator*() const { return *loaded; }
  };

  /// The checkpoint file backing a key (for tests, CI and cleanup).
  /// `car` is the vehicle::spec_digest of the campaign's car, so catalog
  /// and generated cars share one uniform 64-bit key space.
  std::string path_for(std::uint64_t car, std::uint64_t seed,
                       std::uint64_t digest) const;

  /// Persist `payload` (kCheckpointPayloadSchema) as the state after
  /// `phase`. On failure the result names the failing stage + errno —
  /// the campaign then simply runs on uncheckpointed.
  util::IoResult save(std::uint64_t car, std::uint64_t seed,
                      std::uint64_t digest, std::uint32_t phase,
                      std::span<const std::uint8_t> payload) const;

  /// Load and validate the checkpoint for a key. A file that exists but
  /// cannot be trusted or read (torn, corrupt, key-mismatched, from an
  /// older or newer build) is quarantined and reported, never returned.
  LoadResult load(std::uint64_t car, std::uint64_t seed,
                  std::uint64_t digest) const;

  /// Drop the checkpoint for a key (the campaign ran to completion).
  void remove(std::uint64_t car, std::uint64_t seed,
              std::uint64_t digest) const;

  /// Move the file backing a key into quarantine/ with `reason` logged.
  /// The campaign uses this when a structurally valid checkpoint carries
  /// a payload its restore path rejects.
  bool quarantine_key(std::uint64_t car, std::uint64_t seed,
                      std::uint64_t digest, const std::string& reason) const;

  /// Per-directory bookkeeping, persisted in MANIFEST and bumped (under
  /// the advisory lock) by every mutating operation.
  struct Manifest {
    std::uint64_t generation = 0;  ///< total mutations of the directory
    std::uint64_t saves = 0;
    std::uint64_t removes = 0;
    std::uint64_t quarantines = 0;
  };
  /// Read-only snapshot (a corrupt or missing MANIFEST reads as zeros and
  /// is rebuilt by the next mutation).
  Manifest manifest() const;

  struct HealReport {
    std::size_t scanned = 0;      ///< *.ckpt files examined
    std::size_t healthy = 0;      ///< valid v6 files left in place
    std::size_t quarantined = 0;  ///< torn/corrupt/mismatched/old files moved
    std::size_t tmp_swept = 0;    ///< temp files of dead writers removed
  };
  /// Scan the directory once and quarantine everything untrustworthy.
  /// FleetRunner calls this before a resume fan-out; it is deliberately
  /// not part of every open so large fleets don't rescan per campaign.
  HealReport heal() const;

  const std::string& dir() const { return dir_; }
  std::string quarantine_dir() const { return dir_ + "/quarantine"; }
  /// Append-only reasons log inside quarantine/ ("<file>: <reason>").
  std::string reasons_log_path() const {
    return quarantine_dir() + "/REASONS.log";
  }

 private:
  bool quarantine_file(const std::string& path,
                       const std::string& reason) const;
  void bump_manifest(const std::function<void(Manifest&)>& apply) const;

  std::string dir_;
};

}  // namespace dpr::core
