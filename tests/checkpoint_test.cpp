// Checkpoint-store durability and self-healing: torn, corrupt,
// key-mismatched, older-format and future-format files must be
// quarantined with a logged reason (and the campaign re-runs the phases
// instead of failing). The state schema (core/state.hpp): which option
// fields move the options digest, which report fields move the report
// signature, and the payload layout golden.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "core/state.hpp"
#include "cps/camera.hpp"
#include "gp/genome.hpp"
#include "util/checkpoint.hpp"
#include "util/thread_pool.hpp"
#include "util/watchdog.hpp"
#include "vehicle/catalog.hpp"

namespace dpr {
namespace {

namespace fs = std::filesystem;

/// Same small-but-real profile the resilience suite uses.
core::CampaignOptions small_options() {
  core::CampaignOptions options;
  options.live_window = 4 * util::kSecond;
  options.gp.population = 48;
  options.gp.max_generations = 8;
  return options;
}

/// Phase index the minted checkpoints stop after (2 = ocr_extract), so a
/// resume still has real work (align..score) left to redo.
constexpr int kMintPhase = 2;

struct Keys {
  std::uint64_t car = 0;
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
};

Keys keys() {
  const core::Campaign probe(vehicle::CarId::kA, small_options());
  return Keys{probe.checkpoint_car_key(), small_options().seed,
              probe.checkpoint_options_digest()};
}

/// Car A's report from an uninterrupted, uncheckpointed run.
const core::CampaignReport& fresh_report() {
  static const core::CampaignReport report = [] {
    core::Campaign campaign(vehicle::CarId::kA, small_options());
    campaign.run();
    return campaign.report();
  }();
  return report;
}

const std::string& fresh_signature() {
  static const std::string signature = core::report_signature(fresh_report());
  return signature;
}

/// Per-test scratch checkpoint directory.
class StoreDir : public ::testing::Test {
 protected:
  StoreDir()
      : dir_((fs::temp_directory_path() /
              ("dpr_ckpt_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                 .string()) {
    fs::remove_all(dir_);
  }
  ~StoreDir() override { fs::remove_all(dir_); }

  /// Run car A interrupted after kMintPhase so it leaves a real
  /// checkpoint in dir_; returns the file's path.
  std::string mint_checkpoint() {
    auto options = small_options();
    options.checkpoint_dir = dir_;
    options.stop_after_phase = kMintPhase;
    core::Campaign campaign(vehicle::CarId::kA, options);
    campaign.run();
    const Keys k = keys();
    return core::CheckpointStore(dir_).path_for(k.car, k.seed, k.digest);
  }

  /// Resume car A from dir_ and return the finished campaign's report.
  core::CampaignReport resume() {
    auto options = small_options();
    options.checkpoint_dir = dir_;
    options.resume = true;
    core::Campaign resumed(vehicle::CarId::kA, options);
    resumed.run();
    return resumed.report();
  }

  std::string dir_;
};

/// Write a v4 container keyed `k` to `path`, as pre-v5 builds wrote it
/// (magic, version, key triple, phase, length-prefixed payload, trailing
/// FNV).
void write_v4_container(const std::string& path, const Keys& k,
                        const util::Bytes& payload) {
  util::BinaryWriter w;
  w.u32(core::kCheckpointMagic);
  w.u32(4);
  w.u64(k.car);
  w.u64(k.seed);
  w.u64(k.digest);
  w.u32(static_cast<std::uint32_t>(kMintPhase));
  w.bytes(payload);
  w.u64(util::fnv1a64(w.data()));
  ASSERT_TRUE(util::write_file_atomic(path, w.data()));
}

/// Write `current` (a container this build saved) to `path` re-emitted as
/// the previous build wrote it: version 5 and an FNV-1a tail around the
/// same sections.
void write_v5_container(const std::string& path, const util::Bytes& current) {
  util::Bytes v5(current.begin(), current.end() - 8);
  v5[4] = 5;  // the little-endian u32 version after the magic
  v5[5] = v5[6] = v5[7] = 0;
  util::BinaryWriter tail;
  tail.u64(util::fnv1a64(v5));
  v5.insert(v5.end(), tail.data().begin(), tail.data().end());
  ASSERT_TRUE(util::write_file_atomic(path, v5));
}

/// Write `current` (a container this build saved) to `path` with its STA
/// section version set to `schema`, the payload schema of an older build
/// (4 still held the wall-clock timings, 5 the full videos and every
/// intermediate), under a re-sealed XXH64 tail.
void write_old_schema_container(const std::string& path,
                                const util::Bytes& current,
                                std::uint8_t schema) {
  // save() writes KEY (24 bytes) and PHS (4 bytes) before STA, each as
  // tag, version and length-prefixed body after the 12-byte header.
  constexpr std::size_t kStateTag = 12 + (16 + 24) + (16 + 4);
  util::Bytes old(current.begin(), current.end() - 8);
  ASSERT_EQ(util::BinaryReader(std::span(old).subspan(kStateTag, 4)).u32(),
            core::kSectionState);
  old[kStateTag + 4] = schema;  // the little-endian u32 section version
  util::BinaryWriter tail;
  tail.u64(util::xxh64(old));
  old.insert(old.end(), tail.data().begin(), tail.data().end());
  ASSERT_TRUE(util::write_file_atomic(path, old));
}

/// Overwrite `path` with `data` without the atomic writer's fsyncs (for
/// tests that write hundreds of mutants).
void write_plain(const std::string& path, const util::Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

/// Every single-bit flip of `data`, then every proper prefix (truncation).
std::vector<util::Bytes> flips_and_truncations(const util::Bytes& data) {
  std::vector<util::Bytes> mutants;
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    mutants.push_back(data);
    mutants.back()[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  for (std::size_t n = 0; n < data.size(); ++n) {
    mutants.emplace_back(data.begin(), data.begin() + n);
  }
  return mutants;
}

std::string reasons_log(const core::CheckpointStore& store) {
  const auto log = util::read_file(store.reasons_log_path());
  return log ? std::string(log->begin(), log->end()) : std::string();
}

/// Quarantines on record: REASONS.log has one line per quarantined file.
std::size_t quarantines_logged(const core::CheckpointStore& store) {
  const std::string log = reasons_log(store);
  return static_cast<std::size_t>(std::count(log.begin(), log.end(), '\n'));
}

/// The checkpoint encoding of a GP genome: its genes in prefix order, each
/// as u8 op, f64 value, i64 var. Records where each kVar gene's var sits.
void write_genome(util::BinaryWriter& w, const gp::Genome& genome,
                  std::vector<std::size_t>& var_offsets) {
  for (const gp::Gene& gene : genome) {
    w.u8(static_cast<std::uint8_t>(gene.op));
    w.f64(gene.value);
    if (gene.op == gp::Op::kVar) var_offsets.push_back(w.data().size());
    w.i64(gene.var);
  }
}

// --- Self-healing: untrustworthy files are quarantined, never fatal -------

TEST_F(StoreDir, GpVariableIndexPastIntRangeIsRefusedNotNarrowed) {
  // A checkpoint minted after infer carries every GP result. Bump one
  // stored variable index by 2^32: narrowed to int it would read back as
  // the original, valid index, so only a check on the raw i64 refuses it.
  constexpr int kInferPhase = 5;
  auto options = small_options();
  options.checkpoint_dir = dir_;
  options.stop_after_phase = kInferPhase;
  core::Campaign campaign(vehicle::CarId::kA, options);
  campaign.run();
  const Keys k = keys();
  core::CheckpointStore store(dir_);
  const auto loaded = store.load(k.car, k.seed, k.digest);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->phase, static_cast<std::uint32_t>(kInferPhase));

  util::Bytes payload = loaded->payload;
  bool patched = false;
  for (const auto& finding : campaign.report().signals) {
    if (!finding.gp) continue;
    // The result's genome followed by its n_vars and fitness bits is
    // unique in the payload.
    util::BinaryWriter w;
    std::vector<std::size_t> var_offsets;
    write_genome(w, finding.gp->best, var_offsets);
    w.u64(finding.gp->n_vars);
    w.f64(finding.gp->fitness);
    if (var_offsets.empty()) continue;
    const auto at = std::search(payload.begin(), payload.end(),
                                w.data().begin(), w.data().end());
    ASSERT_NE(at, payload.end());
    // Little-endian i64: byte 4 is the 2^32 bit.
    const auto offset = static_cast<std::size_t>(at - payload.begin()) +
                        var_offsets.front() + 4;
    ASSERT_EQ(payload[offset], 0u);
    payload[offset] = 0x01;
    patched = true;
    break;
  }
  ASSERT_TRUE(patched) << "no GP result references a variable";
  ASSERT_TRUE(store.save(k.car, k.seed, k.digest,
                         static_cast<std::uint32_t>(kInferPhase), payload));

  // Refused: the file is quarantined and the campaign reruns every phase.
  const auto report = resume();
  EXPECT_EQ(report.ckpt_quarantined, 1u);
  EXPECT_EQ(core::report_signature(report), fresh_signature());
}

TEST_F(StoreDir, DatasetNarrowerThanNVarsIsRefused) {
  // A checkpoint minted after associate carries every signal's dataset,
  // and infer indexes each point's xs up to n_vars. Widen one dataset's
  // n_vars from 1 to 2 while its points keep one x each.
  constexpr int kAssociatePhase = 4;
  auto options = small_options();
  options.checkpoint_dir = dir_;
  options.stop_after_phase = kAssociatePhase;
  core::Campaign campaign(vehicle::CarId::kA, options);
  campaign.run();
  const Keys k = keys();
  core::CheckpointStore store(dir_);
  const auto loaded = store.load(k.car, k.seed, k.digest);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->phase, static_cast<std::uint32_t>(kAssociatePhase));

  util::Bytes payload = loaded->payload;
  bool patched = false;
  for (const auto& finding : campaign.report().signals) {
    const auto& dataset = finding.dataset;
    if (dataset.n_vars != 1 || dataset.points.empty()) continue;
    // The dataset's encoding (n_vars, points with their timestamps) is
    // unique in the payload.
    util::BinaryWriter w;
    w.u64(dataset.n_vars);
    w.u64(dataset.points.size());
    for (const auto& point : dataset.points) {
      w.u64(point.xs.size());
      for (const double x : point.xs) w.f64(x);
      w.f64(point.y);
      w.i64(point.x_time);
      w.i64(point.y_time);
    }
    const auto at = std::search(payload.begin(), payload.end(),
                                w.data().begin(), w.data().end());
    ASSERT_NE(at, payload.end());
    ASSERT_EQ(*at, 1u);  // little-endian n_vars
    *at = 2;
    patched = true;
    break;
  }
  ASSERT_TRUE(patched) << "no one-variable dataset with points";
  ASSERT_TRUE(store.save(k.car, k.seed, k.digest,
                         static_cast<std::uint32_t>(kAssociatePhase),
                         payload));

  const auto report = resume();
  EXPECT_EQ(report.ckpt_quarantined, 1u);
  EXPECT_EQ(core::report_signature(report), fresh_signature());
}

TEST_F(StoreDir, PhaseIndexPastTheLastPhaseIsRefused) {
  // A well-formed payload labelled with a phase the pipeline does not
  // have would skip every remaining phase and report an empty car.
  const Keys k = keys();
  mint_checkpoint();
  core::CheckpointStore store(dir_);
  const auto minted = store.load(k.car, k.seed, k.digest);
  ASSERT_TRUE(minted.has_value());
  constexpr std::uint32_t kBogusPhase = 9;
  static_assert(kBogusPhase >= core::Campaign::kNumPhases);
  ASSERT_TRUE(store.save(k.car, k.seed, k.digest, kBogusPhase,
                         minted->payload));

  const auto report = resume();
  EXPECT_EQ(report.ckpt_quarantined, 1u);
  EXPECT_EQ(core::report_signature(report), fresh_signature());
  EXPECT_NE(reasons_log(store).find("phase index out of range"),
            std::string::npos)
      << reasons_log(store);
}

TEST_F(StoreDir, PreV5ContainerRefusedQuarantinedAndPhasesRerun) {
  // Files an older build left at the current key: a v4 container, a v5
  // container (the same sections under an FNV-1a tail), and current
  // containers whose STA section carries state schema 4 or 5. Each is a
  // named load error, never migrated, never trusted, and never mistaken
  // for a torn write.
  const Keys k = keys();
  const std::string path = mint_checkpoint();
  const core::CheckpointStore store(dir_);
  const auto current = util::read_file(path);
  ASSERT_TRUE(current.has_value());
  const auto minted = store.load(k.car, k.seed, k.digest);
  ASSERT_TRUE(minted.has_value());
  const util::Bytes payload = minted->payload;
  const std::string name = fs::path(path).filename().string();
  const std::string predates =
      " predates v" + std::to_string(core::kCheckpointVersion);

  const struct {
    std::function<void()> write_older;
    std::string reason;
  } older[] = {
      {[&] { write_v4_container(path, k, payload); },
       "container version 4" + predates},
      {[&] { write_v5_container(path, *current); },
       "container version 5" + predates},
      {[&] { write_old_schema_container(path, *current, 4); },
       "state schema 4 is no longer read"},
      {[&] { write_old_schema_container(path, *current, 5); },
       "state schema 5 is no longer read"},
  };
  for (const auto& [write_older, reason] : older) {
    SCOPED_TRACE(reason);
    write_older();
    const auto refused = store.load(k.car, k.seed, k.digest);
    EXPECT_FALSE(refused.has_value());
    EXPECT_EQ(refused.error,
              core::CheckpointStore::LoadError::kObsoleteVersion);
    EXPECT_STREQ(core::CheckpointStore::load_error_name(refused.error),
                 "obsolete_version");
    EXPECT_TRUE(refused.quarantined);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(store.quarantine_dir() + "/" + name));
    const std::string log = reasons_log(store);
    EXPECT_NE(log.find(name + ": " + reason), std::string::npos) << log;

    // Through the campaign: the refused file costs a re-run of its
    // phases, nothing else — same signature as a fresh run, one
    // quarantined file.
    write_older();
    const auto report = resume();
    EXPECT_EQ(core::report_signature(report), fresh_signature());
    EXPECT_EQ(report.ckpt_quarantined, 1u);
    EXPECT_EQ(quarantines_logged(store), 2u);
    fs::remove_all(store.quarantine_dir());
  }
}

TEST_F(StoreDir, TruncatedCheckpointQuarantinedAndPhaseRerun) {
  const std::string path = mint_checkpoint();
  const auto full = util::read_file(path);
  ASSERT_TRUE(full.has_value());
  {
    // Tear the file the way a crashed non-durable writer would.
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(reinterpret_cast<const char*>(full->data()),
               static_cast<std::streamsize>(full->size() / 2));
  }

  const auto report = resume();
  // The bad file cost nothing but a fresh start: same signature, one
  // quarantined checkpoint, reason on record.
  EXPECT_EQ(core::report_signature(report), fresh_signature());
  EXPECT_EQ(report.ckpt_quarantined, 1u);

  const core::CheckpointStore store(dir_);
  EXPECT_EQ(quarantines_logged(store), 1u);
  const std::string log = reasons_log(store);
  EXPECT_NE(log.find(fs::path(path).filename().string()), std::string::npos);
  EXPECT_NE(log.find("torn"), std::string::npos);
}

TEST_F(StoreDir, CorruptedByteIsTornNotCrash) {
  const Keys k = keys();
  const std::string path = mint_checkpoint();
  auto data = *util::read_file(path);
  data[data.size() / 2] ^= 0x40;
  ASSERT_TRUE(util::write_file_atomic(path, data));

  const core::CheckpointStore store(dir_);
  const auto result = store.load(k.car, k.seed, k.digest);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.error, core::CheckpointStore::LoadError::kTorn);
  EXPECT_TRUE(result.quarantined);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(store.quarantine_dir() + "/" +
                         fs::path(path).filename().string()));
}

TEST_F(StoreDir, FutureContainerVersionRejectedWithReason) {
  const Keys k = keys();
  const core::CheckpointStore store(dir_);
  util::BinaryWriter w;
  w.u32(core::kCheckpointMagic);
  w.u32(core::kCheckpointVersion + 1);
  w.u64(util::xxh64(w.data()));
  ASSERT_TRUE(util::write_file_atomic(store.path_for(k.car, k.seed, k.digest),
                                      w.data()));

  const auto result = store.load(k.car, k.seed, k.digest);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.error, core::CheckpointStore::LoadError::kFutureVersion);
  EXPECT_TRUE(result.quarantined);
  EXPECT_NE(result.detail.find("newer build"), std::string::npos);
}

TEST_F(StoreDir, UnknownSectionRejectedByName) {
  const Keys k = keys();
  const core::CheckpointStore store(dir_);
  util::BinaryWriter w;
  w.u32(core::kCheckpointMagic);
  w.u32(core::kCheckpointVersion);
  w.u32(1);            // one section, and it's one this build lacks
  w.u32(0x00585858);   // "XXX"
  w.u32(1);
  w.bytes(util::Bytes{0xAB});
  w.u64(util::xxh64(w.data()));
  ASSERT_TRUE(util::write_file_atomic(store.path_for(k.car, k.seed, k.digest),
                                      w.data()));

  const auto result = store.load(k.car, k.seed, k.digest);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.error, core::CheckpointStore::LoadError::kUnknownSection);
  EXPECT_TRUE(result.quarantined);
  EXPECT_NE(result.detail.find("0x00585858"), std::string::npos);
}

TEST_F(StoreDir, EmbeddedKeyMismatchQuarantined) {
  const Keys k = keys();
  // File named for one digest, content keyed for another: the classic
  // "renamed by hand" corruption.
  const auto content = util::read_file(mint_checkpoint());
  ASSERT_TRUE(content.has_value());
  const core::CheckpointStore store(dir_);
  ASSERT_TRUE(util::write_file_atomic(
      store.path_for(k.car, k.seed, k.digest ^ 1), *content));

  const auto result = store.load(k.car, k.seed, k.digest ^ 1);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.error, core::CheckpointStore::LoadError::kKeyMismatch);
  EXPECT_TRUE(result.quarantined);
}

TEST_F(StoreDir, MissingFileIsACleanMissNotAFault) {
  const core::CheckpointStore store(dir_);
  const auto result = store.load(1, 2, 3);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(result.error, core::CheckpointStore::LoadError::kMissing);
  EXPECT_FALSE(result.quarantined);
  EXPECT_STREQ(core::CheckpointStore::load_error_name(result.error),
               "missing");
}

// --- heal(): one sweep quarantines the bad, keeps the good ----------------

TEST_F(StoreDir, HealSweepsGarbagePreV5FilesAndDeadTmps) {
  const core::CheckpointStore store(dir_);
  // Healthy file (via a real save), one pre-v5 container, one garbage
  // file wearing the .ckpt extension, one temp file of a dead writer.
  const util::Bytes payload{0x01, 0x02, 0x03};
  ASSERT_TRUE(store.save(7, 8, 9, 1, payload));
  const Keys old_key{7, 8, 10};
  const std::string old_path = store.path_for(7, 8, 10);
  write_v4_container(old_path, old_key, payload);
  const util::Bytes garbage{'n', 'o', 't', ' ', 'a', ' ', 'c', 'k', 'p',
                            't', ' ', 'a', 't', ' ', 'a', 'l', 'l', '!'};
  ASSERT_TRUE(util::write_file_atomic(dir_ + "/dpr-garbage.ckpt", garbage));

  // A guaranteed-dead pid: fork a child that exits immediately.
  const pid_t dead = fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  int status = 0;
  ASSERT_EQ(waitpid(dead, &status, 0), dead);
  {
    std::ofstream tmp(dir_ + "/dpr-orphan.ckpt.tmp." + std::to_string(dead));
    tmp << "half-written";
  }

  const auto healed = store.heal();
  EXPECT_EQ(healed.scanned, 3u);
  EXPECT_EQ(healed.healthy, 1u);
  EXPECT_EQ(healed.quarantined, 2u);  // the garbage and the pre-v5 file
  EXPECT_EQ(healed.tmp_swept, 1u);
  EXPECT_FALSE(fs::exists(dir_ + "/dpr-garbage.ckpt"));
  EXPECT_FALSE(fs::exists(old_path));
  EXPECT_TRUE(store.load(7, 8, 9).has_value());

  // The directory is now stable: a second sweep finds nothing to do.
  const auto again = store.heal();
  EXPECT_EQ(again.quarantined, 0u);
  EXPECT_EQ(again.tmp_swept, 0u);
}

// --- Every single-bit flip and every truncation is refused ----------------

TEST_F(StoreDir, EveryBitFlipAndTruncationOfAContainerIsRefused) {
  const core::CheckpointStore store(dir_);
  const util::Bytes payload{0x01, 0x02, 0x03, 0x04};
  ASSERT_TRUE(store.save(7, 8, 9, 1, payload));
  const std::string path = store.path_for(7, 8, 9);
  const std::string quarantined =
      store.quarantine_dir() + "/" + fs::path(path).filename().string();
  const auto good = util::read_file(path);
  ASSERT_TRUE(good.has_value());
  ASSERT_EQ(good->size(), 100u);

  using LoadError = core::CheckpointStore::LoadError;
  const std::size_t flips = good->size() * 8;
  const auto mutants = flips_and_truncations(*good);
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    write_plain(path, mutants[i]);
    const auto result = store.load(7, 8, 9);
    EXPECT_FALSE(result.has_value()) << "mutant " << i;
    // The header is classified first: a flipped magic is not a
    // checkpoint, a flipped version names an older or newer build, and
    // everything else, truncations included, fails the tail.
    const std::size_t byte = i / 8;
    if (i < flips && byte < 4) {
      EXPECT_EQ(result.error, LoadError::kBadMagic) << "mutant " << i;
    } else if (i < flips && byte < 8) {
      EXPECT_TRUE(result.error == LoadError::kObsoleteVersion ||
                  result.error == LoadError::kFutureVersion)
          << "mutant " << i << ": " << result.detail;
    } else {
      EXPECT_EQ(result.error, LoadError::kTorn)
          << "mutant " << i << ": " << result.detail;
    }
    EXPECT_TRUE(result.quarantined) << "mutant " << i;
    EXPECT_FALSE(fs::exists(path)) << "mutant " << i;
    // Drop the evidence so the next quarantine does not search past it.
    EXPECT_TRUE(fs::remove(quarantined)) << "mutant " << i;
  }

  write_plain(path, *good);
  EXPECT_TRUE(store.load(7, 8, 9).has_value());
}

// --- Error-reason surface --------------------------------------------------

TEST_F(StoreDir, SaveSurfacesFailingStageAndErrno) {
  // A store rooted under a regular file cannot create its directory, so
  // the very first step of the atomic write protocol must fail — with a
  // stage name and errno, not a bare false.
  fs::create_directories(dir_);
  const std::string blocker = dir_ + "/not_a_dir";
  { std::ofstream out(blocker); out << "file"; }
  const core::CheckpointStore store(blocker + "/sub");
  const util::Bytes payload{0x00};
  const auto saved = store.save(1, 2, 3, 0, payload);
  EXPECT_FALSE(saved);
  EXPECT_NE(saved.error, 0);
  EXPECT_STRNE(saved.stage, "");
  EXPECT_NE(saved.message().find(saved.stage), std::string::npos);
}

// --- The state schema (core/state.hpp) ------------------------------------

/// Walks a field list and bumps the leaf at `target`, counting every
/// leaf it passes: a bool is flipped, a number gains one, a string gains
/// a character and a genome is negated. Vectors (util::Bytes included)
/// are walked at their first element and optionals at their value; an
/// empty one has no leaves.
struct BumpLeaf {
  std::size_t target = 0;
  std::size_t leaves = 0;

  template <class... T>
  void operator()(T&... v) {
    (visit(v), ...);
  }
  void visit(gp::Genome& v) {
    if (leaves++ == target) v.insert(v.begin(), gp::Gene{gp::Op::kNeg});
  }
  template <class T>
  void visit(std::vector<T>& v) {
    if (!v.empty()) visit(v.front());
  }
  template <class T>
  void visit(std::optional<T>& v) {
    if (v) visit(*v);
  }
  template <class T>
  void visit(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      if (leaves++ == target) v = !v;
    } else if constexpr (std::is_arithmetic_v<T>) {
      if (leaves++ == target) v = static_cast<T>(v + 1);
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (leaves++ == target) v += '!';
    } else {
      core::state::fields(*this, v);
    }
  }
};

std::uint64_t digest_of(const core::CampaignOptions& options) {
  return core::Campaign(vehicle::CarId::kA, options)
      .checkpoint_options_digest();
}

TEST(StateSchema, EveryProductShapingOptionMovesTheDigest) {
  const core::CampaignOptions base;
  const std::uint64_t base_digest = digest_of(base);
  BumpLeaf count{.target = SIZE_MAX};
  core::CampaignOptions probe = base;
  count(probe);
  ASSERT_EQ(count.leaves, 24u);
  for (std::size_t i = 0; i < count.leaves; ++i) {
    core::CampaignOptions bumped = base;
    BumpLeaf bump{.target = i};
    bump(bumped);
    EXPECT_NE(digest_of(bumped), base_digest) << "leaf " << i;
  }
}

TEST(StateSchema, ExecutionOnlyOptionsLeaveTheDigestAlone) {
  util::ThreadPool pool(1);
  const util::Watchdog watchdog;
  using Edit = std::function<void(core::CampaignOptions&)>;
  const std::vector<Edit> execution_only = {
      [](auto& o) { o.infer_threads = 8; },
      [&](auto& o) { o.infer_pool = &pool; },
      [](auto& o) { o.checkpoint_dir = "elsewhere"; },
      [](auto& o) { o.resume = true; },
      [](auto& o) { o.stop_after_phase = 3; },
      [](auto& o) { o.phase_deadline_s = 5.0; },
      [](auto& o) { o.stall_phase = "infer"; },
      [](auto& o) { o.phase_sim_budget_s = 60.0; },
      [&](auto& o) { o.gp.cancel = &watchdog; },
  };
  ASSERT_EQ(execution_only.size(), 9u);
  const core::CampaignOptions base;
  const std::uint64_t base_digest = digest_of(base);
  for (std::size_t i = 0; i < execution_only.size(); ++i) {
    core::CampaignOptions edited = base;
    execution_only[i](edited);
    EXPECT_EQ(digest_of(edited), base_digest) << "edit " << i;
  }
}

TEST(StateSchema, EveryReportStateLeafMovesTheSignature) {
  // The signature is the report's encoding, so no leaf the field lists
  // pass can change without it. Car A's first signal carries a GP result
  // and both baselines, so the walk reaches every struct of the report
  // except TransactionFailure (car A fails no transaction).
  const core::CampaignReport& base = fresh_report();
  BumpLeaf count{.target = SIZE_MAX};
  core::CampaignReport probe = base;
  count(probe);
  ASSERT_EQ(count.leaves, 88u);
  for (std::size_t i = 0; i < count.leaves; ++i) {
    core::CampaignReport bumped = base;
    BumpLeaf bump{.target = i};
    bump(bumped);
    EXPECT_NE(core::report_signature(bumped), fresh_signature())
        << "leaf " << i;
  }
}

TEST(StateSchema, ObservationalFieldsLeaveTheSignatureAlone) {
  // How long a run took, how its tuner memo fared and which files it
  // quarantined on the way are not what it produced.
  const auto timings = [](core::CampaignReport& r) -> gp::GpStageTimings& {
    for (auto& signal : r.signals) {
      if (signal.gp) return signal.gp->timings;
    }
    throw std::logic_error("no GP result");
  };
  using Edit = std::function<void(core::CampaignReport&)>;
  const std::vector<Edit> observational = {
      [](auto& r) { r.phases += {1, 1, 1, 1, 1, 1, 1}; },
      [&](auto& r) { timings(r).scoring_s += 1; },
      [&](auto& r) { timings(r).tuning_s += 1; },
      [&](auto& r) { timings(r).breeding_s += 1; },
      [&](auto& r) { timings(r).total_s += 1; },
      [&](auto& r) { timings(r).evaluations += 1; },
      [&](auto& r) { timings(r).cache_hits += 1; },
      [&](auto& r) { timings(r).cache_misses += 1; },
      [](auto& r) { r.ckpt_quarantined += 1; },
  };
  for (std::size_t i = 0; i < observational.size(); ++i) {
    core::CampaignReport edited = fresh_report();
    observational[i](edited);
    EXPECT_EQ(core::report_signature(edited), fresh_signature())
        << "edit " << i;
  }
}

TEST(StateSchema, GpGenomeRoundTripsAndEachMalformedGeneIsRefused) {
  // A GpResult starts with its genome: the genes in prefix order, 17
  // bytes each (u8 op, f64 value, i64 var) with no count. A valid result
  // reads back byte for byte; each malformed genome below is refused by
  // the one check that exists for it.
  gp::GpResult valid;
  valid.best = {{gp::Op::kAdd},
                {gp::Op::kMul},
                {gp::Op::kVar, 0},
                {gp::Op::kConst, 0, -0.5},
                {gp::Op::kVar, 1}};  // ((X0 * -0.5) + X1)
  valid.n_vars = 2;
  valid.fitness = 0.25;
  valid.x_scales.assign(2, gp::SeriesScale{10.0});
  valid.formula = "Y = (((X0/10) * -0.5) + (X1/10))";
  const auto encode = [](const gp::GpResult& result) {
    core::state::Writer writer;
    writer(result);
    return writer.take();
  };
  // What the reader says: its refusal, or "accepted".
  const auto refusal = [](const util::Bytes& bytes) -> std::string {
    try {
      core::state::Reader reader(bytes);
      gp::GpResult result;
      reader(result);
      return reader.done() ? "accepted" : "trailing bytes";
    } catch (const std::runtime_error& e) {
      return e.what();
    }
  };
  const util::Bytes bytes = encode(valid);
  {
    core::state::Reader reader(bytes);
    gp::GpResult restored;
    reader(restored);
    EXPECT_EQ(encode(restored), bytes);
  }

  constexpr std::size_t kGeneBytes = 17;
  constexpr std::size_t kVarAt = 9;  // past the op and the value
  const auto patched = [&bytes](std::size_t at, std::uint8_t byte) {
    util::Bytes mutant = bytes;
    mutant[at] = byte;
    return mutant;
  };
  // X0 under `n_neg` negations: a tree of depth n_neg + 1.
  const auto chain = [&](std::size_t n_neg) {
    gp::GpResult result = valid;
    result.best.assign(n_neg, {gp::Op::kNeg});
    result.best.push_back({gp::Op::kVar, 0});
    return encode(result);
  };
  EXPECT_EQ(refusal(chain(64)), "accepted");  // the deepest readable tree
  const struct {
    const char* what;
    util::Bytes bytes;
    const char* refusal;
  } rows[] = {
      {"opcode past kInv",
       patched(0, static_cast<std::uint8_t>(gp::Op::kInv) + 1),
       "checkpoint: bad expression opcode"},
      {"kNeg chain one gene deeper than the cap", chain(65),
       "checkpoint: expression too deep"},
      {"var == n_vars (gene 4 is X1)", patched(4 * kGeneBytes + kVarAt, 2),
       "checkpoint: variable index out of range"},
      {"var = 2^32 (gene 2 is X0)", patched(2 * kGeneBytes + kVarAt + 4, 1),
       "checkpoint: variable index out of range"},
  };
  for (const auto& row : rows) {
    EXPECT_EQ(refusal(row.bytes), row.refusal) << row.what;
  }
}

// --- The video codec -------------------------------------------------------

cps::TextRegion text_region(std::string truth, int row) {
  cps::TextRegion region;
  region.truth = std::move(truth);
  region.bounds = {20, 40 * row, 240, 30};
  region.row = row;
  region.clickable = row == 0;
  return region;
}

cps::IconRegion icon_region(std::string identity) {
  cps::IconRegion icon;
  icon.bounds = {600, 10, 32, 32};
  icon.icon_identity = std::move(identity);
  return icon;
}

cps::Screenshot screenshot(util::SimTime timestamp,
                           std::vector<cps::TextRegion> texts,
                           std::vector<cps::IconRegion> icons = {}) {
  cps::ScreenImage image;
  image.width = 800;
  image.height = 480;
  image.text_regions = std::move(texts);
  image.icon_regions = std::move(icons);
  return {timestamp,
          std::make_shared<const cps::ScreenImage>(std::move(image))};
}

util::Bytes encode_video(const cps::VideoRecording& video) {
  core::state::Writer writer;
  writer(video);
  return writer.take();
}

/// What the reader makes of `bytes`: "accepted" with the recording, or
/// its refusal.
std::pair<std::string, cps::VideoRecording> decode_video(
    const util::Bytes& bytes) {
  cps::VideoRecording video;
  try {
    core::state::Reader reader(bytes);
    reader(video);
    return {reader.done() ? "accepted" : "trailing bytes", std::move(video)};
  } catch (const std::runtime_error& e) {
    return {e.what(), {}};
  }
}

/// A data-stream screen: a title, a label and a value row, and a back
/// icon. Only the value changes between frames.
cps::Screenshot live_screen(util::SimTime timestamp, const std::string& value) {
  return screenshot(timestamp,
                    {text_region("Data Stream", 0),
                     text_region("Engine Speed", 1),
                     text_region(value, 1)},
                    {icon_region("back_arrow")});
}

TEST(StateSchema, VideoRoundTripsAndARepeatedRegionCostsOneByte) {
  using Frames = std::vector<cps::Screenshot>;
  const struct {
    const char* what;
    Frames frames;
  } rows[] = {
      {"empty recording", {}},
      {"key frames only",
       {live_screen(0, "800"),
        screenshot(100, {text_region("OBD", 2)}, {icon_region("home")})}},
      {"repeated regions",
       {live_screen(0, "800"), live_screen(100, "800"),
        live_screen(200, "812"), live_screen(300, "812")}},
      {"region count changes mid-stream",
       {live_screen(0, "800"),
        screenshot(100, {text_region("Data Stream", 0)}),
        live_screen(200, "800"), live_screen(300, "800")}},
      {"icon change",
       {live_screen(0, "800"),
        screenshot(100, live_screen(0, "800").image->text_regions,
                   {icon_region("next_page")}),
        screenshot(200, live_screen(0, "800").image->text_regions,
                   {icon_region("next_page"), icon_region("back_arrow")})}},
  };
  for (const auto& row : rows) {
    const cps::VideoRecording video{row.frames};
    const util::Bytes bytes = encode_video(video);
    const auto [verdict, restored] = decode_video(bytes);
    EXPECT_EQ(verdict, "accepted") << row.what;
    EXPECT_TRUE(restored.frames == video.frames) << row.what;
    EXPECT_EQ(encode_video(restored), bytes) << row.what;
  }

  // A frame equal to the one before costs its timestamp, width, height
  // and two counts (40 bytes) plus one byte per region.
  const cps::VideoRecording one{{live_screen(0, "800")}};
  const cps::VideoRecording two{{live_screen(0, "800"),
                                 live_screen(100, "800")}};
  EXPECT_EQ(encode_video(two).size() - encode_video(one).size(), 40u + 4u);
}

TEST(StateSchema, EachMalformedVideoRepeatIsRefused) {
  // Frame layout: i64 timestamp, i64 width, i64 height, u64 text count,
  // regions, u64 icon count, regions; a region is a u8 marker (0 stored,
  // 1 repeated) and, when stored, its fields.
  const auto frame_bytes = [](std::uint64_t n_texts, std::uint8_t marker) {
    util::BinaryWriter w;
    w.i64(0);
    w.i64(800);
    w.i64(480);
    w.u64(n_texts);
    for (std::uint64_t i = 0; i < n_texts; ++i) w.u8(marker);
    w.u64(0);
    return w.take();
  };
  // `frames` encoded as a recording.
  const auto recording = [](const std::vector<util::Bytes>& frames) {
    util::BinaryWriter w;
    w.u64(frames.size());
    util::Bytes bytes = w.take();
    for (const auto& frame : frames) {
      bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    return bytes;
  };
  // The first frame of a valid one-region recording, region stored.
  const util::Bytes stored_frame = [] {
    const util::Bytes one =
        encode_video({{screenshot(0, {text_region("800", 1)})}});
    return util::Bytes(one.begin() + 8, one.end());
  }();
  util::Bytes bad_marker = encode_video({{live_screen(0, "800")}});
  bad_marker[8 + 24 + 8] = 2;  // the first text region's marker

  const struct {
    const char* what;
    util::Bytes bytes;
    const char* refusal;
  } rows[] = {
      {"repeat on the first frame", recording({frame_bytes(1, 1)}),
       "checkpoint: video region repeated on the first frame"},
      {"repeat of region 1 after a one-region frame",
       recording({stored_frame, frame_bytes(2, 1)}),
       "checkpoint: video region repeated past the previous frame's "
       "regions"},
      {"marker 2", bad_marker, "checkpoint: bad video region marker"},
  };
  for (const auto& row : rows) {
    EXPECT_EQ(decode_video(row.bytes).first, row.refusal) << row.what;
  }

  // One 60 KB region, then frames that repeat it: 10 frames copy less
  // than the budget allows, 10,000 (about 600 MB of text from a 470 KB
  // payload) are refused long before the copies add up.
  const util::Bytes key_frame = encode_video(
      {{screenshot(0, {text_region(std::string(60000, '8'), 1)})}});
  const auto repeated = [&](std::size_t n_frames) {
    std::vector<util::Bytes> frames{
        util::Bytes(key_frame.begin() + 8, key_frame.end())};
    frames.resize(n_frames, frame_bytes(1, 1));
    return recording(frames);
  };
  EXPECT_EQ(decode_video(repeated(10)).first, "accepted");
  const util::Bytes crafted = repeated(10000);
  EXPECT_LT(crafted.size(), 500000u);
  EXPECT_EQ(decode_video(crafted).first,
            "checkpoint: video copies past its expansion budget");
}

TEST(StateSchema, EveryBitFlipAndTruncationOfAVideoDecodesOrThrows) {
  // Three frames with stored, repeated and re-laid-out regions. Every
  // mutant either decodes or is refused with std::runtime_error; under
  // the sanitizers no mutant reads out of bounds.
  const cps::VideoRecording video{
      {live_screen(0, "800"), live_screen(100, "812"),
       screenshot(200, {text_region("Data Stream", 0)},
                  {icon_region("back_arrow"), icon_region("home")})}};
  const util::Bytes bytes = encode_video(video);
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (const util::Bytes& mutant : flips_and_truncations(bytes)) {
    cps::VideoRecording restored;
    try {
      core::state::Reader reader(mutant);
      reader(restored);
      ++accepted;
    } catch (const std::runtime_error&) {
      ++refused;
    }
  }
  EXPECT_EQ(accepted + refused, bytes.size() * 9);
  // Every truncation is refused (the frame count promises more), and
  // some flips are.
  EXPECT_GT(refused, bytes.size());
}

/// Records, for every vector the schema walks, whether any payload held
/// it non-empty. A vector is named by its enclosing struct and its rank
/// among that struct's vectors. An empty vector or optional walks one
/// default element, so vectors no payload fills are still registered.
class VectorCensus {
 public:
  template <class... T>
  void operator()(T&... v) {
    (visit(v), ...);
  }

  std::map<std::string, bool> filled;

 private:
  // A genome has its own codec, not the vector one.
  void visit(gp::Genome&) {}
  template <class T>
  void visit(std::vector<T>& v) {
    filled[scope_ + "#" + std::to_string(rank_++)] |= !v.empty();
    if (v.empty()) {
      T element{};
      visit(element);
    }
    for (auto& element : v) visit(element);
  }
  template <class T>
  void visit(std::optional<T>& v) {
    T fallback{};
    visit(v ? *v : fallback);
  }
  // A shared image is walked through a copy of what it points at.
  template <class T>
  void visit(std::shared_ptr<const T>& v) {
    T copy = v ? *v : T{};
    visit(copy);
  }
  template <class T>
  void visit(T& v) {
    if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string> &&
                  !std::is_same_v<T, can::CanFrame>) {
      const std::string scope = std::exchange(scope_, typeid(T).name());
      const std::size_t rank = std::exchange(rank_, 0);
      core::state::fields(*this, v);
      scope_ = scope;
      rank_ = rank;
    }
  }

  std::string scope_;
  std::size_t rank_ = 0;
};

TEST_F(StoreDir, PayloadLayoutMatchesGolden) {
  // FNV-1a chained over the checkpoints two cars leave after phases 0-5,
  // each phase resumed from the one before: car A clean, car B with bus
  // and session faults and NM. Phase 5's payload holds the GP results,
  // so a declared GP product change moves it without any layout change.
  // Only a declared kCheckpointPayloadSchema bump, or a declared GP
  // product change whose chain over phases 0-4 still matches the
  // parent's, may refresh it.
  constexpr std::uint64_t kGolden = 0x089d5507904ba81fULL;
  auto clean = small_options();
  auto faulted = small_options();
  faulted.faults.rate = 0.05;
  faulted.faults.session_faults = true;
  faulted.faults.nm = true;

  std::uint64_t chain = 0xCBF29CE484222325ULL;
  VectorCensus census;
  for (auto [car, options] : {std::pair{vehicle::CarId::kA, clean},
                              std::pair{vehicle::CarId::kB, faulted}}) {
    options.checkpoint_dir = dir_;
    for (int phase = 0; phase <= 5; ++phase) {
      options.resume = phase > 0;
      options.stop_after_phase = phase;
      core::Campaign campaign(car, options);
      campaign.run();
      ASSERT_EQ(campaign.report().ckpt_quarantined, 0u);
      const auto loaded = core::CheckpointStore(dir_).load(
          campaign.checkpoint_car_key(), options.seed,
          campaign.checkpoint_options_digest());
      ASSERT_TRUE(loaded.has_value());
      ASSERT_EQ(loaded->phase, static_cast<std::uint32_t>(phase));

      core::state::Payload payload;
      core::state::Reader reader(loaded->payload);
      reader(payload);
      ASSERT_TRUE(reader.done());
      census(payload);
      core::state::Writer writer;
      writer(payload);
      chain = util::fnv1a64(writer.data(), chain);
    }
  }
  EXPECT_EQ(chain, kGolden) << "fresh: 0x" << std::hex << chain;

  // Each of the 28 vectors the schema walks (util::Bytes included) is
  // filled somewhere, so the golden covers the encoding of its elements.
  EXPECT_EQ(census.filled.size(), 28u);
  for (const auto& [vector, filled] : census.filled) {
    EXPECT_TRUE(filled) << vector << " is empty in every checkpoint";
  }
}

}  // namespace
}  // namespace dpr
