// Checkpoint-store durability and self-healing: torn, corrupt,
// key-mismatched, pre-v5 and future-format files must be quarantined with
// a logged reason (and the campaign re-runs the phases instead of
// failing); the MANIFEST must account for every mutation of the
// directory.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "util/checkpoint.hpp"
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

const std::string& fresh_signature() {
  static const std::string signature = [] {
    core::Campaign campaign(vehicle::CarId::kA, small_options());
    campaign.run();
    return core::report_signature(campaign.report());
  }();
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

  /// Run car A interrupted after kMintPhase so it leaves a real v5
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

std::string reasons_log(const core::CheckpointStore& store) {
  const auto log = util::read_file(store.reasons_log_path());
  return log ? std::string(log->begin(), log->end()) : std::string();
}

// --- Self-healing: untrustworthy files are quarantined, never fatal -------

TEST_F(StoreDir, PreV5ContainerRefusedQuarantinedAndPhasesRerun) {
  // A v4 container at the current key — the state an older build left
  // behind. It is a named load error, never migrated and never trusted.
  const Keys k = keys();
  const std::string path = mint_checkpoint();
  const core::CheckpointStore store(dir_);
  const auto minted = store.load(k.car, k.seed, k.digest);
  ASSERT_TRUE(minted.has_value());
  const util::Bytes payload = minted->payload;
  write_v4_container(path, k, payload);

  const auto refused = store.load(k.car, k.seed, k.digest);
  EXPECT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error, core::CheckpointStore::LoadError::kObsoleteVersion);
  EXPECT_STREQ(core::CheckpointStore::load_error_name(refused.error),
               "obsolete_version");
  EXPECT_TRUE(refused.quarantined);
  const std::string name = fs::path(path).filename().string();
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(store.quarantine_dir() + "/" + name));
  const std::string log = reasons_log(store);
  EXPECT_NE(log.find(name + ": container version 4 predates v5"),
            std::string::npos)
      << log;

  // Through the campaign: the refused file costs a re-run of its phases,
  // nothing else — same signature as a fresh run, one quarantined file.
  write_v4_container(path, k, payload);
  const auto report = resume();
  EXPECT_EQ(core::report_signature(report), fresh_signature());
  EXPECT_EQ(report.ckpt_quarantined, 1u);
  EXPECT_EQ(store.manifest().quarantines, 2u);
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
  EXPECT_EQ(store.manifest().quarantines, 1u);
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
  w.u64(util::fnv1a64(w.data()));
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
  w.u64(util::fnv1a64(w.data()));
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
  // Healthy v5 file (via a real save), one pre-v5 container, one garbage
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

// --- MANIFEST bookkeeping --------------------------------------------------

TEST_F(StoreDir, ManifestAccountsForEveryMutation) {
  const core::CheckpointStore store(dir_);
  EXPECT_EQ(store.manifest().generation, 0u);  // absent reads as zeros

  const util::Bytes payload{0xAA, 0xBB};
  ASSERT_TRUE(store.save(7, 8, 9, 0, payload));
  ASSERT_TRUE(store.save(7, 8, 9, 1, payload));
  EXPECT_EQ(store.manifest().saves, 2u);
  EXPECT_EQ(store.manifest().generation, 2u);

  store.remove(7, 8, 9);
  EXPECT_EQ(store.manifest().removes, 1u);
  EXPECT_EQ(store.manifest().generation, 3u);
  store.remove(7, 8, 9);  // removing a missing key is not a mutation
  EXPECT_EQ(store.manifest().removes, 1u);

  // A torn manifest reads as zeros and is rebuilt by the next mutation.
  {
    std::ofstream torn(dir_ + "/MANIFEST",
                       std::ios::binary | std::ios::trunc);
    torn << "ga";
  }
  EXPECT_EQ(store.manifest().generation, 0u);
  ASSERT_TRUE(store.save(7, 8, 9, 2, payload));
  EXPECT_EQ(store.manifest().generation, 1u);
  EXPECT_EQ(store.manifest().saves, 1u);
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

}  // namespace
}  // namespace dpr
