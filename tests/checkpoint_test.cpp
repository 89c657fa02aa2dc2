// Checkpoint-store durability and self-healing: torn, corrupt,
// key-mismatched, older-format and future-format files must be
// quarantined with a logged reason (and the campaign re-runs the phases
// instead of failing); the MANIFEST must account for every mutation of
// the directory.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "core/state.hpp"
#include "gp/expr.hpp"
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

/// The checkpoint encoding of a GP expression: pre-order, each node as
/// u8 op, f64 value, i64 var. Records where each kVar node's var sits.
void write_expr(util::BinaryWriter& w, const gp::Expr& expr,
                std::vector<std::size_t>& var_offsets) {
  std::vector<const gp::Node*> stack{expr.root()};
  while (!stack.empty()) {
    const gp::Node* node = stack.back();
    stack.pop_back();
    w.u8(static_cast<std::uint8_t>(node->op));
    w.f64(node->value);
    if (node->op == gp::Op::kVar) var_offsets.push_back(w.data().size());
    w.i64(node->var);
    if (node->rhs) stack.push_back(node->rhs.get());
    if (node->lhs) stack.push_back(node->lhs.get());
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
    // The result's expression followed by its n_vars and fitness bits is
    // unique in the payload.
    util::BinaryWriter w;
    std::vector<std::size_t> var_offsets;
    write_expr(w, finding.gp->best, var_offsets);
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
  // Containers an older build left at the current key: a v4 container,
  // and the previous build's v5 container (the same sections under an
  // FNV-1a tail). Each is a named load error, never migrated, never
  // trusted, and never mistaken for a torn write.
  const Keys k = keys();
  const std::string path = mint_checkpoint();
  const core::CheckpointStore store(dir_);
  const auto current = util::read_file(path);
  ASSERT_TRUE(current.has_value());
  const auto minted = store.load(k.car, k.seed, k.digest);
  ASSERT_TRUE(minted.has_value());
  const util::Bytes payload = minted->payload;
  const std::string name = fs::path(path).filename().string();

  const std::vector<std::pair<int, std::function<void()>>> older = {
      {4, [&] { write_v4_container(path, k, payload); }},
      {5, [&] { write_v5_container(path, *current); }},
  };
  std::uint64_t quarantines = 0;
  for (const auto& [version, write_older] : older) {
    SCOPED_TRACE("container version " + std::to_string(version));
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
    EXPECT_NE(log.find(name + ": container version " +
                       std::to_string(version) + " predates v" +
                       std::to_string(core::kCheckpointVersion)),
              std::string::npos)
        << log;

    // Through the campaign: the refused file costs a re-run of its
    // phases, nothing else — same signature as a fresh run, one
    // quarantined file.
    write_older();
    const auto report = resume();
    EXPECT_EQ(core::report_signature(report), fresh_signature());
    EXPECT_EQ(report.ckpt_quarantined, 1u);
    quarantines += 2;
    EXPECT_EQ(store.manifest().quarantines, quarantines);
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

TEST_F(StoreDir, EveryBitFlipAndTruncationOfTheManifestReadsAsZeros) {
  const core::CheckpointStore store(dir_);
  const util::Bytes payload{0x01, 0x02, 0x03, 0x04};
  ASSERT_TRUE(store.save(7, 8, 9, 1, payload));
  store.remove(7, 8, 9);
  ASSERT_EQ(store.manifest().generation, 2u);
  const std::string path = dir_ + "/MANIFEST";
  const auto good = util::read_file(path);
  ASSERT_TRUE(good.has_value());

  const auto mutants = flips_and_truncations(*good);
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    write_plain(path, mutants[i]);
    const auto m = store.manifest();
    EXPECT_EQ(m.generation, 0u) << "mutant " << i;
    EXPECT_EQ(m.saves, 0u) << "mutant " << i;
    EXPECT_EQ(m.removes, 0u) << "mutant " << i;
    EXPECT_EQ(m.quarantines, 0u) << "mutant " << i;
  }

  write_plain(path, *good);
  EXPECT_EQ(store.manifest().generation, 2u);
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

// --- The state schema (core/state.hpp) ------------------------------------

/// Walks the options digest's field list and bumps the leaf at `target`
/// (bool flipped, number plus one), counting every leaf it passes.
struct BumpLeaf {
  std::size_t target = 0;
  std::size_t leaves = 0;

  template <class... T>
  void operator()(T&... v) {
    (visit(v), ...);
  }
  template <class T>
  void visit(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      if (leaves++ == target) v = !v;
    } else if constexpr (std::is_arithmetic_v<T>) {
      if (leaves++ == target) v = static_cast<T>(v + 1);
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
  ASSERT_EQ(count.leaves, 40u);
  for (std::size_t i = 0; i < count.leaves; ++i) {
    core::CampaignOptions bumped = base;
    BumpLeaf bump{.target = i};
    bump(bumped);
    EXPECT_NE(digest_of(bumped), base_digest) << "leaf " << i;
  }
}

TEST(StateSchema, ExecutionOnlyOptionsLeaveTheDigestAlone) {
  util::ThreadPool pool(1);
  const util::CancelToken token;
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
      [](auto& o) { o.gp.fitness_cache = false; },
      [](auto& o) { o.gp.fitness_cache_capacity = 64; },
      [](auto& o) { o.gp.n_threads = 8; },
      [&](auto& o) { o.gp.cancel = &token; },
  };
  ASSERT_EQ(execution_only.size(), 12u);
  const core::CampaignOptions base;
  const std::uint64_t base_digest = digest_of(base);
  for (std::size_t i = 0; i < execution_only.size(); ++i) {
    core::CampaignOptions edited = base;
    execution_only[i](edited);
    EXPECT_EQ(digest_of(edited), base_digest) << "edit " << i;
  }
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
  template <class T>
  void visit(T& v) {
    if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string> &&
                  !std::is_same_v<T, can::CanFrame> &&
                  !std::is_same_v<T, gp::Expr>) {
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
  // and session faults and NM. Wall-clock fields are zeroed first (the
  // constant came from a build whose clocks read zero). Only a declared
  // kCheckpointPayloadSchema bump may refresh it.
  constexpr std::uint64_t kGolden = 0x69234da6341adb2aULL;
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
      payload.report.phases = {};
      for (auto& signal : payload.report.signals) {
        if (!signal.gp) continue;
        auto& t = signal.gp->timings;
        t.scoring_s = t.tuning_s = t.breeding_s = t.total_s = 0.0;
      }
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
