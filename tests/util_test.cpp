#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "util/checkpoint.hpp"
#include "util/clock.hpp"
#include "util/counter_rng.hpp"
#include "util/crash.hpp"
#include "util/hex.hpp"
#include "util/philox.hpp"
#include "util/rng.hpp"
#include "util/simd_philox.hpp"
#include "util/stats.hpp"

namespace dpr::util {
namespace {

static_assert(std::uniform_random_bit_generator<CounterRng>);

/// Population standard deviation of a sample, for the moment checks.
double spread(const std::vector<double>& xs) {
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size()));
}

TEST(CounterRng, DeterministicForSameSeedAndStream) {
  CounterRng a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(CounterRng, SeedsAndStreamsDiverge) {
  CounterRng a(1, 0), b(2, 0), c(1, 1);
  int same_seed = 0, same_stream = 0;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    if (va == b()) ++same_seed;
    if (va == c()) ++same_stream;
  }
  EXPECT_LT(same_seed, 3);
  EXPECT_LT(same_stream, 3);
}

TEST(CounterRng, RandomAccessMatchesSequentialPerEvent) {
  // The defining property: event n's draws are a pure function of
  // (seed, stream, n), so visiting events in any order — or skipping
  // events entirely — reproduces the same per-event values.
  CounterRng sequential(99, 3);
  std::vector<std::uint64_t> first_draws(64);
  std::vector<double> uniforms(64);
  for (std::uint64_t e = 0; e < 64; ++e) {
    sequential.seek(e);
    first_draws[e] = sequential();
    uniforms[e] = sequential.uniform();
  }
  const CounterRng base(99, 3);
  // Shuffled subset, each event addressed directly via at().
  const std::uint64_t order[] = {63, 0, 17, 42, 5, 41, 63, 1, 30};
  for (const std::uint64_t e : order) {
    CounterRng view = base.at(e);
    EXPECT_EQ(view(), first_draws[e]) << "event " << e;
    EXPECT_EQ(view.uniform(), uniforms[e]) << "event " << e;
  }
}

TEST(CounterRng, SeekResetsDrawIndexAndNormalCache) {
  CounterRng rng(5, 0);
  rng.seek(10);
  const double n0 = rng.normal();  // caches the Box-Muller pair's second
  rng.seek(10);
  EXPECT_EQ(rng.normal(), n0);  // cache cleared, draws replay exactly
  EXPECT_EQ(rng.event(), 10u);
}

TEST(CounterRng, UniformInUnitInterval) {
  CounterRng rng(7, 0);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(CounterRng, UniformIntCoversRangeInclusive) {
  CounterRng rng(9, 0);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(CounterRng, UniformIntDegenerateAndExtremeRanges) {
  CounterRng rng(15, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
  (void)rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::max());
}

TEST(CounterRng, NormalMomentsRoughlyStandard) {
  CounterRng rng(11, 0);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.05);
  EXPECT_NEAR(spread(xs), 1.0, 0.05);
}

TEST(CounterRng, ChanceBoundariesAreDrawFree) {
  CounterRng rng(3, 0);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_EQ(rng.draw_index(), 0u);  // boundary probabilities draw nothing
}

// --- 4-wide Philox kernels (ISSUE 10) --------------------------------------

TEST(SimdPhilox, ScalarBatchMatchesCounterRngWordAt) {
  // The 4-wide body under a CounterRng-derived key must reproduce that
  // stream's word_at() (and hence at(event)'s first draws) exactly.
  const CounterRng stream(0xFEEDFACE, 5);
  const std::uint64_t c0[4] = {0, 1, 41, 0xFFFFFFFFFFFFFFFFull};
  const std::uint64_t c1[4] = {0, 7, 2, 0xFFFFFFFFFFFFFFFFull};
  std::uint64_t out[4];
  philox2x64x4_scalar(stream.key(), c0, c1, out);
  for (int lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(out[lane], stream.word_at(c0[lane], c1[lane])) << lane;
  }
  // First draw of an event view is word_at(event, 0) is lane output.
  CounterRng view = stream.at(41);
  EXPECT_EQ(view(), stream.word_at(41, 0));
}

TEST(SimdPhilox, DispatchedKernelMatchesScalarReferenceFuzz) {
  // >= 1e6 (key, counter)-pair fuzz of the kernel philox4() dispatches
  // to against the shared one-lane philox2x64 reference; pins the 4-lane
  // blocking logic.
  const Philox4Fn fn = philox4();
  ASSERT_EQ(fn, &philox2x64x4_scalar);
  Rng fuzz(20260808);
  std::uint64_t c0[4], c1[4], out[4];
  constexpr int kBlocks = 250000;  // 4 lanes each: 1e6 pairs
  for (int block = 0; block < kBlocks; ++block) {
    const std::uint64_t key = fuzz();
    for (int lane = 0; lane < 4; ++lane) {
      // Mix raw 64-bit values with small/boundary counters so carry
      // propagation in the vector mulhi path gets both regimes.
      c0[lane] = (block % 3 == 0) ? fuzz() : static_cast<std::uint64_t>(
                                                 fuzz() & 0xFF);
      c1[lane] = (block % 2 == 0) ? fuzz() : 0;
    }
    fn(key, c0, c1, out);
    for (int lane = 0; lane < 4; ++lane) {
      ASSERT_EQ(out[lane], philox2x64(key, c0[lane], c1[lane]))
          << "block " << block << " lane " << lane;
    }
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntDegenerateAndExtremeRanges) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
  // Full 64-bit span exercises the span == 0 wraparound branch.
  (void)rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::max());
}

TEST(Rng, UniformIntSmallRangeIsUnbiased) {
  // Rejection sampling: each residue of a non-power-of-two span must come
  // up at the expected rate. The old `x % span` draw is biased by only
  // ~2^-64 per residue — far too small to catch statistically — so this
  // guards the property test-style: a deliberately deterministic seed and
  // a tolerance a uniform generator meets with overwhelming probability.
  Rng rng(17);
  constexpr int kDraws = 60000;
  constexpr std::int64_t kSpan = 3;
  int counts[kSpan] = {0, 0, 0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_int(0, kSpan - 1)];
  for (int bucket = 0; bucket < kSpan; ++bucket) {
    EXPECT_NEAR(counts[bucket], kDraws / kSpan, kDraws / 100)
        << "bucket " << bucket;
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.05);
  EXPECT_NEAR(spread(xs), 1.0, 0.05);
}

TEST(Rng, ChanceBoundaries) {
  Rng rng(13);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, FirstSuccessIsChanceCallsUpToTheFirstSuccess) {
  // Result and generator state equal chance(p) called until it succeeds
  // or n trials have failed, on a copy of the same generator.
  Rng rng(17);
  for (const double p : {0.0, 1e-4, 0.3, 1.0,
                         std::numeric_limits<double>::quiet_NaN()}) {
    for (const std::size_t n : {0, 1, 64}) {
      for (int trial = 0; trial < 200; ++trial) {
        Rng copy = rng;
        std::size_t expected = 0;
        while (expected < n && !copy.chance(p)) ++expected;
        ASSERT_EQ(rng.first_success(p, n), expected)
            << "p " << p << " n " << n << " trial " << trial;
        const Rng::State a = rng.state(), b = copy.state();
        ASSERT_TRUE(std::equal(std::begin(a.s), std::end(a.s), b.s))
            << "p " << p << " n " << n << " trial " << trial;
      }
    }
  }
  // p at, then just above, a drawn uniform(): success needs uniform() < p.
  Rng fixed(5);
  Rng copy = fixed;
  const double p = static_cast<double>(copy() >> 11) * 0x1p-53;
  EXPECT_EQ(Rng(fixed).first_success(p, 1), 1u);  // uniform() == p fails
  EXPECT_EQ(Rng(fixed).first_success(std::nextafter(p, 1.0), 1), 0u);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(21);
  Rng child = parent.fork();
  // Child continues differently from parent.
  EXPECT_NE(parent(), child());
}

TEST(SimClock, AdvanceAccumulates) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(5 * kMillisecond);
  clock.advance(20);
  EXPECT_EQ(clock.now(), 5020);
}

TEST(SimClock, AdvanceToNeverMovesBackwards) {
  SimClock clock;
  clock.advance_to(1000);
  clock.advance_to(500);
  EXPECT_EQ(clock.now(), 1000);
}

TEST(DeviceClock, OffsetApplied) {
  DeviceClock device(250, 0.0);
  EXPECT_EQ(device.local_time(1000), 1250);
}

TEST(DeviceClock, DriftScalesTime) {
  DeviceClock device(0, 100.0);  // 100 ppm fast
  const SimTime one_hour = 3600 * kSecond;
  const SimTime local = device.local_time(one_hour);
  EXPECT_NEAR(static_cast<double>(local - one_hour), 0.36 * kSecond,
              1000.0);
}

TEST(Hex, RoundTrip) {
  const Bytes data{0x2F, 0x09, 0x50, 0x03, 0x05, 0x01, 0x00, 0x00};
  EXPECT_EQ(to_hex(data), "2F 09 50 03 05 01 00 00");
  EXPECT_EQ(from_hex("2F 09 50 03 05 01 00 00"), data);
}

TEST(Hex, ParsesLowercaseAndSeparators) {
  EXPECT_EQ(from_hex("de,ad be\tef"), (Bytes{0xDE, 0xAD, 0xBE, 0xEF}));
}

TEST(Hex, RejectsMalformedInput) {
  EXPECT_THROW(from_hex("2"), std::invalid_argument);
  EXPECT_THROW(from_hex("GG"), std::invalid_argument);
}

TEST(Hex, U16Helpers) {
  Bytes out;
  append_u16(out, 0xF40D);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(read_u16(out, 0), 0xF40D);
}

TEST(Stats, MeanMedianOfKnownSeries) {
  std::vector<double> xs{1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(mean(xs), 22.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Stats, MedianEvenCount) {
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Stats, MadRobustToOutlier) {
  std::vector<double> xs{10, 11, 12, 11, 10, 1000};
  EXPECT_LE(mad(xs, median(xs)), 1.0);
}

// --- Checkpoint codec and digests -----------------------------------------

/// One value of each BinaryWriter kind: how it is written, its exact
/// bytes, and a check that BinaryReader reads the value back.
struct CodecCase {
  const char* name;
  std::function<void(BinaryWriter&)> write;
  Bytes bytes;
  std::function<void(BinaryReader&)> read_back;
};

std::vector<CodecCase> codec_cases() {
  return {
      {"u8", [](BinaryWriter& w) { w.u8(0xAB); }, {0xAB},
       [](BinaryReader& r) { EXPECT_EQ(r.u8(), 0xAB); }},
      {"u16", [](BinaryWriter& w) { w.u16(0x1234); }, {0x34, 0x12},
       [](BinaryReader& r) { EXPECT_EQ(r.u16(), 0x1234); }},
      {"u32", [](BinaryWriter& w) { w.u32(0x12345678); },
       {0x78, 0x56, 0x34, 0x12},
       [](BinaryReader& r) { EXPECT_EQ(r.u32(), 0x12345678u); }},
      {"u64", [](BinaryWriter& w) { w.u64(0x0123456789ABCDEFULL); },
       {0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01},
       [](BinaryReader& r) { EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL); }},
      {"i64", [](BinaryWriter& w) { w.i64(-1); },
       {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
       [](BinaryReader& r) { EXPECT_EQ(r.i64(), -1); }},
      {"f64", [](BinaryWriter& w) { w.f64(1.5); },
       {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F},
       [](BinaryReader& r) { EXPECT_EQ(r.f64(), 1.5); }},
      {"str", [](BinaryWriter& w) { w.str("hi"); },
       {0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 'h', 'i'},
       [](BinaryReader& r) { EXPECT_EQ(r.str(), "hi"); }},
      {"bytes", [](BinaryWriter& w) { w.bytes(Bytes{0xDE, 0xAD}); },
       {0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xDE, 0xAD},
       [](BinaryReader& r) { EXPECT_EQ(r.bytes(), (Bytes{0xDE, 0xAD})); }},
  };
}

TEST(BinaryCodec, WriterEmitsExactLittleEndianBytes) {
  for (const auto& c : codec_cases()) {
    BinaryWriter w;
    c.write(w);
    EXPECT_EQ(w.data(), c.bytes) << c.name;
  }
}

TEST(BinaryCodec, ReaderReadsBackAndThrowsOneByteShort) {
  for (const auto& c : codec_cases()) {
    BinaryReader r(c.bytes);
    c.read_back(r);
    EXPECT_TRUE(r.done()) << c.name;
    BinaryReader short_by_one(
        std::span<const std::uint8_t>(c.bytes).first(c.bytes.size() - 1));
    EXPECT_THROW(c.read_back(short_by_one), std::runtime_error) << c.name;
  }
}

Bytes ascii(std::string_view text) { return Bytes(text.begin(), text.end()); }

/// The bytes 0, 1, ..., n - 1.
Bytes counting(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i);
  return out;
}

TEST(Digests, Xxh64MatchesPublishedKnownAnswers) {
  // Values from the reference implementation (libxxhash 0.8.1), seed 0.
  // The lengths cover the short path, the 4- and 1-byte tails, one byte
  // short of a stripe, one full stripe and several stripes plus tails.
  const std::vector<std::pair<Bytes, std::uint64_t>> known = {
      {ascii(""), 0xEF46DB3751D8E999ULL},
      {ascii("a"), 0xD24EC4F1A98C6E5BULL},
      {ascii("abc"), 0x44BC2CF5AD770999ULL},
      {counting(31), 0xC346D2B59B4D8EE1ULL},
      {counting(32), 0xCBF59C5116FF32B4ULL},
      {counting(256), 0x1FACBE8406CD904BULL},
      {ascii("The quick brown fox jumps over the lazy dog"),
       0x0B242D361FDA71BCULL},
  };
  for (const auto& [input, expected] : known) {
    EXPECT_EQ(xxh64(input), expected) << input.size() << " bytes";
  }
}

TEST(Digests, Fnv1a64KeepsItsStandardValues) {
  // The identity digests (spec, options, golden signatures) hash with
  // FNV-1a, so its values are fixed.
  EXPECT_EQ(fnv1a64(ascii("")), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a64(ascii("a")), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv1a64(ascii("foobar")), 0x85944171F73967E8ULL);
}

// --- Durable atomic writes (ISSUE 9) ---------------------------------------

TEST(AtomicWrite, RoundTripsAndLeavesNoTempBehind) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dpr_aw_" + std::to_string(static_cast<unsigned>(::getpid()))))
          .string();
  const Bytes data{0xDE, 0xAD, 0xBE, 0xEF};
  const auto io = write_file_atomic(path, data);
  ASSERT_TRUE(io);
  EXPECT_EQ(io.message(), "");
  const auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
  // The pid-unique temp file must never survive a successful rename.
  EXPECT_FALSE(std::filesystem::exists(
      path + ".tmp." + std::to_string(static_cast<unsigned>(::getpid()))));
  std::filesystem::remove(path);
}

TEST(AtomicWrite, FailureNamesTheStageAndErrno) {
  const Bytes data{0x01};
  const auto io =
      write_file_atomic("/nonexistent_dpr_dir/leaf/file.bin", data);
  EXPECT_FALSE(io);
  EXPECT_EQ(io.error, ENOENT);
  EXPECT_STREQ(io.stage, "open_tmp");
  EXPECT_NE(io.message().find("open_tmp"), std::string::npos);
}

TEST(IoResult, ConvertsLikeTheOldBoolApi) {
  EXPECT_TRUE(IoResult::success());
  const auto failed = IoResult::failure("rename", EACCES);
  EXPECT_FALSE(failed);
  EXPECT_EQ(failed.error, EACCES);
  EXPECT_NE(failed.message().find("rename"), std::string::npos);
}

// --- Crash-point registry (ISSUE 9) ----------------------------------------

TEST(CrashPoints, RegistryRejectsUnknownSitesAndZeroCounts) {
  EXPECT_FALSE(arm_crash_point("no.such.site", 1));
  EXPECT_FALSE(arm_crash_point("ckpt.pre_save", 0));
  EXPECT_FALSE(arm_crash_point_spec("ckpt.pre_save:"));
  EXPECT_FALSE(arm_crash_point_spec("ckpt.pre_save:12x"));
  EXPECT_FALSE(arm_crash_point_spec(":3"));
  EXPECT_TRUE(arm_crash_point_spec("ckpt.pre_save:3"));
  disarm_crash_points();
}

TEST(CrashPoints, SitesAreListedAndDisarmedByDefault) {
  const auto sites = crash_point_sites();
  EXPECT_EQ(sites.size(), 9u);
  for (const char* site : sites) {
    EXPECT_TRUE(arm_crash_point(site, 100)) << site;
  }
  disarm_crash_points();
  EXPECT_FALSE(detail::crash_points_active.load());
}

TEST(CrashPoints, CountingTalliesHitsWithoutCrashing) {
  set_crash_point_counting(true);
  reset_crash_point_hits();
  DPR_CRASH_POINT("ckpt.pre_save");
  DPR_CRASH_POINT("ckpt.pre_save");
  DPR_CRASH_POINT("ckpt.pre_rename");
  set_crash_point_counting(false);
  EXPECT_EQ(crash_point_hits("ckpt.pre_save"), 2u);
  EXPECT_EQ(crash_point_hits("ckpt.pre_rename"), 1u);
  EXPECT_EQ(crash_point_hits("ckpt.post_rename"), 0u);
  EXPECT_EQ(crash_point_hits("no.such.site"), 0u);
  reset_crash_point_hits();
  EXPECT_EQ(crash_point_hits("ckpt.pre_save"), 0u);
  // With counting off and nothing armed the fast path is fully idle.
  EXPECT_FALSE(detail::crash_points_active.load());
  DPR_CRASH_POINT("ckpt.pre_save");
  EXPECT_EQ(crash_point_hits("ckpt.pre_save"), 0u);
}

TEST(CrashPointDeathTest, ArmedSiteExitsOnTheNthHit) {
  EXPECT_EXIT(
      {
        arm_crash_point("ckpt.pre_rename", 2);
        DPR_CRASH_POINT("ckpt.pre_rename");  // hit 1: survives
        DPR_CRASH_POINT("ckpt.pre_rename");  // hit 2: _exit(86)
      },
      ::testing::ExitedWithCode(kCrashExitCode), "");
  // An armed site other than the one being hit never fires.
  arm_crash_point("ckpt.pre_rename", 1);
  DPR_CRASH_POINT("ckpt.post_rename");
  disarm_crash_points();
}

}  // namespace
}  // namespace dpr::util
