#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "can/bus.hpp"
#include "can/sniffer.hpp"
#include "can/trace.hpp"
#include "util/checkpoint.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace dpr::can {
namespace {

TEST(CanFrame, StoresIdAndData) {
  CanFrame frame(0x7E0, {0x02, 0x01, 0x0C});
  EXPECT_EQ(frame.id().value, 0x7E0u);
  EXPECT_FALSE(frame.id().extended);
  EXPECT_EQ(frame.dlc(), 3);
  EXPECT_EQ(frame.byte(1), 0x01);
}

TEST(CanFrame, RejectsOversizedPayload) {
  const util::Bytes nine(9, 0);
  EXPECT_THROW(CanFrame(CanId{0x100, false}, nine), std::invalid_argument);
}

TEST(CanFrame, RejectsOutOfRangeStandardId) {
  const util::Bytes data{0x00};
  EXPECT_THROW(CanFrame(CanId{0x800, false}, data), std::invalid_argument);
}

TEST(CanFrame, AcceptsExtendedId) {
  const util::Bytes data{0x00};
  const CanFrame frame(CanId{0x18DAF110, true}, data);
  EXPECT_TRUE(frame.id().extended);
}

TEST(CanFrame, PadToEight) {
  CanFrame frame(0x123, {0xAA});
  frame.pad_to_8(0x55);
  EXPECT_EQ(frame.dlc(), 8);
  EXPECT_EQ(frame.byte(0), 0xAA);
  EXPECT_EQ(frame.byte(7), 0x55);
}

TEST(CanBus, DeliversToAllListeners) {
  util::SimClock clock;
  CanBus bus(clock);
  int count_a = 0, count_b = 0;
  bus.attach([&](const CanFrame&, util::SimTime) { ++count_a; });
  bus.attach([&](const CanFrame&, util::SimTime) { ++count_b; });
  bus.send(CanFrame(0x100, {0x01}));
  bus.deliver_pending();
  EXPECT_EQ(count_a, 1);
  EXPECT_EQ(count_b, 1);
}

TEST(CanBus, ArbitrationLowestIdWins) {
  util::SimClock clock;
  CanBus bus(clock);
  std::vector<std::uint32_t> order;
  bus.attach([&](const CanFrame& f, util::SimTime) {
    order.push_back(f.id().value);
  });
  bus.send(CanFrame(0x700, {0x01}));
  bus.send(CanFrame(0x100, {0x02}));
  bus.send(CanFrame(0x400, {0x03}));
  bus.deliver_pending();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0x100, 0x400, 0x700}));
}

TEST(CanBus, FifoAmongEqualIds) {
  util::SimClock clock;
  CanBus bus(clock);
  std::vector<std::uint8_t> order;
  bus.attach([&](const CanFrame& f, util::SimTime) {
    order.push_back(f.byte(0));
  });
  bus.send(CanFrame(0x100, {0x01}));
  bus.send(CanFrame(0x100, {0x02}));
  bus.deliver_pending();
  EXPECT_EQ(order, (std::vector<std::uint8_t>{0x01, 0x02}));
}

TEST(CanBus, ClockAdvancesByWireTime) {
  util::SimClock clock;
  CanBus bus(clock, 500'000);
  bus.send(CanFrame(0x100, {0, 0, 0, 0, 0, 0, 0, 0}));
  bus.deliver_pending();
  // 8-byte frame: (47 + 64) * 1.19 bits at 500 kbit/s ~ 264 us.
  EXPECT_NEAR(static_cast<double>(clock.now()), 264.0, 6.0);
}

TEST(CanBus, ListenerMayRespondDuringDelivery) {
  util::SimClock clock;
  CanBus bus(clock);
  std::vector<std::uint32_t> seen;
  bus.attach([&](const CanFrame& f, util::SimTime) {
    seen.push_back(f.id().value);
    if (f.id().value == 0x7E0) bus.send(CanFrame(0x7E8, {0x41}));
  });
  bus.send(CanFrame(0x7E0, {0x01}));
  bus.deliver_pending();
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0x7E0, 0x7E8}));
}

// --- Id-filtered dispatch -------------------------------------------------

TEST(IdFilter, MatchSemantics) {
  EXPECT_TRUE(IdFilter::all().match_all());
  EXPECT_TRUE(IdFilter::all().matches(0x0));
  EXPECT_TRUE(IdFilter::all().matches(0x1FFFFFFF));
  const auto exact = IdFilter::exact(0x7E8);
  EXPECT_FALSE(exact.match_all());
  EXPECT_TRUE(exact.matches(0x7E8));
  EXPECT_FALSE(exact.matches(0x7E7));
  EXPECT_FALSE(exact.matches(0x7E9));
  const auto range = IdFilter::range(0x700, 0x10);
  EXPECT_TRUE(range.matches(0x700));
  EXPECT_TRUE(range.matches(0x70F));
  EXPECT_FALSE(range.matches(0x710));
  EXPECT_FALSE(range.matches(0x6FF));  // id - base wraps, stays >= span
}

TEST(CanBus, FilteredListenersSeeOnlyMatchingIds) {
  util::SimClock clock;
  CanBus bus(clock);
  int exact_hits = 0, range_hits = 0, all_hits = 0;
  bus.attach([&](const CanFrame&, util::SimTime) { ++exact_hits; },
             IdFilter::exact(0x7E8));
  bus.attach([&](const CanFrame&, util::SimTime) { ++range_hits; },
             IdFilter::range(0x700, 0x10));
  bus.attach([&](const CanFrame&, util::SimTime) { ++all_hits; });
  bus.send(CanFrame(0x7E8, {0x01}));
  bus.send(CanFrame(0x705, {0x02}));
  bus.send(CanFrame(0x100, {0x03}));
  bus.deliver_pending();
  EXPECT_EQ(exact_hits, 1);
  EXPECT_EQ(range_hits, 1);
  EXPECT_EQ(all_hits, 3);
}

TEST(CanBus, ExtendedIdsReachWideFiltersAndMatchAll) {
  // Filters whose range reaches past the 11-bit bucket table live on the
  // wide_ scan path; extended-id frames must hit them and match-all
  // listeners, and must never leak into narrow standard-id filters.
  util::SimClock clock;
  CanBus bus(clock);
  int wide_hits = 0, narrow_hits = 0, all_hits = 0, other_wide = 0;
  bus.attach([&](const CanFrame&, util::SimTime) { ++wide_hits; },
             IdFilter::exact(CanId{0x18DAF110, true}));
  bus.attach([&](const CanFrame&, util::SimTime) { ++narrow_hits; },
             IdFilter::exact(0x7E0));
  bus.attach([&](const CanFrame&, util::SimTime) { ++all_hits; });
  bus.attach([&](const CanFrame&, util::SimTime) { ++other_wide; },
             IdFilter::range(0x18DB0000, 0x100));
  const util::Bytes ext{0x01};
  bus.send(CanFrame(CanId{0x18DAF110, true}, ext));
  bus.deliver_pending();
  EXPECT_EQ(wide_hits, 1);
  EXPECT_EQ(narrow_hits, 0);
  EXPECT_EQ(all_hits, 1);
  EXPECT_EQ(other_wide, 0);  // wide path still honours the filter
}

TEST(CanBus, StraddlingFilterMatchesBothSidesOfTheBucketBoundary) {
  util::SimClock clock;
  CanBus bus(clock);
  int hits = 0;
  bus.attach([&](const CanFrame&, util::SimTime) { ++hits; },
             IdFilter::range(0x7FE, 0x10));  // crosses 0x800
  const util::Bytes one{0x01}, two{0x02}, three{0x03};
  bus.send(CanFrame(0x7FF, {0x01}));
  bus.send(CanFrame(CanId{0x805, true}, two));
  bus.send(CanFrame(CanId{0x80E, true}, three));  // past the range
  bus.deliver_pending();
  EXPECT_EQ(hits, 2);
}

TEST(CanBus, FilteredAndMatchAllListenersFireInAttachOrder) {
  // Delivery order among the listeners a frame reaches is attach order,
  // regardless of which index structure (bucket, wide, match-all) each
  // listener lives in — exactly like the pre-filter full fan-out.
  util::SimClock clock;
  CanBus bus(clock);
  std::vector<int> order;
  bus.attach([&](const CanFrame&, util::SimTime) { order.push_back(0); },
             IdFilter::exact(0x123));
  bus.attach([&](const CanFrame&, util::SimTime) { order.push_back(1); });
  bus.attach([&](const CanFrame&, util::SimTime) { order.push_back(2); },
             IdFilter::range(0x100, 0x100));
  bus.attach([&](const CanFrame&, util::SimTime) { order.push_back(3); });
  bus.attach([&](const CanFrame&, util::SimTime) { order.push_back(4); },
             IdFilter::exact(0x123));
  bus.send(CanFrame(0x123, {0x01}));
  bus.deliver_pending();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// --- Duplicate-budget carry-over (satellite 1) ----------------------------

TEST(CanBus, DuplicateSecondCopyNeverOvershootsTheBudget) {
  // Regression: a duplicated frame used to deliver both copies even when
  // the deliver_some budget had room for only one, so callers asking for
  // "at most 1" got 2. The second copy now carries over to the next call.
  util::FaultPlan plan;
  plan.duplicate_rate = 1.0;
  util::SimClock clock;
  CanBus bus(clock);
  std::vector<std::pair<util::SimTime, CanFrame>> seen;
  bus.attach([&](const CanFrame& f, util::SimTime t) {
    seen.emplace_back(t, f);
  });
  bus.set_faults(plan, util::CounterRng(3, 0));
  bus.send(CanFrame(0x100, {0xAB}));
  EXPECT_EQ(bus.deliver_some(1), 1u);
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_FALSE(bus.idle());  // the carried copy still owes delivery
  EXPECT_EQ(bus.deliver_some(1), 1u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(bus.idle());
  EXPECT_EQ(seen[0].second, seen[1].second);
  EXPECT_LT(seen[0].first, seen[1].first);
}

TEST(CanBus, DuplicateCarryOverKeepsAggregateSequenceIdentical) {
  // Draining one frame at a time must produce the same wire sequence
  // (frames and timestamps) as a single deliver_pending drain.
  util::FaultPlan plan;
  plan.duplicate_rate = 1.0;
  const auto run = [&](bool one_at_a_time) {
    util::SimClock clock;
    CanBus bus(clock);
    std::vector<std::pair<util::SimTime, CanFrame>> seen;
    bus.attach([&](const CanFrame& f, util::SimTime t) {
      seen.emplace_back(t, f);
    });
    bus.set_faults(plan, util::CounterRng(9, 0));
    for (std::uint32_t i = 0; i < 5; ++i) {
      bus.send(CanFrame(0x100 + i, {static_cast<std::uint8_t>(i)}));
    }
    if (one_at_a_time) {
      while (!bus.idle()) bus.deliver_some(1);
    } else {
      bus.deliver_pending();
    }
    return seen;
  };
  const auto drip = run(true);
  const auto bulk = run(false);
  ASSERT_EQ(drip.size(), bulk.size());
  ASSERT_EQ(drip.size(), 10u);  // every frame delivered twice
  for (std::size_t i = 0; i < drip.size(); ++i) {
    EXPECT_EQ(drip[i].first, bulk[i].first) << "frame " << i;
    EXPECT_EQ(drip[i].second, bulk[i].second) << "frame " << i;
  }
}

// --- Arbitration against frozen wire logs ---------------------------------

struct BusRunResult {
  std::uint64_t wire_digest = 0xCBF29CE484222325ULL;  ///< FNV-1a, see below
  util::SimTime final_time = 0;
  std::size_t frames_delivered = 0;
  std::uint64_t lost_to_sleep = 0;
};

// One randomized bus session, fully determined by `seed`: mixed standard /
// extended ids with deliberate equal-id runs, partial deliver_some windows,
// a mid-run sleep that purges queued frames, a wakeup frame, and a fault
// plan that drops / corrupts / duplicates / jitters. The wire log (every
// delivered frame's timestamp, id, extended flag and payload) is folded
// into one digest.
BusRunResult run_session(std::uint64_t seed) {
  util::SimClock clock;
  CanBus bus(clock);
  BusRunResult result;
  bus.attach([&](const CanFrame& f, util::SimTime t) {
    std::uint64_t& h = result.wire_digest;
    h = util::fnv1a64_u64(static_cast<std::uint64_t>(t), h);
    h = util::fnv1a64_u64(f.id().value, h);
    h = util::fnv1a64_u64(f.id().extended ? 1 : 0, h);
    h = util::fnv1a64(f.data(), h);
  });
  util::FaultPlan plan;
  plan.drop_rate = 0.1;
  plan.corrupt_rate = 0.1;
  plan.duplicate_rate = 0.1;
  plan.jitter_rate = 0.1;
  bus.set_faults(plan, util::CounterRng(seed, 1));
  bus.enable_lifecycle(0x100, 0x10);

  util::Rng stimulus(seed);
  const std::uint32_t id_pool[] = {0x100, 0x123, 0x123, 0x123, 0x2A0,
                                   0x7E0, 0x7E8, 0x7FF, 0x18DAF110};
  for (int step = 0; step < 40; ++step) {
    const auto n_sends = static_cast<std::size_t>(stimulus.uniform_int(0, 6));
    for (std::size_t s = 0; s < n_sends; ++s) {
      const std::uint32_t id = id_pool[stimulus.uniform_int(0, 8)];
      util::Bytes data(static_cast<std::size_t>(stimulus.uniform_int(1, 8)));
      for (auto& b : data) {
        b = static_cast<std::uint8_t>(stimulus.uniform_int(0, 255));
      }
      bus.send(CanFrame(can::CanId{id, id >= 0x800}, data));
    }
    const int action = static_cast<int>(stimulus.uniform_int(0, 9));
    if (action < 6) {
      bus.deliver_some(static_cast<std::size_t>(stimulus.uniform_int(1, 8)));
    } else if (action < 8) {
      bus.deliver_pending();
    } else if (action == 8) {
      // Sleep with frames possibly still queued: the next window purges
      // them. A wakeup-range frame then restores service.
      bus.sleep();
      bus.deliver_some(4);
      bus.send(CanFrame(0x105, {0x5A}));
    }
  }
  bus.deliver_pending();
  result.final_time = clock.now();
  result.frames_delivered = bus.frames_delivered();
  result.lost_to_sleep = bus.frames_lost_to_sleep();
  return result;
}

TEST(CanBus, HeapArbitrationMatchesLegacyScanByteForByte) {
  // Frozen from the original O(n) min_element arbitration scan (full
  // fan-out, per-frame fault draws), which produced these exact sessions
  // before it was retired. A mismatch prints the fresh values; only a
  // declared behaviour change may update a row.
  struct Golden {
    std::uint64_t seed;
    std::uint64_t wire_digest;
    util::SimTime final_time;
    std::size_t frames_delivered;
    std::uint64_t lost_to_sleep;
  };
  static constexpr Golden kGolden[] = {
      {1, 0x873d0edb8772092bULL, 40478, 103, 9},
      {2, 0xe1cc7cb4c960227bULL, 78469, 109, 22},
      {3, 0xaa140e344952b1aeULL, 64491, 112, 9},
      {4, 0x79ef7e2a3ba8390aULL, 33402, 106, 3},
      {5, 0xecbf483544c1e24dULL, 49470, 116, 17},
      {6, 0xf0d607febdb7eaa0ULL, 56945, 118, 25},
      {7, 0xd4a2dda745c7756cULL, 50512, 116, 15},
      {8, 0xeecf803098c2337aULL, 36995, 99, 24},
  };
  for (const auto& golden : kGolden) {
    const auto run = run_session(golden.seed);
    EXPECT_EQ(run.wire_digest, golden.wire_digest)
        << "seed " << golden.seed << ": fresh digest 0x" << std::hex
        << run.wire_digest;
    EXPECT_EQ(run.final_time, golden.final_time) << "seed " << golden.seed;
    EXPECT_EQ(run.frames_delivered, golden.frames_delivered)
        << "seed " << golden.seed;
    EXPECT_EQ(run.lost_to_sleep, golden.lost_to_sleep)
        << "seed " << golden.seed;
  }
}

TEST(Sniffer, RecordsWithDeviceTimestamps) {
  util::SimClock clock;
  CanBus bus(clock);
  Sniffer sniffer(bus, util::DeviceClock(1000, 0.0));
  bus.send(CanFrame(0x100, {0x01}));
  bus.deliver_pending();
  ASSERT_EQ(sniffer.size(), 1u);
  EXPECT_EQ(sniffer.capture()[0].timestamp, clock.now() + 1000);
}

TEST(Sniffer, PausedSnifferDropsFrames) {
  util::SimClock clock;
  CanBus bus(clock);
  Sniffer sniffer(bus);
  sniffer.set_recording(false);
  bus.send(CanFrame(0x100, {0x01}));
  bus.deliver_pending();
  EXPECT_EQ(sniffer.size(), 0u);
}

TEST(Trace, RoundTripsThroughText) {
  std::vector<TimestampedFrame> capture{
      {12345, CanFrame(0x7E0, {0x02, 0x01, 0x0C})},
      {67890, CanFrame(0x7E8, {0x04, 0x41, 0x0C, 0x1A, 0xF8})},
  };
  const std::string text = trace_to_string(capture);
  const auto parsed = trace_from_string(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].timestamp, 12345);
  EXPECT_EQ(parsed[0].frame, capture[0].frame);
  EXPECT_EQ(parsed[1].frame, capture[1].frame);
}

TEST(Trace, SkipsCommentsAndRejectsGarbage) {
  const auto parsed = trace_from_string("# comment\n100 7E0 1 2F\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].frame.byte(0), 0x2F);
  std::istringstream bad("100 7E0 9 00\n");
  EXPECT_THROW(read_trace(bad), std::runtime_error);
}

}  // namespace
}  // namespace dpr::can
