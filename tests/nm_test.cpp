#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "can/bus.hpp"
#include "nm/nm.hpp"
#include "util/fault.hpp"

namespace dpr::nm {
namespace {

// Pump the bus in small sim-time steps so NM services tick the way a
// campaign's delivery loop ticks them.
void pump(can::CanBus& bus, util::SimClock& clock, util::SimTime duration,
          util::SimTime step = 5 * util::kMillisecond) {
  const util::SimTime deadline = clock.now() + duration;
  while (clock.now() < deadline) {
    clock.advance(std::min<util::SimTime>(step, deadline - clock.now()));
    bus.deliver_pending();
  }
}

util::CounterRng stream(std::uint8_t address) {
  util::FaultConfig faults;
  return faults.stream_for(kNmStreamSalt + address);
}

struct Rig {
  util::SimClock clock;
  can::CanBus bus{clock};
  NmConfig config;
  std::unique_ptr<NmManager> manager;

  explicit Rig(std::size_t nodes, NmConfig cfg = {}) : config(cfg) {
    manager = std::make_unique<NmManager>(bus, config);
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto address = static_cast<std::uint8_t>(i + 1);
      manager->add_node(address, stream(address));
    }
  }
};

TEST(NmRing, FormsFullMembershipAndCirculatesToken) {
  Rig rig(4);
  pump(rig.bus, rig.clock, 2 * util::kSecond);

  const std::uint64_t everyone = 0b11110;  // addresses 1..4
  for (const auto& node : rig.manager->nodes()) {
    EXPECT_EQ(node->members(), everyone)
        << "node " << int(node->address()) << " has partial membership";
    EXPECT_FALSE(node->in_limp_home());
    // Every member held and passed the token at least once.
    EXPECT_GT(node->stats().ring_sent, 0u);
  }
  EXPECT_EQ(rig.manager->stats().limp_episodes, 0u);
}

TEST(NmSleep, QuietBusSleepsAndWakeupReenters) {
  NmConfig cfg;
  cfg.sleep_timeout = 300 * util::kMillisecond;
  cfg.sleep_countdown = 100 * util::kMillisecond;
  Rig rig(3, cfg);

  pump(rig.bus, rig.clock, 2 * util::kSecond);
  EXPECT_TRUE(rig.bus.asleep());
  EXPECT_EQ(rig.bus.sleeps(), 1u);
  for (const auto& node : rig.manager->nodes()) {
    EXPECT_TRUE(node->asleep());
  }

  // Normal frames die against the sleeping bus.
  rig.bus.send(can::CanFrame(0x7E0, {0x02, 0x10, 0x01}));
  EXPECT_EQ(rig.bus.frames_lost_to_sleep(), 1u);

  // A wakeup frame restarts the whole ring.
  send_wakeup(rig.bus, 0x3E);
  EXPECT_FALSE(rig.bus.asleep());
  EXPECT_EQ(rig.bus.wakeups(), 1u);
  pump(rig.bus, rig.clock, 250 * util::kMillisecond);
  const std::uint64_t everyone = 0b1110;  // addresses 1..3
  for (const auto& node : rig.manager->nodes()) {
    EXPECT_FALSE(node->asleep());
    EXPECT_EQ(node->members(), everyone);
  }
}

TEST(NmSleep, VetoHoldoutNodePinsTheBusAwake) {
  // One node joins the ring but never agrees to sleep (ISSUE 9): the
  // two-phase sleep agreement can never complete, so the exact quiet
  // window that put the 3-node ring above to sleep — with 6x margin —
  // leaves this bus awake forever.
  NmConfig cfg;
  cfg.sleep_timeout = 300 * util::kMillisecond;
  cfg.sleep_countdown = 100 * util::kMillisecond;
  util::SimClock clock;
  can::CanBus bus{clock};
  NmManager manager(bus, cfg);
  for (std::uint8_t address = 1; address <= 3; ++address) {
    manager.add_node(address, stream(address), nullptr,
                     /*allow_sleep=*/address != 2);
  }

  pump(bus, clock, 2 * util::kSecond);
  EXPECT_FALSE(bus.asleep());
  EXPECT_EQ(bus.sleeps(), 0u);
  // The holdout costs nothing but the naps: the ring itself stays whole.
  const std::uint64_t everyone = 0b1110;  // addresses 1..3
  for (const auto& node : manager.nodes()) {
    EXPECT_FALSE(node->asleep());
    EXPECT_EQ(node->members(), everyone);
    EXPECT_FALSE(node->in_limp_home());
  }
  EXPECT_EQ(manager.stats().limp_episodes, 0u);
}

TEST(NmSleep, ApplicationTrafficDefersSleep) {
  NmConfig cfg;
  cfg.sleep_timeout = 300 * util::kMillisecond;
  cfg.sleep_countdown = 100 * util::kMillisecond;
  Rig rig(3, cfg);

  // A frame every 200 ms keeps undercutting the 300 ms quiet-bus horizon.
  for (int i = 0; i < 15; ++i) {
    rig.bus.send(can::CanFrame(0x123, {0x00}));
    pump(rig.bus, rig.clock, 200 * util::kMillisecond);
  }
  EXPECT_EQ(rig.bus.sleeps(), 0u);
  EXPECT_FALSE(rig.bus.asleep());
}

TEST(NmSleep, WakeupFramesOnAwakeBusDeferSleep) {
  NmConfig cfg;
  cfg.sleep_timeout = 300 * util::kMillisecond;
  cfg.sleep_countdown = 100 * util::kMillisecond;
  Rig rig(3, cfg);

  // A tester outside the ring announces "bus needed" every 200 ms. The
  // wakeup must reset the quiet-bus timer even though the bus never slept.
  for (int i = 0; i < 15; ++i) {
    send_wakeup(rig.bus, 0x3E);
    pump(rig.bus, rig.clock, 200 * util::kMillisecond);
  }
  EXPECT_EQ(rig.bus.sleeps(), 0u);
}

TEST(NmLimpHome, VanishedTokenHolderTriggersLimpAndRepair) {
  util::SimClock clock;
  can::CanBus bus(clock);
  NmConfig cfg;
  NmManager manager(bus, cfg);
  bool node3_offline = false;
  manager.add_node(1, stream(1));
  manager.add_node(2, stream(2));
  manager.add_node(3, stream(3),
                   [&node3_offline](util::SimTime) { return node3_offline; });

  pump(bus, clock, 1 * util::kSecond);
  ASSERT_FALSE(manager.nodes()[0]->in_limp_home());

  // Node 3 reboots mid-ring: the survivors stop seeing ring frames for
  // longer than the ring timeout and drop to limp-home heartbeats.
  node3_offline = true;
  pump(bus, clock, 1 * util::kSecond);
  EXPECT_TRUE(manager.nodes()[0]->in_limp_home());
  EXPECT_TRUE(manager.nodes()[1]->in_limp_home());
  EXPECT_GT(manager.stats().limp_episodes, 0u);
  const std::uint64_t limp_sent = manager.nodes()[0]->stats().limp_sent +
                                  manager.nodes()[1]->stats().limp_sent;
  EXPECT_GT(limp_sent, 0u);

  // The node returns, re-announces itself, and the lowest survivor
  // re-originates the token: the ring repairs without any RNG involved.
  node3_offline = false;
  pump(bus, clock, 1 * util::kSecond);
  EXPECT_FALSE(manager.nodes()[0]->in_limp_home());
  EXPECT_FALSE(manager.nodes()[1]->in_limp_home());
  EXPECT_FALSE(manager.nodes()[2]->in_limp_home());
  EXPECT_GT(manager.stats().ring_repairs, 0u);
  for (const auto& node : manager.nodes()) {
    EXPECT_EQ(node->members(), 0b1110u);
  }
}

TEST(NmLifecycle, FramesQueuedBeforeSleepAreSwallowedAtDelivery) {
  util::SimClock clock;
  can::CanBus bus(clock);
  bus.enable_lifecycle(0x420, 0x40);

  // Queued while awake, but the bus powers down before delivery (the NM
  // countdown expiring inside the same delivery window): the frame must
  // die like any frame sent against a sleeping bus, or its receiver would
  // answer into the void and wedge its transport mid-transfer.
  bus.send(can::CanFrame(0x7E0, {0x01}));
  bus.sleep();
  std::size_t delivered = 0;
  bus.attach([&](const can::CanFrame&, util::SimTime) { ++delivered; });
  bus.deliver_pending();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(bus.frames_lost_to_sleep(), 1u);

  // The wakeup-range send wakes the bus at send() time and is delivered.
  bus.send(can::CanFrame(0x45E, {0x00, kOpWakeup}));
  bus.deliver_pending();
  EXPECT_FALSE(bus.asleep());
  EXPECT_EQ(delivered, 1u);
}

TEST(NmDeterminism, IdenticalRunsProduceIdenticalStats) {
  auto run = [](int salt_unused) {
    (void)salt_unused;
    NmConfig cfg;
    cfg.sleep_timeout = 400 * util::kMillisecond;
    cfg.sleep_countdown = 150 * util::kMillisecond;
    Rig rig(5, cfg);
    bool offline = false;
    rig.manager->add_node(6, stream(6),
                          [&offline](util::SimTime) { return offline; });
    // A busy stretch, a vanished node, a quiet stretch that sleeps the
    // bus, and a wakeup re-entry — the full lifecycle in one schedule.
    for (int i = 0; i < 5; ++i) {
      rig.bus.send(can::CanFrame(0x123, {std::uint8_t(i)}));
      pump(rig.bus, rig.clock, 100 * util::kMillisecond);
    }
    offline = true;
    pump(rig.bus, rig.clock, 600 * util::kMillisecond);
    offline = false;
    pump(rig.bus, rig.clock, 600 * util::kMillisecond);
    pump(rig.bus, rig.clock, 2 * util::kSecond);
    send_wakeup(rig.bus, 0x3E);
    pump(rig.bus, rig.clock, 500 * util::kMillisecond);

    std::vector<std::uint64_t> out;
    const NmStats total = rig.manager->stats();
    out.push_back(total.sleeps);
    out.push_back(total.wakeups);
    out.push_back(total.frames_lost_to_sleep);
    out.push_back(total.limp_episodes);
    out.push_back(total.ring_repairs);
    out.push_back(total.nm_frames_sent);
    for (const auto& node : rig.manager->nodes()) {
      out.push_back(node->members());
      out.push_back(node->stats().alive_sent);
      out.push_back(node->stats().ring_sent);
      out.push_back(node->stats().limp_sent);
      out.push_back(node->stats().acks_sent);
    }
    out.push_back(rig.clock.now());
    return out;
  };
  const auto a = run(0);
  const auto b = run(1);
  EXPECT_EQ(a, b);
  EXPECT_GT(a[0], 0u) << "scenario never slept the bus";
  EXPECT_GT(a[3], 0u) << "scenario never entered limp-home";
  EXPECT_GT(a[4], 0u) << "scenario never repaired the ring";
}

}  // namespace
}  // namespace dpr::nm
