#include <gtest/gtest.h>

#include "can/bus.hpp"
#include "isotp/endpoint.hpp"
#include "isotp/isotp.hpp"
#include "util/rng.hpp"

namespace dpr::isotp {
namespace {

can::CanId id(std::uint32_t v) { return can::CanId{v, false}; }

util::Bytes payload_of(std::size_t n) {
  util::Bytes p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(i);
  return p;
}

TEST(Classify, AllFrameTypes) {
  EXPECT_EQ(classify(can::CanFrame(0x100, {0x02, 0x01, 0x0C})),
            FrameType::kSingle);
  EXPECT_EQ(classify(can::CanFrame(0x100, {0x10, 0x14, 1, 2, 3, 4, 5, 6})),
            FrameType::kFirst);
  EXPECT_EQ(classify(can::CanFrame(0x100, {0x21, 1, 2, 3, 4, 5, 6, 7})),
            FrameType::kConsecutive);
  EXPECT_EQ(classify(can::CanFrame(0x100, {0x30, 0x00, 0x00})),
            FrameType::kFlowControl);
  EXPECT_EQ(classify(can::CanFrame(0x100, {0x40})), std::nullopt);
  EXPECT_EQ(classify(can::CanFrame(0x100, {})), std::nullopt);
}

TEST(Encode, SingleFrameLayout) {
  const util::Bytes payload{0x22, 0xF4, 0x0D};
  const auto frame = encode_single(id(0x7E0), payload);
  EXPECT_EQ(frame.dlc(), 8);  // padded
  EXPECT_EQ(frame.byte(0), 0x03);
  EXPECT_EQ(frame.byte(1), 0x22);
  EXPECT_EQ(frame.byte(3), 0x0D);
}

TEST(Encode, SingleRejectsOver7) {
  EXPECT_THROW(encode_single(id(0x7E0), payload_of(8)),
               std::invalid_argument);
}

TEST(Encode, FirstFrameCarriesLengthAndSixBytes) {
  const auto payload = payload_of(20);
  const auto frame = encode_first(id(0x7E0), payload);
  EXPECT_EQ(frame.byte(0), 0x10);
  EXPECT_EQ(frame.byte(1), 20);
  EXPECT_EQ(frame.byte(2), 0x00);
  EXPECT_EQ(frame.byte(7), 0x05);
}

TEST(Encode, FirstFrameLengthHighBits) {
  const auto payload = payload_of(0x234);
  const auto frame = encode_first(id(0x7E0), payload);
  EXPECT_EQ(frame.byte(0), 0x12);
  EXPECT_EQ(frame.byte(1), 0x34);
}

TEST(SegmentMessage, ShortPayloadYieldsSingleFrame) {
  const auto frames = segment_message(id(0x7E0), payload_of(7));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(classify(frames[0]), FrameType::kSingle);
}

TEST(SegmentMessage, LongPayloadYieldsFirstPlusConsecutive) {
  const auto frames = segment_message(id(0x7E0), payload_of(20));
  ASSERT_EQ(frames.size(), 3u);  // FF(6) + CF(7) + CF(7)
  EXPECT_EQ(classify(frames[0]), FrameType::kFirst);
  EXPECT_EQ(classify(frames[1]), FrameType::kConsecutive);
  EXPECT_EQ(frames[1].byte(0), 0x21);
  EXPECT_EQ(frames[2].byte(0), 0x22);
}

TEST(SegmentMessage, SequenceNumbersWrapAt16) {
  const auto frames = segment_message(id(0x7E0), payload_of(6 + 7 * 16));
  // CF sequence 1..15, 0, 1.
  EXPECT_EQ(frames[15].byte(0) & 0x0F, 15);
  EXPECT_EQ(frames[16].byte(0) & 0x0F, 0);
}

class ReassemblerRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReassemblerRoundTrip, SegmentsThenReassembles) {
  const auto payload = payload_of(GetParam());
  Reassembler reassembler;
  std::optional<util::Bytes> result;
  for (const auto& frame : segment_message(id(0x7E0), payload)) {
    result = reassembler.feed(frame);
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, payload);
  EXPECT_EQ(reassembler.errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(PayloadLengths, ReassemblerRoundTrip,
                         ::testing::Values(1, 2, 6, 7, 8, 12, 13, 14, 20,
                                           48, 62, 63, 100, 255, 512,
                                           4095));

TEST(Reassembler, DetectsSequenceMismatch) {
  const auto frames = segment_message(id(0x7E0), payload_of(30));
  Reassembler reassembler;
  reassembler.feed(frames[0]);
  reassembler.feed(frames[2]);  // skip CF #1
  EXPECT_EQ(reassembler.last_error(), Reassembler::Error::kSequenceMismatch);
  EXPECT_EQ(reassembler.errors(), 1u);
}

TEST(Reassembler, UnexpectedConsecutiveIsError) {
  Reassembler reassembler;
  reassembler.feed(can::CanFrame(0x100, {0x21, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(reassembler.last_error(),
            Reassembler::Error::kUnexpectedConsecutive);
}

TEST(Reassembler, FlowControlFramesIgnored) {
  Reassembler reassembler;
  const auto fc = encode_flow_control(id(0x7E8), FlowControl{});
  EXPECT_EQ(reassembler.feed(fc), std::nullopt);
  EXPECT_EQ(reassembler.errors(), 0u);
}

TEST(Reassembler, InterruptedMessageRestartsCleanly) {
  const auto first = segment_message(id(0x7E0), payload_of(30));
  Reassembler reassembler;
  reassembler.feed(first[0]);  // FF, then abandon
  // A new single frame both flags the interruption and parses.
  const auto result =
      reassembler.feed(encode_single(id(0x7E0), payload_of(3)));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 3u);
  EXPECT_EQ(reassembler.last_error(),
            Reassembler::Error::kInterruptedFirstFrame);
}

TEST(Reassembler, DroppedConsecutiveFrameRecoversOnNextMessage) {
  const auto payload = payload_of(30);
  const auto frames = segment_message(id(0x7E0), payload);
  Reassembler reassembler;
  reassembler.feed(frames[0]);
  reassembler.feed(frames[1]);
  reassembler.feed(frames[3]);  // CF #2 lost on the wire
  EXPECT_EQ(reassembler.last_error(), Reassembler::Error::kSequenceMismatch);
  EXPECT_EQ(reassembler.errors(), 1u);
  EXPECT_FALSE(reassembler.in_progress());
  // The very next message reassembles cleanly.
  std::optional<util::Bytes> result;
  for (const auto& frame : frames) result = reassembler.feed(frame);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, payload);
  EXPECT_EQ(reassembler.errors(), 1u);
}

TEST(Reassembler, OutOfOrderConsecutiveIsSequenceMismatch) {
  const auto frames = segment_message(id(0x7E0), payload_of(30));
  Reassembler reassembler;
  reassembler.feed(frames[0]);
  reassembler.feed(frames[2]);  // CF #2 arrives before CF #1
  EXPECT_EQ(reassembler.last_error(), Reassembler::Error::kSequenceMismatch);
  EXPECT_FALSE(reassembler.in_progress());
}

TEST(Reassembler, DuplicatedConsecutiveIsToleratedMidMessage) {
  const auto payload = payload_of(30);
  const auto frames = segment_message(id(0x7E0), payload);
  Reassembler reassembler;
  reassembler.feed(frames[0]);
  reassembler.feed(frames[1]);
  reassembler.feed(frames[1]);  // bus duplicated the CF just consumed
  EXPECT_EQ(reassembler.errors(), 0u);
  EXPECT_EQ(reassembler.duplicate_frames(), 1u);
  std::optional<util::Bytes> result;
  for (std::size_t i = 2; i < frames.size(); ++i) {
    result = reassembler.feed(frames[i]);
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, payload);
}

TEST(Reassembler, DuplicatedFinalConsecutiveAfterCompletionIgnored) {
  const auto payload = payload_of(20);
  const auto frames = segment_message(id(0x7E0), payload);
  Reassembler reassembler;
  std::optional<util::Bytes> result;
  for (const auto& frame : frames) result = reassembler.feed(frame);
  ASSERT_TRUE(result.has_value());
  // A retransmitted copy of the last CF lands after the message closed.
  EXPECT_EQ(reassembler.feed(frames.back()), std::nullopt);
  EXPECT_EQ(reassembler.errors(), 0u);
  EXPECT_EQ(reassembler.duplicate_frames(), 1u);
}

TEST(Reassembler, FirstFrameInterruptingInProgressMessage) {
  const auto abandoned = segment_message(id(0x7E0), payload_of(30));
  const auto payload = payload_of(25);
  const auto fresh = segment_message(id(0x7E0), payload);
  Reassembler reassembler;
  reassembler.feed(abandoned[0]);
  reassembler.feed(abandoned[1]);
  // A new FF interrupts: error recorded, new message tracked from scratch.
  EXPECT_EQ(reassembler.feed(fresh[0]), std::nullopt);
  EXPECT_EQ(reassembler.last_error(),
            Reassembler::Error::kInterruptedFirstFrame);
  EXPECT_TRUE(reassembler.in_progress());
  std::optional<util::Bytes> result;
  for (std::size_t i = 1; i < fresh.size(); ++i) {
    result = reassembler.feed(fresh[i]);
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, payload);
}

TEST(FlowControl, EncodeDecodeRoundTrip) {
  const FlowControl fc{FlowStatus::kContinueToSend, 8, 20};
  const auto decoded = decode_flow_control(
      encode_flow_control(id(0x7E8), fc));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, FlowStatus::kContinueToSend);
  EXPECT_EQ(decoded->block_size, 8);
  EXPECT_EQ(decoded->st_min, 20);
}

// --- Active endpoints over a simulated bus ---------------------------------

class EndpointPair : public ::testing::Test {
 protected:
  EndpointPair()
      : bus_(clock_),
        tester_(bus_, EndpointConfig{id(0x7E0), id(0x7E8)}),
        ecu_(bus_, EndpointConfig{id(0x7E8), id(0x7E0)}) {}

  util::SimClock clock_;
  can::CanBus bus_;
  Endpoint tester_;
  Endpoint ecu_;
};

TEST_F(EndpointPair, SingleFrameMessage) {
  util::Bytes received;
  ecu_.set_message_handler([&](const util::Bytes& m) { received = m; });
  tester_.send(util::Bytes{0x3E, 0x00});
  bus_.deliver_pending();
  EXPECT_EQ(received, (util::Bytes{0x3E, 0x00}));
}

TEST_F(EndpointPair, MultiFrameMessageWithFlowControl) {
  util::Bytes received;
  ecu_.set_message_handler([&](const util::Bytes& m) { received = m; });
  const auto payload = payload_of(100);
  tester_.send(payload);
  bus_.deliver_pending();
  EXPECT_EQ(received, payload);
  EXPECT_GE(ecu_.stats().fc_sent, 1u);
  EXPECT_EQ(tester_.stats().messages_sent, 1u);
}

TEST_F(EndpointPair, RequestResponseConversation) {
  ecu_.set_message_handler([&](const util::Bytes& m) {
    if (!m.empty() && m[0] == 0x22) {
      util::Bytes response(40, 0xAB);
      response[0] = 0x62;
      ecu_.send(response);
    }
  });
  util::Bytes response;
  tester_.set_message_handler([&](const util::Bytes& m) { response = m; });
  tester_.send(util::Bytes{0x22, 0xF4, 0x0D});
  bus_.deliver_pending();
  ASSERT_EQ(response.size(), 40u);
  EXPECT_EQ(response[0], 0x62);
}

TEST_F(EndpointPair, BlockSizePacing) {
  // Receiver advertises BS=2: sender must pause for FC every 2 CFs.
  util::SimClock clock;
  can::CanBus bus(clock);
  Endpoint tx(bus, EndpointConfig{id(0x7E0), id(0x7E8)});
  EndpointConfig rx_config{id(0x7E8), id(0x7E0)};
  rx_config.block_size = 2;
  Endpoint rx(bus, rx_config);
  util::Bytes received;
  rx.set_message_handler([&](const util::Bytes& m) { received = m; });
  tx.send(payload_of(62));  // FF + 8 CFs
  bus.deliver_pending();
  EXPECT_EQ(received, payload_of(62));
  EXPECT_GE(rx.stats().fc_sent, 4u);  // initial FC + one per block
}

TEST_F(EndpointPair, OverflowRejectsTooLongMessage) {
  util::SimClock clock;
  can::CanBus bus(clock);
  Endpoint tx(bus, EndpointConfig{id(0x7E0), id(0x7E8)});
  EndpointConfig rx_config{id(0x7E8), id(0x7E0)};
  rx_config.max_rx_length = 32;
  Endpoint rx(bus, rx_config);
  bool delivered = false;
  rx.set_message_handler([&](const util::Bytes&) { delivered = true; });
  tx.send(payload_of(100));
  bus.deliver_pending();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(rx.stats().overflows, 1u);
  EXPECT_EQ(tx.stats().overflows, 1u);
}

TEST_F(EndpointPair, RejectsEmptyAndOversizedPayloads) {
  EXPECT_THROW(tester_.send(util::Bytes{}), std::invalid_argument);
  EXPECT_THROW(tester_.send(payload_of(4096)), std::invalid_argument);
}

TEST_F(EndpointPair, StMinAdvancesClock) {
  util::SimClock clock;
  can::CanBus bus(clock);
  Endpoint tx(bus, EndpointConfig{id(0x7E0), id(0x7E8)});
  EndpointConfig rx_config{id(0x7E8), id(0x7E0)};
  rx_config.st_min_ms = 10;
  Endpoint rx(bus, rx_config);
  util::Bytes received;
  rx.set_message_handler([&](const util::Bytes& m) { received = m; });
  tx.send(payload_of(27));  // FF + 3 CFs
  bus.deliver_pending();
  EXPECT_EQ(received, payload_of(27));
  EXPECT_GE(clock.now(), 30 * util::kMillisecond);
}

}  // namespace
}  // namespace dpr::isotp

namespace dpr::isotp {
namespace {

TEST(Property, ReassemblerSurvivesRandomFrameSoup) {
  // Arbitrary frame streams (valid, truncated, shuffled) must never
  // crash the passive reassembler, and any message it does emit must
  // have come from an uncorrupted segment run.
  util::Rng rng(53);
  Reassembler reassembler;
  for (int i = 0; i < 20000; ++i) {
    const int dlc = static_cast<int>(rng.uniform_int(0, 8));
    util::Bytes data;
    for (int k = 0; k < dlc; ++k) {
      data.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    const can::CanFrame frame(can::CanId{0x7E8, false}, data);
    const auto message = reassembler.feed(frame);
    if (message) {
      EXPECT_GE(message->size(), 1u);
      EXPECT_LE(message->size(), kMaxMessageLength);
    }
  }
}

TEST(Property, SegmentedFramesAllFitClassicalCan) {
  util::Rng rng(59);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 4095));
    util::Bytes payload(n);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    for (const auto& frame :
         segment_message(can::CanId{0x7E0, false}, payload)) {
      EXPECT_LE(frame.dlc(), 8);
      EXPECT_GE(frame.dlc(), 1);
    }
  }
}

}  // namespace
}  // namespace dpr::isotp
