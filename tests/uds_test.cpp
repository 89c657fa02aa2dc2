#include <gtest/gtest.h>

#include "can/bus.hpp"
#include "isotp/endpoint.hpp"
#include "uds/client.hpp"
#include "uds/message.hpp"
#include "uds/server.hpp"

namespace dpr::uds {
namespace {

TEST(Message, ReadDataRequestRoundTrip) {
  const std::vector<Did> dids{0xF40D, 0x1234};
  const auto payload = encode_read_data_by_identifier(dids);
  EXPECT_EQ(util::to_hex(payload), "22 F4 0D 12 34");
  const auto decoded = decode_read_data_request(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, dids);
}

TEST(Message, ReadDataRequestRejectsEmptyAndOddLength) {
  EXPECT_THROW(encode_read_data_by_identifier({}), std::invalid_argument);
  EXPECT_EQ(decode_read_data_request(util::from_hex("22 F4")), std::nullopt);
}

TEST(Message, ReadDataResponseMatchesPaperExample) {
  // §2.3.2: "22 F4 0D" -> "62 F4 0D 21".
  const std::vector<DataRecord> records{{0xF40D, {0x21}}};
  const auto payload = encode_read_data_response(records);
  EXPECT_EQ(util::to_hex(payload), "62 F4 0D 21");
}

TEST(Message, ReadDataResponseDecodeWithLengths) {
  const std::vector<Did> dids{0xF40D, 0xF41A};
  const std::vector<DataRecord> records{{0xF40D, {0x21}},
                                        {0xF41A, {0x01, 0xF4}}};
  const auto payload = encode_read_data_response(records);
  const auto decoded = decode_read_data_response(
      payload, dids, [](Did did) -> std::optional<std::size_t> {
        return did == 0xF40D ? 1 : 2;
      });
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[1].data, (util::Bytes{0x01, 0xF4}));
}

TEST(Message, ReadDataResponseRejectsWrongOrder) {
  const std::vector<DataRecord> records{{0xF41A, {0x01}}};
  const auto payload = encode_read_data_response(records);
  const std::vector<Did> expected{0xF40D};
  EXPECT_EQ(decode_read_data_response(
                payload, expected,
                [](Did) -> std::optional<std::size_t> { return 1; }),
            std::nullopt);
}

TEST(Message, IoControlMatchesPaperExample) {
  // §2.3.2: "2F 09 50 03 05 01 00 00" lights the left fog lamp for 5 s.
  const util::Bytes state{0x05, 0x01, 0x00, 0x00};
  const auto payload = encode_io_control(
      0x0950, IoControlParameter::kShortTermAdjustment, state);
  EXPECT_EQ(util::to_hex(payload), "2F 09 50 03 05 01 00 00");
  const auto decoded = decode_io_control_request(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->did, 0x0950);
  EXPECT_EQ(decoded->param, IoControlParameter::kShortTermAdjustment);
  EXPECT_EQ(decoded->control_state, state);
}

TEST(Message, NegativeResponseRoundTrip) {
  const auto payload = encode_negative_response(
      Service::kReadDataByIdentifier, Nrc::kRequestOutOfRange);
  EXPECT_EQ(util::to_hex(payload), "7F 22 31");
  const auto decoded = decode_negative_response(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->requested_sid, 0x22);
  EXPECT_EQ(decoded->nrc, Nrc::kRequestOutOfRange);
}

TEST(Message, PositiveResponseCheck) {
  EXPECT_TRUE(is_positive_response(util::from_hex("62 F4 0D 21"),
                                   Service::kReadDataByIdentifier));
  EXPECT_FALSE(is_positive_response(util::from_hex("7F 22 31"),
                                    Service::kReadDataByIdentifier));
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() {
    server_.add_did(0xF40D, 1, [] { return util::Bytes{0x21}; });
    server_.add_did(0xF41A, 2, [] { return util::Bytes{0x01, 0xF4}; });
    server_.add_io_did(0x0950,
                       [this](IoControlParameter param,
                              std::span<const std::uint8_t> state)
                           -> std::optional<util::Bytes> {
                         last_param_ = param;
                         return util::Bytes(state.begin(), state.end());
                       });
  }
  util::EcuSession session_;
  Server server_{session_};
  IoControlParameter last_param_ = IoControlParameter::kReturnControlToEcu;
};

TEST_F(ServerTest, ReadSingleDid) {
  const auto resp = server_.handle(util::from_hex("22 F4 0D"));
  EXPECT_EQ(util::to_hex(resp), "62 F4 0D 21");
}

TEST_F(ServerTest, ReadMultipleDidsInRequestOrder) {
  const auto resp = server_.handle(util::from_hex("22 F4 1A F4 0D"));
  EXPECT_EQ(util::to_hex(resp), "62 F4 1A 01 F4 F4 0D 21");
}

TEST_F(ServerTest, UnknownDidYieldsRequestOutOfRange) {
  const auto resp = server_.handle(util::from_hex("22 DE AD"));
  EXPECT_EQ(util::to_hex(resp), "7F 22 31");
}

TEST_F(ServerTest, IoControlRequiresNonDefaultSession) {
  const auto rejected = server_.handle(util::from_hex("2F 09 50 02"));
  EXPECT_EQ(util::to_hex(rejected), "7F 2F 22");  // conditionsNotCorrect
  EXPECT_EQ(util::to_hex(server_.handle(util::from_hex("10 03"))).substr(0, 5),
            "50 03");
  const auto accepted = server_.handle(util::from_hex("2F 09 50 02"));
  EXPECT_EQ(util::to_hex(accepted), "6F 09 50 02");
  EXPECT_EQ(last_param_, IoControlParameter::kFreezeCurrentState);
}

TEST_F(ServerTest, TesterPresentAndUnknownService) {
  EXPECT_EQ(util::to_hex(server_.handle(util::from_hex("3E 00"))), "7E 00");
  EXPECT_EQ(util::to_hex(server_.handle(util::from_hex("99 00"))),
            "7F 99 11");
  // No simulated ECU runs a seed/key machine: 0x27 is an unknown service.
  EXPECT_EQ(util::to_hex(server_.handle(util::from_hex("27 01"))),
            "7F 27 11");
}

TEST_F(ServerTest, EcuResetRelocksAndResetsSession) {
  server_.handle(util::from_hex("10 03"));
  EXPECT_TRUE(session_.in_session());
  server_.handle(util::from_hex("11 01"));
  EXPECT_FALSE(session_.in_session());
}

TEST(ClientServer, EndToEndOverIsoTp) {
  util::SimClock clock;
  can::CanBus bus(clock);
  isotp::Endpoint tester_link(
      bus, isotp::EndpointConfig{can::CanId{0x7E0, false},
                                 can::CanId{0x7E8, false}});
  isotp::Endpoint ecu_link(
      bus, isotp::EndpointConfig{can::CanId{0x7E8, false},
                                 can::CanId{0x7E0, false}});
  util::EcuSession session;
  Server server(session);
  server.add_did(0xF40D, 1, [] { return util::Bytes{0x21}; });
  // A long DID to force multi-frame responses.
  server.add_did(0xF490, 20, [] { return util::Bytes(20, 0xAA); });
  server.bind(ecu_link);

  Client client(tester_link, [&] { bus.deliver_pending(); });
  auto length_of = [](Did did) -> std::optional<std::size_t> {
    return did == 0xF40D ? std::optional<std::size_t>(1)
                         : std::optional<std::size_t>(20);
  };
  const std::vector<Did> dids{0xF40D, 0xF490};
  const auto records = client.read_data(dids, length_of);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].data, util::Bytes{0x21});
  EXPECT_EQ((*records)[1].data, util::Bytes(20, 0xAA));
}

TEST(ClientServer, NegativeResponseSurfaced) {
  util::SimClock clock;
  can::CanBus bus(clock);
  isotp::Endpoint tester_link(
      bus, isotp::EndpointConfig{can::CanId{0x7E0, false},
                                 can::CanId{0x7E8, false}});
  isotp::Endpoint ecu_link(
      bus, isotp::EndpointConfig{can::CanId{0x7E8, false},
                                 can::CanId{0x7E0, false}});
  util::EcuSession session;
  Server server(session);
  server.bind(ecu_link);
  Client client(tester_link, [&] { bus.deliver_pending(); });
  const auto resp = client.transact(util::from_hex("22 DE AD"));
  ASSERT_TRUE(resp.has_value());
  const auto negative = decode_negative_response(*resp);
  ASSERT_TRUE(negative.has_value());
  EXPECT_EQ(negative->requested_sid, 0x22);
  EXPECT_EQ(negative->nrc, Nrc::kRequestOutOfRange);
}

/// Replies with a fixed scripted message on every send (malformed-peer
/// harness for the client's response-length guards).
class FixedReplyLink : public util::MessageLink {
 public:
  explicit FixedReplyLink(util::Bytes reply) : reply_(std::move(reply)) {}
  void send(std::span<const std::uint8_t>) override {
    ++sends;
    handler_(reply_);
  }
  void set_message_handler(Handler handler) override {
    handler_ = std::move(handler);
  }
  int sends = 0;

 private:
  util::Bytes reply_;
  Handler handler_;
};

TEST(ClientGuards, TruncatedIoControlResponseYieldsNullopt) {
  // Positive SID + DID echo but no control-status bytes: too short for
  // the begin()+4 slice the parser takes.
  FixedReplyLink link(util::from_hex("6F 09 50"));
  Client client(link, [] {});
  const auto status = client.io_control(
      0x0950, IoControlParameter::kShortTermAdjustment, util::Bytes{0x05});
  EXPECT_FALSE(status.has_value());
}

TEST(ClientGuards, WellFormedIoControlResponseStillParses) {
  FixedReplyLink link(util::from_hex("6F 09 50 03 05"));
  Client client(link, [] {});
  const auto status = client.io_control(
      0x0950, IoControlParameter::kShortTermAdjustment, util::Bytes{0x05});
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(util::to_hex(*status), "05");
}

}  // namespace
}  // namespace dpr::uds

namespace dpr::uds {
namespace {

TEST(DtcServices, ReadByStatusMask) {
  util::EcuSession session;
  Server server(session);
  server.add_dtc(0x030100, 0x20);
  server.add_dtc(0x012345, 0x08);
  const auto resp = server.handle(util::from_hex("19 02 FF"));
  ASSERT_GE(resp.size(), 3u);
  EXPECT_EQ(resp[0], 0x59);
  EXPECT_EQ((resp.size() - 3) / 4, 2u);  // two DTC records
  // Mask that matches only the second DTC.
  const auto masked = server.handle(util::from_hex("19 02 08"));
  EXPECT_EQ((masked.size() - 3) / 4, 1u);
}

TEST(DtcServices, ClearAllAndGroup) {
  util::EcuSession session;
  Server server(session);
  server.add_dtc(0x030100);
  server.add_dtc(0x012345);
  EXPECT_EQ(util::to_hex(server.handle(util::from_hex("14 01 23 45"))),
            "54");
  EXPECT_EQ(server.dtcs().size(), 1u);
  EXPECT_EQ(util::to_hex(server.handle(util::from_hex("14 FF FF FF"))),
            "54");
  EXPECT_TRUE(server.dtcs().empty());
}

TEST(DtcServices, MalformedRequestsRejected) {
  util::EcuSession session;
  Server server(session);
  EXPECT_EQ(util::to_hex(server.handle(util::from_hex("19 05 FF"))),
            "7F 19 12");
  EXPECT_EQ(util::to_hex(server.handle(util::from_hex("14 FF"))),
            "7F 14 13");
}

}  // namespace
}  // namespace dpr::uds
