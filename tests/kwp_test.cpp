#include <gtest/gtest.h>

#include <cmath>

#include "kwp/client.hpp"
#include "kwp/formulas.hpp"
#include "kwp/message.hpp"
#include "kwp/server.hpp"
#include "can/bus.hpp"
#include "isotp/endpoint.hpp"

namespace dpr::kwp {
namespace {

TEST(Message, ReadRequestMatchesPaperExample) {
  // §2.3.1: "21 07" reads the engine RPM block.
  EXPECT_EQ(util::to_hex(encode_read_by_local_id(0x07)), "21 07");
  const auto decoded = decode_read_request(util::from_hex("21 07"));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->local_id, 0x07);
}

TEST(Message, ReadResponseThreeByteRecords) {
  const std::vector<EsvRecord> records{{0x01, 0xF1, 0x10},
                                       {0x07, 0x64, 0x55}};
  const auto payload = encode_read_response(0x07, records);
  EXPECT_EQ(util::to_hex(payload), "61 07 01 F1 10 07 64 55");
  const auto decoded = decode_read_response(payload);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->records.size(), 2u);
  EXPECT_EQ(decoded->records[0].formula_type, 0x01);
  EXPECT_EQ(decoded->records[0].x0, 0xF1);
  EXPECT_EQ(decoded->records[0].x1, 0x10);
}

TEST(Message, ReadResponseRejectsPartialRecord) {
  EXPECT_EQ(decode_read_response(util::from_hex("61 07 01 F1")),
            std::nullopt);
}

TEST(Message, IoControlLocalMatchesPaperExample) {
  // §2.3.1 example: "30 15 00 40 00" turns the light on.
  const util::Bytes ecr{0x00, 0x40, 0x00};
  EXPECT_EQ(util::to_hex(encode_io_control_local(0x15, ecr)),
            "30 15 00 40 00");
  const auto decoded =
      decode_io_local_request(util::from_hex("30 15 00 40 00"));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->local_id, 0x15);
  EXPECT_EQ(decoded->ecr, ecr);
}

TEST(Message, IoControlCommonRoundTrip) {
  const util::Bytes ecr{0x03, 0x05};
  const auto payload = encode_io_control_common(0x0950, ecr);
  EXPECT_EQ(util::to_hex(payload), "2F 09 50 03 05");
  const auto decoded = decode_io_common_request(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->common_id, 0x0950);
  EXPECT_EQ(decoded->ecr, ecr);
}

TEST(Formulas, PaperRpmExample) {
  // §2.3.1: ESV "01 F1 10": type 0x01, formula X0*X1/5 -> 771.2.
  const auto value = decode_esv(0x01, 0xF1, 0x10);
  ASSERT_TRUE(value.has_value());
  EXPECT_NEAR(*value, 771.2, 1e-9);
}

TEST(Formulas, TableHasPaperFormulaTypes) {
  ASSERT_TRUE(find_formula(0x01).has_value());
  EXPECT_EQ(find_formula(0x01)->expression, "X0*X1/5");
  EXPECT_TRUE(find_formula(0x07).has_value());   // vehicle speed
  EXPECT_TRUE(find_formula(0x17).has_value());   // torque assistance
  EXPECT_FALSE(find_formula(0xEE).has_value());  // unknown type
}

TEST(Formulas, EnumKindsHaveNoNumericDecode) {
  EXPECT_EQ(find_formula(0x11)->kind, FormulaKind::kEnum);
  EXPECT_EQ(decode_esv(0x11, 0x00, 0x01), std::nullopt);
}

class KwpFormulaSweep : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(KwpFormulaSweep, DecodeIsFiniteAcrossOperandSpace) {
  const auto spec = find_formula(GetParam());
  ASSERT_TRUE(spec.has_value());
  if (spec->kind != FormulaKind::kNumeric) return;
  for (int x0 = 0; x0 < 256; x0 += 15) {
    for (int x1 = 0; x1 < 256; x1 += 15) {
      const auto value = decode_esv(GetParam(), static_cast<std::uint8_t>(x0),
                                    static_cast<std::uint8_t>(x1));
      ASSERT_TRUE(value.has_value());
      EXPECT_TRUE(std::isfinite(*value));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, KwpFormulaSweep,
                         ::testing::Values(0x01, 0x02, 0x05, 0x06, 0x07,
                                           0x08, 0x12, 0x16, 0x17, 0x19,
                                           0x1A, 0x1B, 0x21, 0x22, 0x23,
                                           0x31));

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() {
    server_.add_local_id(0x07, [] {
      return std::vector<EsvRecord>{{0x01, 0xF1, 0x10}};
    });
    server_.add_io_local(0x15,
                         [](std::span<const std::uint8_t> ecr)
                             -> std::optional<util::Bytes> {
                           return util::Bytes(ecr.begin(), ecr.end());
                         });
    server_.add_io_common(0x0950,
                          [](std::span<const std::uint8_t>)
                              -> std::optional<util::Bytes> {
                            return util::Bytes{0x03};
                          });
  }
  util::EcuSession session_;
  Server server_{session_};
};

TEST_F(ServerTest, StartSession) {
  EXPECT_EQ(util::to_hex(server_.handle(util::from_hex("10 89"))), "50 89");
  EXPECT_TRUE(session_.in_session());
  // 10 01 is the default session: it ends the running one.
  EXPECT_EQ(util::to_hex(server_.handle(util::from_hex("10 01"))), "50 01");
  EXPECT_FALSE(session_.in_session());
}

TEST_F(ServerTest, ReadLocalId) {
  EXPECT_EQ(util::to_hex(server_.handle(util::from_hex("21 07"))),
            "61 07 01 F1 10");
}

TEST_F(ServerTest, UnknownLocalIdRejected) {
  EXPECT_EQ(util::to_hex(server_.handle(util::from_hex("21 99"))),
            "7F 21 31");
}

TEST_F(ServerTest, IoControlLocalEchoesStatus) {
  EXPECT_EQ(util::to_hex(server_.handle(util::from_hex("30 15 00 40 00"))),
            "70 15 00 40 00");
}

TEST_F(ServerTest, IoControlCommon) {
  EXPECT_EQ(util::to_hex(server_.handle(util::from_hex("2F 09 50 03"))),
            "6F 09 50 03");
}

TEST_F(ServerTest, UnknownServiceRejected) {
  EXPECT_EQ(util::to_hex(server_.handle(util::from_hex("31 01"))),
            "7F 31 11");
  // No simulated ECU runs a seed/key machine: 0x27 is an unknown service.
  EXPECT_EQ(util::to_hex(server_.handle(util::from_hex("27 01"))),
            "7F 27 11");
}

TEST(ClientServer, ReadOverIsoTp) {
  util::SimClock clock;
  can::CanBus bus(clock);
  isotp::Endpoint tester_link(
      bus, isotp::EndpointConfig{can::CanId{0x700, false},
                                 can::CanId{0x701, false}});
  isotp::Endpoint ecu_link(
      bus, isotp::EndpointConfig{can::CanId{0x701, false},
                                 can::CanId{0x700, false}});
  util::EcuSession session;
  Server server(session);
  // Four ESVs -> 14-byte response -> multi-frame.
  server.add_local_id(0x02, [] {
    return std::vector<EsvRecord>{{0x01, 0xC8, 0x20},
                                  {0x07, 0x64, 0x50},
                                  {0x05, 0x0A, 0x96},
                                  {0x06, 0x5F, 0x80}};
  });
  server.bind(ecu_link);
  Client client(tester_link, [&] { bus.deliver_pending(); });
  EXPECT_TRUE(client.start_session());
  const auto resp = client.read_local_id(0x02);
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->records.size(), 4u);
  EXPECT_EQ(resp->records[2].formula_type, 0x05);
}

}  // namespace
}  // namespace dpr::kwp

namespace dpr::kwp {
namespace {

TEST(DtcServices, ReadAndClear) {
  util::EcuSession session;
  Server server(session);
  server.add_dtc(0x0301);
  server.add_dtc(0x4523, 0xA0);
  const auto resp = server.handle(util::from_hex("18 00 FF 00"));
  ASSERT_GE(resp.size(), 2u);
  EXPECT_EQ(resp[0], 0x58);
  EXPECT_EQ(resp[1], 2);  // count
  EXPECT_EQ(util::to_hex(server.handle(util::from_hex("14 FF 00"))),
            "54 FF 00");
  EXPECT_TRUE(server.dtcs().empty());
}

TEST(DtcServices, IdentificationReadBack) {
  util::EcuSession session;
  Server server(session);
  server.set_identification(util::Bytes(40, 'A'));
  const auto resp = server.handle(util::from_hex("1A 9B"));
  ASSERT_EQ(resp.size(), 42u);
  EXPECT_EQ(resp[0], 0x5A);
  EXPECT_EQ(resp[1], 0x9B);
}

}  // namespace
}  // namespace dpr::kwp
