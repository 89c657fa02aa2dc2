// Protocol-stack tour: the substrate layers on their own, without the
// reverse-engineering pipeline — build a bus, an ECU, and speak UDS /
// KWP 2000 / OBD-II over ISO-TP by hand.

#include <cstdio>

#include "can/bus.hpp"
#include "can/sniffer.hpp"
#include "isotp/endpoint.hpp"
#include "kwp/formulas.hpp"
#include "obd/pid.hpp"
#include "uds/client.hpp"
#include "uds/server.hpp"

int main() {
  using namespace dpr;

  util::SimClock clock;
  can::CanBus bus(clock);
  can::Sniffer sniffer(bus);

  // A hand-built ECU: one data identifier and one actuator.
  isotp::Endpoint ecu_link(
      bus, isotp::EndpointConfig{can::CanId{0x7E8, false},
                                 can::CanId{0x7E0, false}});
  util::EcuSession session;  // the ECU's diagnostic session
  uds::Server ecu(session);
  ecu.add_did(0xF40D, 1, [] { return util::Bytes{0x21}; });  // 33 km/h
  ecu.add_io_did(0x0950,
                 [](uds::IoControlParameter param,
                    std::span<const std::uint8_t> state)
                     -> std::optional<util::Bytes> {
                   std::printf("  [ECU] fog light: param %02X state %s\n",
                               static_cast<int>(param),
                               util::to_hex(state).c_str());
                   return util::Bytes{static_cast<std::uint8_t>(param)};
                 });
  ecu.bind(ecu_link);

  // The tester side.
  isotp::Endpoint tester_link(
      bus, isotp::EndpointConfig{can::CanId{0x7E0, false},
                                 can::CanId{0x7E8, false}});
  uds::Client tester(tester_link, [&] { bus.deliver_pending(); });

  std::printf("UDS ReadDataByIdentifier (the paper's \"22 F4 0D\"):\n");
  const std::vector<uds::Did> dids{0xF40D};
  const auto records = tester.read_data(
      dids, [](uds::Did) { return std::optional<std::size_t>(1); });
  std::printf("  vehicle speed raw: %s -> %d km/h (Y = X * 1.0)\n",
              util::to_hex(records->front().data).c_str(),
              records->front().data[0]);

  std::printf("\nUDS IO control, the 3-message pattern of §4.5:\n");
  tester.start_session(0x03);
  tester.io_control(0x0950, uds::IoControlParameter::kFreezeCurrentState);
  const util::Bytes five_seconds_left{0x05, 0x01, 0x00, 0x00};
  tester.io_control(0x0950, uds::IoControlParameter::kShortTermAdjustment,
                    five_seconds_left);
  tester.io_control(0x0950, uds::IoControlParameter::kReturnControlToEcu);

  std::printf("\nKWP 2000 formula table (§2.3.1 example):\n");
  const auto value = kwp::decode_esv(0x01, 0xF1, 0x10);
  std::printf("  ESV \"01 F1 10\": type 0x01 = %s -> %.1f rpm\n",
              kwp::find_formula(0x01)->expression.c_str(), *value);

  std::printf("\nOBD-II standard decode (SAE J1979):\n");
  const auto rpm = obd::decode_value(util::from_hex("41 0C 1A F8"));
  std::printf("  \"41 0C 1A F8\" -> %.1f rpm via %s\n", *rpm,
              obd::find_pid(0x0C)->formula.c_str());

  std::printf("\nSniffer captured %zu CAN frames; first few:\n",
              sniffer.size());
  for (std::size_t i = 0; i < 5 && i < sniffer.size(); ++i) {
    std::printf("  %8lld us  %s\n",
                static_cast<long long>(sniffer.capture()[i].timestamp),
                sniffer.capture()[i].frame.to_string().c_str());
  }
  return 0;
}
