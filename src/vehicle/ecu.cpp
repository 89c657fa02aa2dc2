#include "vehicle/ecu.hpp"

#include "kwp/formulas.hpp"
#include "obd/pid.hpp"
#include "oemtp/link.hpp"
#include "vwtp/channel.hpp"

namespace dpr::vehicle {

namespace {

/// The tester's address byte in BMW framing.
constexpr std::uint8_t kTesterAddress = 0xF1;

}  // namespace

std::unique_ptr<util::MessageLink> make_link(can::CanBus& bus,
                                             TransportKind transport,
                                             const EcuSpec& ecu,
                                             LinkSide side) {
  const bool tester = side == LinkSide::kTester;
  const can::CanId request{ecu.request_id, false};
  const can::CanId response{ecu.response_id, false};
  const can::CanId tx = tester ? request : response;
  const can::CanId rx = tester ? response : request;
  switch (transport) {
    case TransportKind::kIsoTp:
      return std::make_unique<isotp::Endpoint>(bus,
                                               isotp::EndpointConfig{tx, rx});
    case TransportKind::kVwTp20:
      return std::make_unique<vwtp::Channel>(bus, vwtp::ChannelConfig{tx, rx});
    case TransportKind::kBmwFraming:
      return std::make_unique<oemtp::BmwLink>(
          bus, oemtp::BmwLinkConfig{
                   tx, rx,
                   /*peer_address=*/tester ? ecu.address : kTesterAddress,
                   /*own_address=*/tester ? kTesterAddress : ecu.address});
  }
  return nullptr;
}

EcuSim::EcuSim(const EcuSpec& spec, const CarSpec& car, can::CanBus& bus,
               util::SimClock& clock, util::Rng rng,
               const util::FaultConfig& faults)
    : spec_(spec), car_(car), clock_(clock) {
  if (car_.protocol == Protocol::kUds) {
    install_uds_signals(rng);
  } else {
    install_kwp_blocks(rng);
  }
  // A few stored trouble codes per ECU (exercised by the tool's
  // "Read/Clear Trouble Codes" screens).
  const int n_dtcs = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < n_dtcs; ++i) {
    if (car_.protocol == Protocol::kUds) {
      uds_server_.add_dtc(static_cast<std::uint32_t>(
          rng.uniform_int(0x010100, 0x04FFFF)));
    } else {
      kwp_server_.add_dtc(
          static_cast<std::uint16_t>(rng.uniform_int(0x0100, 0x4FFF)));
    }
  }
  install_actuators();
  if (spec_.supports_obd && car_.transport == TransportKind::kIsoTp) {
    install_obd(rng);
  }
  // Stream salts derive from the stable request id, so server faults
  // replay identically regardless of vehicle seed or build order. The salt
  // space follows the car's protocol (0x0D/0x0F for UDS, 0x0E/0x0F8 for
  // KWP): every request of the car, whichever service serves it, draws
  // from the one session's streams.
  const bool kwp_car = car_.protocol == Protocol::kKwp2000;
  if (faults.rate > 0.0) {
    session_.enable_faults(
        util::EcuSession::FaultProfile{faults.server_pending_rate(),
                                       faults.server_busy_rate()},
        faults.rng_for((kwp_car ? 0x0E000000ULL : 0x0D000000ULL) +
                       spec_.request_id));
  }
  if (faults.stateful()) {
    // The S3 timer always comes with stateful failures: S3 expiry is what
    // makes a reboot *stay* harmful until the supervisor re-establishes
    // the session.
    session_.enable_s3(clock_);
    session_.enable_resets(
        faults.reset_rate, clock_,
        faults.stream_for((kwp_car ? 0x0F800000ULL : 0x0F000000ULL) +
                          spec_.request_id));
  }
  attach_transport(bus);
}

std::vector<std::uint8_t> EcuSim::sample_uds_raw(
    const UdsSignal& sig) const {
  if (sig.low_source) {
    return {static_cast<std::uint8_t>(sig.source->sample(clock_.now())),
            static_cast<std::uint8_t>(
                sig.low_source->sample(clock_.now()))};
  }
  return raw_to_bytes(sig.source->sample(clock_.now()),
                      sig.spec.data_bytes);
}

void EcuSim::install_uds_signals(util::Rng& rng) {
  for (const auto& sig : spec_.uds_signals) {
    UdsSignal entry;
    entry.spec = sig;
    if (sig.independent_bytes && sig.data_bytes == 2) {
      entry.source = std::make_unique<RawSignal>(
          sig.pattern, sig.raw_lo >> 8, sig.raw_hi >> 8, rng.fork());
      entry.low_source = std::make_unique<RawSignal>(
          sig.pattern, sig.raw_lo & 0xFF, sig.raw_hi & 0xFF, rng.fork());
    } else {
      entry.source = std::make_unique<RawSignal>(sig.pattern, sig.raw_lo,
                                                 sig.raw_hi, rng.fork());
    }
    const uds::Did did = sig.did;
    const std::size_t nbytes = sig.data_bytes;
    auto [it, inserted] = uds_signals_.emplace(did, std::move(entry));
    const UdsSignal* stored = &it->second;
    uds_server_.add_did(did, nbytes,
                        [this, stored]() { return sample_uds_raw(*stored); });
  }
}

void EcuSim::install_kwp_blocks(util::Rng& rng) {
  // ECU identification record (part number, coding, workshop data): the
  // long response a real tool pulls on connect.
  {
    std::string ident = car_.model + " / " + spec_.name +
                        " / 06A-906-032-HN / coding 07245 / WSC 01236 / "
                        "software 1109 / hardware 23";
    ident.resize(88, ' ');
    kwp_server_.set_identification(
        util::Bytes(ident.begin(), ident.end()));
  }
  for (const auto& block_spec : spec_.kwp_local_ids) {
    KwpBlock block;
    block.spec = block_spec;
    for (const auto& esv_spec : block_spec.esvs) {
      KwpEsv esv;
      esv.spec = esv_spec;
      if (esv_spec.x0_lo != esv_spec.x0_hi) {
        esv.x0_source = std::make_unique<RawSignal>(
            RawSignal::Pattern::kRandomWalk, esv_spec.x0_lo, esv_spec.x0_hi,
            rng.fork());
      }
      esv.x1_source = std::make_unique<RawSignal>(
          esv_spec.pattern, esv_spec.x1_lo, esv_spec.x1_hi, rng.fork());
      block.esvs.push_back(std::move(esv));
    }
    const std::uint8_t local_id = block_spec.local_id;
    kwp_blocks_.emplace(local_id, std::move(block));
    kwp_server_.add_local_id(local_id, [this, local_id]() {
      std::vector<kwp::EsvRecord> records;
      auto& block_state = kwp_blocks_.at(local_id);
      for (auto& esv : block_state.esvs) {
        kwp::EsvRecord rec;
        rec.formula_type = esv.spec.formula_type;
        rec.x0 = esv.x0_source
                     ? static_cast<std::uint8_t>(
                           esv.x0_source->sample(clock_.now()))
                     : esv.spec.x0_lo;
        rec.x1 = static_cast<std::uint8_t>(
            esv.x1_source->sample(clock_.now()));
        records.push_back(rec);
      }
      return records;
    });
  }
}

void EcuSim::install_actuators() {
  for (const auto& act_spec : spec_.actuators) {
    actuators_.emplace(act_spec.id, Actuator(act_spec.name));
    const std::uint16_t id = act_spec.id;
    if (car_.io_service == IoService::kUds2F) {
      uds_server_.add_io_did(
          id,
          [this, id](uds::IoControlParameter param,
                     std::span<const std::uint8_t> state)
              -> std::optional<util::Bytes> {
            return actuators_.at(id).apply(
                static_cast<std::uint8_t>(param), state);
          });
    } else {
      // Local-identifier IO control (service 0x30): the ECR's first byte
      // is the IO control parameter, the rest is the control state.
      kwp_server_.add_io_local(
          static_cast<std::uint8_t>(id),
          [this, id](std::span<const std::uint8_t> ecr)
              -> std::optional<util::Bytes> {
            if (ecr.empty()) return std::nullopt;
            return actuators_.at(id).apply(ecr[0], ecr.subspan(1));
          });
    }
  }
}

void EcuSim::install_obd(util::Rng& rng) {
  for (const auto& pid_spec : obd::pid_table()) {
    ObdSignal sig;
    sig.pid = pid_spec.pid;
    // Drive each PID with a walk across the middle of its raw range.
    const std::uint32_t hi =
        pid_spec.data_bytes == 1 ? 0xFFu : 0xFFFFu;
    sig.source = std::make_unique<RawSignal>(
        RawSignal::Pattern::kRandomWalk, hi / 8, hi - hi / 8, rng.fork());
    obd_signals_.push_back(std::move(sig));
  }
}

void EcuSim::attach_transport(can::CanBus& bus) {
  link_ = make_link(bus, car_.transport, spec_, LinkSide::kEcu);
  link_->set_message_handler(
      [this](const util::Bytes& request) { dispatch(request); });

  // Engine ECUs additionally answer OBD-II requests on the functional id.
  if (!obd_signals_.empty()) {
    obd_link_ = std::make_unique<isotp::Endpoint>(
        bus, isotp::EndpointConfig{can::CanId{0x7E8, false},
                                   can::CanId{0x7DF, false}});
    obd_link_->set_message_handler([this](const util::Bytes& request) {
      if (request.size() < 2 || request[0] != obd::kModeCurrentData) return;
      for (const auto& sig : obd_signals_) {
        if (sig.pid != request[1]) continue;
        const auto spec = obd::find_pid(sig.pid);
        if (!spec) return;
        const std::uint32_t raw = sig.source->sample(clock_.now());
        obd_link_->send(obd::encode_response(
            sig.pid, raw_to_bytes(raw, spec->data_bytes)));
        return;
      }
    });
  }
}

void EcuSim::dispatch(const util::Bytes& request) {
  if (request.empty()) return;
  // UDS vehicles whose IO control runs over the local-identifier service
  // (Table 11, service id 30) send 0x30 to the KWP service; everything
  // else follows the car's protocol. Both services share one session.
  const bool to_kwp = car_.protocol == Protocol::kKwp2000 ||
                      (request[0] == kwp::kIoControlByLocalId &&
                       car_.io_service == IoService::kKwp30);
  for (const util::Bytes& response : to_kwp ? kwp_server_.respond(request)
                                            : uds_server_.respond(request)) {
    link_->send(response);
  }
}

std::optional<double> EcuSim::physical_value(uds::Did did) const {
  const auto it = uds_signals_.find(did);
  if (it == uds_signals_.end()) return std::nullopt;
  return it->second.spec.formula.eval(sample_uds_raw(it->second));
}

std::optional<double> EcuSim::kwp_physical_value(std::uint8_t local_id,
                                                 std::size_t index) const {
  const auto it = kwp_blocks_.find(local_id);
  if (it == kwp_blocks_.end() || index >= it->second.esvs.size()) {
    return std::nullopt;
  }
  const auto& esv = it->second.esvs[index];
  const std::uint8_t x0 =
      esv.x0_source ? static_cast<std::uint8_t>(
                          esv.x0_source->sample(clock_.now()))
                    : esv.spec.x0_lo;
  const std::uint8_t x1 =
      static_cast<std::uint8_t>(esv.x1_source->sample(clock_.now()));
  return kwp::decode_esv(esv.spec.formula_type, x0, x1);
}

const Actuator* EcuSim::actuator(std::uint16_t id) const {
  const auto it = actuators_.find(id);
  return it == actuators_.end() ? nullptr : &it->second;
}

Actuator* EcuSim::actuator(std::uint16_t id) {
  const auto it = actuators_.find(id);
  return it == actuators_.end() ? nullptr : &it->second;
}

}  // namespace dpr::vehicle
