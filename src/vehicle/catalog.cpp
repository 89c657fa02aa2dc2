#include "vehicle/catalog.hpp"

#include <array>
#include <cassert>
#include <set>
#include <stdexcept>

#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace dpr::vehicle {

/// --- Pools the catalog builder and vehicle::Generator draw from ------------

const std::vector<UdsSignalTemplate>& uds_signal_templates() {
  using P = RawSignal::Pattern;
  static const std::vector<UdsSignalTemplate> pool = {
      {"Vehicle Speed", "km/h", 1, PropFormula::linear(1.0), 0, 220,
       P::kSine},
      {"Engine Coolant Temperature", "degC", 2,
       PropFormula::linear(0.0075, -48.0), 6400, 23200, P::kRandomWalk},
      {"Engine Speed", "rpm", 2, PropFormula::linear(0.25), 3200, 26000,
       P::kSine},
      {"Throttle Position", "%", 2, PropFormula::linear(0.01), 0, 10000,
       P::kRandomWalk},
      {"Battery Voltage", "V", 2, PropFormula::linear(0.001), 11000, 14800,
       P::kRandomWalk},
      {"Fuel Rail Pressure", "MPa", 2, PropFormula::linear(0.01), 100, 20000,
       P::kRandomWalk},
      {"Intake Air Temperature", "degC", 2,
       PropFormula::linear(0.01, -40.0), 4000, 12000, P::kRandomWalk},
      {"Boost Pressure", "kPa", 2, PropFormula::linear(0.1), 900, 2500,
       P::kRandomWalk},
      {"Brake Pressure", "bar", 2, PropFormula::linear(0.01), 0, 25000,
       P::kRandomWalk},
      {"Fuel Tank Level", "%", 1, PropFormula::linear(100.0 / 255.0), 0, 255,
       P::kRandomWalk},
      {"Engine Oil Temperature", "degC", 2,
       PropFormula::linear(0.02, -40.0), 4000, 9000, P::kRandomWalk},
      {"Injection Quantity Cylinder 1", "mg/stroke", 2,
       PropFormula::linear(0.01), 0, 9000, P::kRandomWalk},
      {"Lambda Sensor Voltage", "V", 2, PropFormula::linear(0.0005), 0,
       4000, P::kRandomWalk},
      {"Mass Air Flow", "g/s", 2, PropFormula::linear(0.01), 0, 40000,
       P::kSine},
      {"Steering Angle", "deg", 2, PropFormula::linear(0.1, -780.0), 2000,
       13600, P::kSine},
      {"Transmission Oil Temperature", "degC", 2,
       PropFormula::linear(0.02, -50.0), 3500, 10000, P::kRandomWalk},
      {"Accelerator Pedal Position", "%", 1, PropFormula::linear(0.4), 0,
       250, P::kRandomWalk},
      {"Wheel Speed Front Left", "km/h", 2, PropFormula::linear(1.0 / 128.0),
       0, 28000, P::kSine},
      {"Ambient Temperature", "degC", 1, PropFormula::linear(0.5, -40.0), 60,
       160, P::kRandomWalk},
      {"Fuel Consumption Rate", "l/h", 2, PropFormula::linear(0.05), 0, 900,
       P::kRandomWalk},
      {"Exhaust Gas Temperature", "degC", 2, PropFormula::linear(0.1, -100.0),
       2000, 9000, P::kRandomWalk},
      // Nonlinear cases: GP must beat linear regression here (§4.4).
      {"Dynamic Air Load", "N", 1, PropFormula::quadratic(0.004, 0.0, 0.0),
       10, 250, P::kRandomWalk},
      {"Charge Air Ratio", "", 1, PropFormula::quadratic(0.0002, 0.05, 1.0),
       10, 240, P::kRandomWalk},
      {"Generator Load", "A", 2, PropFormula::linear(0.1, -204.8), 100,
       4000, P::kRandomWalk},
      {"Odometer Fraction", "km", 2, PropFormula::linear(10.0), 0, 6000,
       P::kConstant},
      {"Yaw Rate", "deg/s", 2, PropFormula::two_byte(0.64, 0.0025, -81.92),
       0, 65535, P::kSine, /*independent_bytes=*/true},
      {"Oil Pressure", "kPa", 1, PropFormula::linear(4.0), 10, 200,
       P::kRandomWalk},
      {"Cabin Temperature", "degC", 1, PropFormula::linear(0.25, -10.0), 60,
       220, P::kRandomWalk},
      // Product forms over both raw bytes (linear regression cannot fit
      // these — the §4.4 contrast).
      {"Fuel Trim Product", "", 2, PropFormula::product(0.004), 0x2020,
       0xE0E0, P::kRandomWalk, /*independent_bytes=*/true},
      {"Knock Sensor Energy", "mJ", 2, PropFormula::product(0.01, 2.0),
       0x1010, 0xD0D0, P::kRandomWalk, /*independent_bytes=*/true},
      {"Turbo Work Index", "", 2, PropFormula::product(0.002, -5.0),
       0x3030, 0xF0F0, P::kSine, /*independent_bytes=*/true},
      {"Suspension Travel", "mm", 1,
       PropFormula::quadratic(0.0015, -0.2, 30.0), 20, 250, P::kRandomWalk},
  };
  return pool;
}

const std::vector<const char*>& enum_name_templates() {
  static const std::vector<const char*> pool = {
      "Door Status Front Left", "Door Status Front Right",
      "Door Status Rear Left", "Door Status Rear Right", "Trunk Status",
      "Hood Status", "Ignition Status", "Brake Light Switch",
      "Clutch Switch", "Seat Belt Driver", "Seat Belt Passenger",
      "AC Compressor State", "Headlight Status", "Turn Signal State",
      "Gear Position", "Cruise Control State", "ESP Status",
      "Airbag Status", "Glow Plug Status", "DPF Regeneration State",
      "Parking Brake Status", "Fuel Pump State", "Central Lock Status",
      "Rain Sensor State", "Light Sensor State", "Wiper State",
      "Oil Pressure Warning", "Coolant Level Warning",
  };
  return pool;
}

const std::vector<KwpEsvTemplate>& kwp_esv_templates() {
  using P = RawSignal::Pattern;
  static const std::vector<KwpEsvTemplate> pool = {
      // The paper's worked example: type 0x01 engine RPM. X0 is the
      // per-block scaling byte; on several blocks it varies with load,
      // making the product genuinely nonlinear (LR fails, §4.4).
      {0x01, "Engine Speed", "rpm", 0x40, 0xE0, 8, 250, P::kSine},
      // Vehicle speed with X0 pinned to 0x64 -> collapses to Y = X1 (§4.3).
      {0x07, "Vehicle Speed", "km/h", 0x64, 0x64, 0, 220, P::kSine},
      {0x05, "Coolant Temperature", "degC", 0x0A, 0x0A, 60, 230,
       P::kRandomWalk},
      {0x06, "Battery Voltage", "V", 0x5F, 0x5F, 100, 160, P::kRandomWalk},
      {0x02, "Engine Load", "%", 0xFA, 0xFA, 0, 200, P::kRandomWalk},
      // Torque assistance: X1 flips around 0x80, X0 carries magnitude
      // (the sign-flip case discussed in §4.3).
      {0x17, "Torque Assistance", "Nm", 10, 220, 0x7F, 0x81, P::kToggle},
      // Lateral acceleration with X0 always 0x00 — the degenerate case
      // that makes the inferred formula single-variable (§4.3).
      {0x1B, "Lateral Acceleration", "deg", 0x00, 0x00, 0, 255, P::kSine},
      {0x12, "Intake Manifold Pressure", "mbar", 0x19, 0x19, 0, 250,
       P::kRandomWalk},
      {0x16, "Injection Timing", "ms", 0x20, 0xA0, 0, 255, P::kRandomWalk},
      {0x19, "Mass Air Flow", "g/s", 0x30, 0xC0, 0, 255, P::kSine},
      {0x1A, "Temperature Difference", "degC", 0x28, 0x28, 40, 255,
       P::kRandomWalk},
      {0x21, "Throttle Angle", "%", 0x00, 0x00, 0, 200, P::kRandomWalk},
      {0x22, "Engine Power", "kW", 0x50, 0x50, 100, 250, P::kRandomWalk},
      {0x23, "Fuel Consumption", "l/h", 0x10, 0x90, 0, 240, P::kRandomWalk},
      {0x31, "NOx Mass Flow", "mg/h", 0x28, 0xB8, 0, 255, P::kRandomWalk},
      {0x08, "Generic Scaled Value", "", 0x14, 0x94, 0, 255, P::kRandomWalk},
      {0x0F, "Idle Stabilization", "ms", 0x20, 0x20, 0, 255, P::kRandomWalk},
      {0x15, "Sensor Supply Voltage", "V", 0x60, 0x60, 40, 250,
       P::kRandomWalk},
  };
  return pool;
}

const std::vector<ActuatorTemplate>& actuator_templates() {
  static const std::vector<ActuatorTemplate> pool = {
      // Fog lights: one byte duration, one byte side (§4.5 example).
      {"Fog Light Left", {0x05, 0x01, 0x00, 0x00}},
      {"Fog Light Right", {0x03, 0x00, 0x00, 0x00}},
      {"High Beam", {0x01, 0x00, 0x00, 0x00}},
      {"Low Beam", {0x01, 0x00, 0x00, 0x00}},
      {"Turn Signal Left", {0x05, 0x01, 0x00, 0x00}},
      {"Turn Signal Right", {0x05, 0x02, 0x00, 0x00}},
      {"Front Wiper", {0x02, 0x00, 0x00, 0x00}},
      {"Rear Wiper", {0x02, 0x00, 0x00, 0x00}},
      {"Door Lock All", {0x01, 0x00, 0x00, 0x00}},
      {"Door Unlock All", {0x00, 0x00, 0x00, 0x00}},
      {"Trunk Release", {0x01, 0x00, 0x00, 0x00}},
      {"Window Driver", {0x64, 0x00, 0x00, 0x00}},
      {"Window Passenger", {0x64, 0x00, 0x00, 0x00}},
      {"Horn", {0x01, 0x00, 0x00, 0x00}},
      {"Fuel Pump Relay", {0x01, 0x00, 0x00, 0x00}},
      {"Radiator Fan", {0x50, 0x00, 0x00, 0x00}},
      {"Dashboard Illumination", {0x64, 0x00, 0x00, 0x00}},
      {"Central Lock", {0x01, 0x00, 0x00, 0x00}},
      {"Mirror Heater", {0x01, 0x00, 0x00, 0x00}},
      {"Seat Heater Left", {0x03, 0x00, 0x00, 0x00}},
      {"Seat Heater Right", {0x03, 0x00, 0x00, 0x00}},
      {"Sunroof", {0x32, 0x00, 0x00, 0x00}},
      {"Interior Light", {0x05, 0x00, 0x00, 0x00}},
      {"Idle Speed Actuator", {0x20, 0x00, 0x00, 0x00}},
      {"EGR Valve", {0x40, 0x00, 0x00, 0x00}},
      {"Throttle Actuator", {0x30, 0x00, 0x00, 0x00}},
      {"Tachometer Sweep", {0x10, 0x00, 0x00, 0x00}},
      {"Speedometer Sweep", {0x10, 0x00, 0x00, 0x00}},
      {"Washer Pump", {0x02, 0x00, 0x00, 0x00}},
      {"Headlight Range Motor", {0x14, 0x00, 0x00, 0x00}},
      {"Hazard Lights", {0x05, 0x00, 0x00, 0x00}},
      {"Exterior Mirror Fold", {0x01, 0x00, 0x00, 0x00}},
  };
  return pool;
}

namespace {

/// --- Per-car configuration (Tables 3, 6, 11) --------------------------------

struct CarConfig {
  CarId id;
  const char* label;
  const char* model;
  Protocol protocol;
  TransportKind transport;
  IoService io_service;
  const char* tool;
  std::size_t formula_count;  // Table 6 "#ESV (formula)"
  std::size_t enum_count;     // Table 6 "#ESV (Enum)"
  std::size_t ecr_count;      // Table 11 "#ECR" (0 = not in Table 11)
  bool attack_targets;        // used in Table 13 replay experiment
};

const std::array<CarConfig, 18>& car_configs() {
  static const std::array<CarConfig, 18> configs = {{
      {CarId::kA, "Car A", "Skoda Octavia", Protocol::kUds,
       TransportKind::kIsoTp, IoService::kUds2F, "LAUNCH X431", 28, 0, 11,
       false},
      {CarId::kB, "Car B", "Volkswagen Magotan", Protocol::kKwp2000,
       TransportKind::kVwTp20, IoService::kKwp30, "VCDS", 8, 0, 0, false},
      {CarId::kC, "Car C", "Volkswagen Lavida", Protocol::kKwp2000,
       TransportKind::kVwTp20, IoService::kKwp30, "LAUNCH X431", 5, 0, 0,
       false},
      {CarId::kD, "Car D", "Lexus NX300", Protocol::kUds,
       TransportKind::kIsoTp, IoService::kKwp30, "Techstream", 12, 5, 5,
       true},
      {CarId::kE, "Car E", "Mini Cooper R56", Protocol::kUds,
       TransportKind::kBmwFraming, IoService::kKwp30, "AUTEL 919", 5, 4, 3,
       false},
      {CarId::kF, "Car F", "Mini Cooper R59", Protocol::kUds,
       TransportKind::kBmwFraming, IoService::kKwp30, "AUTEL 919", 8, 5, 5,
       false},
      {CarId::kG, "Car G", "BMW i3", Protocol::kUds,
       TransportKind::kBmwFraming, IoService::kKwp30, "AUTEL 919", 5, 22, 0,
       true},
      {CarId::kH, "Car H", "RongWei MARVEL X", Protocol::kUds,
       TransportKind::kIsoTp, IoService::kUds2F, "AUTEL 919", 5, 13, 6,
       false},
      {CarId::kI, "Car I", "Changan Eado", Protocol::kUds,
       TransportKind::kIsoTp, IoService::kUds2F, "AUTEL 919", 11, 0, 10,
       false},
      {CarId::kJ, "Car J", "BMW 532Li", Protocol::kUds,
       TransportKind::kBmwFraming, IoService::kKwp30, "AUTEL 919", 20, 20,
       27, false},
      {CarId::kK, "Car K", "Volkswagen Passat", Protocol::kKwp2000,
       TransportKind::kIsoTp, IoService::kKwp30, "AUTEL 919", 41, 0, 0,
       false},
      {CarId::kL, "Car L", "Toyota Corolla", Protocol::kUds,
       TransportKind::kIsoTp, IoService::kKwp30, "AUTEL 919", 29, 20, 0,
       true},
      {CarId::kM, "Car M", "Peugeot 308", Protocol::kUds,
       TransportKind::kIsoTp, IoService::kUds2F, "AUTEL 919", 4, 14, 0,
       false},
      {CarId::kN, "Car N", "Kia k2 (UC)", Protocol::kUds,
       TransportKind::kIsoTp, IoService::kUds2F, "AUTEL 919", 26, 19, 21,
       true},
      {CarId::kO, "Car O", "Ford Kuga", Protocol::kUds,
       TransportKind::kIsoTp, IoService::kUds2F, "AUTEL 919", 18, 9, 4,
       false},
      {CarId::kP, "Car P", "Honda Accord", Protocol::kUds,
       TransportKind::kIsoTp, IoService::kUds2F, "AUTEL 919", 7, 6, 0,
       false},
      {CarId::kQ, "Car Q", "Nissan Teana", Protocol::kUds,
       TransportKind::kIsoTp, IoService::kKwp30, "AUTEL 919", 18, 17, 32,
       false},
      {CarId::kR, "Car R", "Audi A4L", Protocol::kUds,
       TransportKind::kIsoTp, IoService::kUds2F, "AUTEL 919", 40, 2, 0,
       false},
  }};
  return configs;
}

const char* ecu_name(std::size_t index) {
  static const std::array<const char*, 5> names = {
      "Engine", "Main Body", "ABS/ESP", "Instrument Cluster", "Gateway"};
  return names[index % names.size()];
}

/// Signals the paper singles out (Table 7 dashboard validation, Table 13
/// attack reads); installed at the front of the car's signal list.
std::vector<UdsSignalSpec> special_uds_signals(CarId id) {
  std::vector<UdsSignalSpec> specials;
  switch (id) {
    case CarId::kF:
      // Table 7: Car F engine speed, Y = X.
      specials.push_back(UdsSignalSpec{0, "Engine Speed", "rpm", 2,
                                       PropFormula::linear(1.0), 800, 6500,
                                       RawSignal::Pattern::kSine});
      break;
    case CarId::kL:
      // Table 7: Car L coolant temperature, Y = 0.5 X.
      specials.push_back(UdsSignalSpec{0, "Coolant Temperature", "degC", 1,
                                       PropFormula::linear(0.5), 100, 240,
                                       RawSignal::Pattern::kRandomWalk});
      break;
    case CarId::kR:
      // Table 7: Car R engine speed, Y = 64.1 X0 + 0.241 X1.
      {
        UdsSignalSpec spec{0, "Engine Speed", "rpm", 2,
                           PropFormula::two_byte(64.1, 0.241, 0.0),
                           0x0C00, 0x65FF, RawSignal::Pattern::kSine};
        spec.independent_bytes = true;
        specials.push_back(std::move(spec));
      }
      break;
    case CarId::kG:
      // Table 13: BMW i3 brake pressure / accelerator position reads.
      specials.push_back(UdsSignalSpec{0xDBE5, "Brake Pressure", "bar", 2,
                                       PropFormula::linear(0.01), 0, 25000,
                                       RawSignal::Pattern::kRandomWalk});
      specials.push_back(UdsSignalSpec{0xDE9C, "Accelerator Position", "%",
                                       1, PropFormula::linear(0.4), 0, 250,
                                       RawSignal::Pattern::kRandomWalk});
      break;
    default:
      break;
  }
  return specials;
}

/// Attack actuators of Table 13 for the four demo vehicles.
std::vector<ActuatorSpec> special_actuators(CarId id) {
  std::vector<ActuatorSpec> list;
  switch (id) {
    case CarId::kG:  // BMW i3: light controls (local-id service)
      list.push_back({0x31, "High Beam (FLEL)", {0x03, 0x00}});
      list.push_back({0x32, "Low Beam (FLEL)", {0x01, 0x00}});
      list.push_back({0x33, "Turn Light (KOMBI)", {0x13, 0x00}});
      break;
    case CarId::kD:  // Lexus NX300: cluster overrides
      list.push_back({0x01, "Displayed Speed (KOMBI)", {0x10, 0x00}});
      list.push_back({0x02, "Displayed Engine Speed (KOMBI)", {0x08, 0x00}});
      break;
    case CarId::kL:  // Toyota Corolla: body controls (service 0x30)
      list.push_back({0x11, "Unlock All Doors", {0x00, 0x00}});
      list.push_back({0x1C, "Front Wiper", {0x01, 0x00}});
      list.push_back({0x1D, "Trunk Unlock", {0x00, 0x00}});
      break;
    case CarId::kN:  // Kia k2: central lock / dashboard lights via 0x2F
      list.push_back({0xB003, "Central Lock", {0x01, 0x00}});
      list.push_back({0xB004, "Dashboard Lights", {0x01, 0x00}});
      break;
    default:
      break;
  }
  return list;
}

CarSpec build_car(const CarConfig& config) {
  CarSpec spec;
  spec.id = config.id;
  spec.label = config.label;
  spec.model = config.model;
  spec.protocol = config.protocol;
  spec.transport = config.transport;
  spec.io_service = config.io_service;
  spec.tool = config.tool;
  spec.formula_esv_count = config.formula_count;
  spec.enum_esv_count = config.enum_count;
  spec.ecr_count = config.ecr_count;

  util::Rng rng(0xD00D0000u + static_cast<std::uint64_t>(config.id));

  const std::size_t total_signals = config.formula_count + config.enum_count;
  const std::size_t n_ecus =
      std::max<std::size_t>(2, std::min<std::size_t>(4, total_signals / 10));
  for (std::size_t e = 0; e < n_ecus; ++e) {
    EcuSpec ecu;
    ecu.name = ecu_name(e);
    ecu.address = static_cast<std::uint8_t>(0x12 + 0x10 * e);
    if (config.transport == TransportKind::kBmwFraming) {
      ecu.request_id = 0x6F1;  // shared tester id; target in byte 0
      ecu.response_id = 0x640 + ecu.address;
    } else if (e == 0 && config.protocol == Protocol::kUds) {
      ecu.request_id = 0x7E0;
      ecu.response_id = 0x7E8;
    } else {
      ecu.request_id = 0x710 + 2 * static_cast<std::uint32_t>(e);
      ecu.response_id = ecu.request_id + 1;
    }
    ecu.supports_obd = (e == 0);
    spec.ecus.push_back(std::move(ecu));
  }

  // --- Readable signals ----------------------------------------------------
  if (config.protocol == Protocol::kUds) {
    std::vector<UdsSignalSpec> signals = special_uds_signals(config.id);
    const auto& pool = uds_signal_templates();
    // Offset the pool start per car so different cars get different mixes.
    std::size_t cursor = static_cast<std::size_t>(config.id) * 7;
    std::size_t consecutive_skips = 0;
    while (signals.size() < config.formula_count) {
      UdsSignalSpec sig;
      const auto& entry = pool[cursor % pool.size()];
      ++cursor;
      // Skip pool entries that duplicate an existing signal's name; once
      // a full pool pass yields nothing new (cars with more signals than
      // pool entries), reuse names with an index suffix instead.
      bool duplicate = false;
      for (const auto& s : signals) {
        if (s.name == entry.name) duplicate = true;
      }
      if (duplicate && ++consecutive_skips <= pool.size()) continue;
      consecutive_skips = 0;
      sig.name = duplicate ? std::string(entry.name) + " #" +
                                 std::to_string(signals.size())
                           : entry.name;
      sig.unit = entry.unit;
      sig.data_bytes = entry.bytes;
      sig.formula = entry.formula;
      sig.raw_lo = entry.lo;
      sig.raw_hi = entry.hi;
      sig.pattern = entry.pattern;
      sig.independent_bytes = entry.independent_bytes;
      signals.push_back(std::move(sig));
    }
    for (std::size_t i = 0; i < config.enum_count; ++i) {
      UdsSignalSpec sig;
      sig.name = enum_name_templates()[i % enum_name_templates().size()];
      sig.unit = "";
      sig.data_bytes = 1;
      sig.formula = PropFormula::enumeration();
      sig.raw_lo = 0;
      sig.raw_hi = static_cast<std::uint32_t>(1 + rng.uniform_int(0, 2));
      sig.pattern = RawSignal::Pattern::kToggle;
      signals.push_back(std::move(sig));
    }
    // Assign DIDs and distribute across ECUs round-robin (except signals
    // with pre-assigned DIDs, which stay as they are).
    for (std::size_t i = 0; i < signals.size(); ++i) {
      auto& sig = signals[i];
      const std::size_t ecu_index = i % spec.ecus.size();
      if (sig.did == 0) {
        sig.did = static_cast<uds::Did>(0xF400 + 0x40 * ecu_index + i);
      }
      spec.ecus[ecu_index].uds_signals.push_back(sig);
    }
  } else {
    // KWP car: group ESVs into measuring blocks of up to 4.
    const auto& pool = kwp_esv_templates();
    std::size_t cursor = static_cast<std::size_t>(config.id) * 3;
    std::vector<KwpEsvSpec> esvs;
    while (esvs.size() < config.formula_count) {
      const auto& entry = pool[cursor % pool.size()];
      ++cursor;
      bool duplicate = false;
      for (const auto& existing : esvs) {
        if (existing.name == entry.name) duplicate = true;
      }
      // Large KWP cars (Car K has 41 ESVs) exhaust the pool; allow reuse
      // with an index suffix once the pool wraps.
      KwpEsvSpec esv;
      esv.formula_type = entry.type;
      esv.name = duplicate ? std::string(entry.name) + " #" +
                                 std::to_string(esvs.size())
                           : entry.name;
      esv.unit = entry.unit;
      esv.x0_lo = entry.x0_lo;
      esv.x0_hi = entry.x0_hi;
      esv.x1_lo = entry.x1_lo;
      esv.x1_hi = entry.x1_hi;
      esv.pattern = entry.pattern;
      esvs.push_back(std::move(esv));
    }
    for (std::size_t i = 0; i < config.enum_count; ++i) {
      KwpEsvSpec esv;
      esv.formula_type = 0x11;  // status kind
      esv.name = enum_name_templates()[i % enum_name_templates().size()];
      esv.is_enum = true;
      esv.x0_lo = esv.x0_hi = 0x00;
      esv.x1_lo = 0;
      esv.x1_hi = 1;
      esv.pattern = RawSignal::Pattern::kToggle;
      esvs.push_back(std::move(esv));
    }
    // Measuring blocks of 4..8 ESVs (long multi-frame responses — the
    // KWP traffic shape Table 9 reports); local ids start at 0x01.
    std::uint8_t local_id = 0x01;
    std::size_t i = 0;
    std::size_t block_index = 0;
    while (i < esvs.size()) {
      KwpLocalIdSpec block;
      block.local_id = local_id++;
      block.group_name = "Measuring Block " + std::to_string(block.local_id);
      const std::size_t take = std::min<std::size_t>(
          esvs.size() - i, 4 + static_cast<std::size_t>(rng.uniform_int(0, 4)));
      for (std::size_t k = 0; k < take; ++k) block.esvs.push_back(esvs[i++]);
      spec.ecus[block_index % spec.ecus.size()].kwp_local_ids.push_back(
          std::move(block));
      ++block_index;
    }
  }

  // --- Actuators ------------------------------------------------------------
  std::vector<ActuatorSpec> actuators =
      config.attack_targets ? special_actuators(config.id)
                            : std::vector<ActuatorSpec>{};
  const auto& apool = actuator_templates();
  std::size_t acursor = static_cast<std::size_t>(config.id) * 5;
  std::size_t askips = 0;
  while (actuators.size() < config.ecr_count) {
    const auto& entry = apool[acursor % apool.size()];
    ++acursor;
    bool duplicate = false;
    for (const auto& a : actuators) {
      if (a.name == entry.name) duplicate = true;
    }
    if (duplicate && ++askips <= apool.size()) continue;
    askips = 0;
    ActuatorSpec act;
    act.name = duplicate ? std::string(entry.name) + " #" +
                               std::to_string(actuators.size())
                         : entry.name;
    act.example_state.assign(entry.state.begin(), entry.state.end());
    actuators.push_back(std::move(act));
  }
  for (std::size_t i = 0; i < actuators.size(); ++i) {
    auto& act = actuators[i];
    const std::size_t ecu_index = i % spec.ecus.size();
    if (act.id == 0) {
      act.id = config.io_service == IoService::kUds2F
                   ? static_cast<std::uint16_t>(0x0950 + 0x10 * i)
                   : static_cast<std::uint16_t>(0x30 + i);
    }
    spec.ecus[ecu_index].actuators.push_back(act);
  }

  return spec;
}

}  // namespace

const std::vector<CarSpec>& catalog() {
  static const std::vector<CarSpec> cars = [] {
    std::vector<CarSpec> list;
    for (const auto& config : car_configs()) list.push_back(build_car(config));
    return list;
  }();
  return cars;
}

const CarSpec& car_spec(CarId id) {
  for (const auto& spec : catalog()) {
    if (spec.id == id) return spec;
  }
  throw std::out_of_range("unknown car id");
}

std::uint64_t spec_digest(const CarSpec& spec) {
  using util::fnv1a64_f64;
  using util::fnv1a64_str;
  using util::fnv1a64_u64;
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.id), h);
  h = fnv1a64_str(spec.label, h);
  h = fnv1a64_str(spec.model, h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.protocol), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.transport), h);
  h = fnv1a64_u64(static_cast<std::uint64_t>(spec.io_service), h);
  h = fnv1a64_str(spec.tool, h);
  h = fnv1a64_u64(spec.formula_esv_count, h);
  h = fnv1a64_u64(spec.enum_esv_count, h);
  h = fnv1a64_u64(spec.ecr_count, h);
  h = fnv1a64_u64(spec.gen_seed, h);
  const auto fold_formula = [&](const PropFormula& f) {
    h = fnv1a64_u64(static_cast<std::uint64_t>(f.kind()), h);
    h = fnv1a64_f64(f.a(), h);
    h = fnv1a64_f64(f.b(), h);
    h = fnv1a64_f64(f.c(), h);
  };
  h = fnv1a64_u64(spec.ecus.size(), h);
  for (const auto& ecu : spec.ecus) {
    h = fnv1a64_str(ecu.name, h);
    h = fnv1a64_u64(ecu.address, h);
    h = fnv1a64_u64(ecu.request_id, h);
    h = fnv1a64_u64(ecu.response_id, h);
    h = fnv1a64_u64(ecu.supports_obd ? 1 : 0, h);
    h = fnv1a64_u64(ecu.uds_signals.size(), h);
    for (const auto& sig : ecu.uds_signals) {
      h = fnv1a64_u64(sig.did, h);
      h = fnv1a64_str(sig.name, h);
      h = fnv1a64_str(sig.unit, h);
      h = fnv1a64_u64(sig.data_bytes, h);
      fold_formula(sig.formula);
      h = fnv1a64_u64(sig.raw_lo, h);
      h = fnv1a64_u64(sig.raw_hi, h);
      h = fnv1a64_u64(static_cast<std::uint64_t>(sig.pattern), h);
      h = fnv1a64_u64(sig.independent_bytes ? 1 : 0, h);
    }
    h = fnv1a64_u64(ecu.kwp_local_ids.size(), h);
    for (const auto& block : ecu.kwp_local_ids) {
      h = fnv1a64_u64(block.local_id, h);
      h = fnv1a64_str(block.group_name, h);
      h = fnv1a64_u64(block.esvs.size(), h);
      for (const auto& esv : block.esvs) {
        h = fnv1a64_u64(esv.formula_type, h);
        h = fnv1a64_str(esv.name, h);
        h = fnv1a64_str(esv.unit, h);
        h = fnv1a64_u64(esv.x0_lo, h);
        h = fnv1a64_u64(esv.x0_hi, h);
        h = fnv1a64_u64(esv.x1_lo, h);
        h = fnv1a64_u64(esv.x1_hi, h);
        h = fnv1a64_u64(static_cast<std::uint64_t>(esv.pattern), h);
        h = fnv1a64_u64(esv.is_enum ? 1 : 0, h);
      }
    }
    h = fnv1a64_u64(ecu.actuators.size(), h);
    for (const auto& act : ecu.actuators) {
      h = fnv1a64_u64(act.id, h);
      h = fnv1a64_str(act.name, h);
      h = fnv1a64_u64(act.example_state.size(), h);
      for (const std::uint8_t byte : act.example_state) {
        h = fnv1a64_u64(byte, h);
      }
    }
  }
  return h;
}

std::uint64_t car_stream_salt(const CarSpec& spec) {
  // Weyl-step the gen_seed so generated cars with adjacent seeds still get
  // well-separated salts; gen_seed == 0 reproduces the pre-generator
  // catalog salts exactly.
  return static_cast<std::uint64_t>(spec.id) +
         0x9E3779B97F4A7C15ULL * spec.gen_seed;
}

void validate_spec(const CarSpec& spec) {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument("invalid car spec '" + spec.label +
                                "': " + what);
  };
  if (spec.ecus.empty()) fail("no ECUs");

  std::set<std::uint32_t> addresses, request_ids, response_ids;
  std::set<std::uint16_t> dids, actuator_ids;
  std::set<std::uint8_t> local_ids;
  const bool shared_tester =
      spec.transport == TransportKind::kBmwFraming;  // one tester id, 0x6F1
  for (std::size_t e = 0; e < spec.ecus.size(); ++e) {
    const auto& ecu = spec.ecus[e];
    if (!addresses.insert(ecu.address).second) {
      fail("duplicate ECU address " + std::to_string(ecu.address));
    }
    if (ecu.request_id == ecu.response_id) {
      fail("request id equals response id on " + ecu.name);
    }
    if (!request_ids.insert(ecu.request_id).second && !shared_tester) {
      fail("duplicate request CAN id on " + ecu.name);
    }
    if (!response_ids.insert(ecu.response_id).second) {
      fail("duplicate response CAN id on " + ecu.name);
    }
    // 0x7DF/0x7E8 carry the SAE J1979 functional query and its reply;
    // only the OBD-capable engine ECU may sit on them.
    if (ecu.request_id == 0x7DF || ecu.response_id == 0x7DF) {
      fail("ECU on the OBD functional id 0x7DF");
    }
    if (!ecu.supports_obd &&
        (ecu.request_id == 0x7E8 || ecu.response_id == 0x7E8)) {
      fail("non-OBD ECU on the OBD response id 0x7E8");
    }
    for (const auto& sig : ecu.uds_signals) {
      if (!dids.insert(sig.did).second) {
        fail("duplicate DID " + std::to_string(sig.did));
      }
    }
    for (const auto& block : ecu.kwp_local_ids) {
      if (!local_ids.insert(block.local_id).second) {
        fail("duplicate KWP local id " + std::to_string(block.local_id));
      }
    }
    for (const auto& act : ecu.actuators) {
      if (!actuator_ids.insert(act.id).second) {
        fail("duplicate actuator id " + std::to_string(act.id));
      }
    }
  }
  if (spec.io_service == IoService::kUds2F &&
      spec.protocol != Protocol::kUds) {
    fail("UDS 0x2F IO service on a non-UDS car");
  }
}

}  // namespace dpr::vehicle
