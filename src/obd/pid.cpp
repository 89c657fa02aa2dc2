#include "obd/pid.hpp"

#include <algorithm>
#include <cmath>

namespace dpr::obd {

namespace {

std::uint8_t clamp_byte(double v) {
  return static_cast<std::uint8_t>(
      std::clamp(std::llround(v), 0LL, 255LL));
}

PidSpec one_byte(std::uint8_t pid, std::string name, std::string unit,
                 std::string formula, double scale, double offset,
                 double min_v, double max_v) {
  PidSpec spec;
  spec.pid = pid;
  spec.name = std::move(name);
  spec.unit = std::move(unit);
  spec.data_bytes = 1;
  spec.formula = std::move(formula);
  spec.min_value = min_v;
  spec.max_value = max_v;
  spec.decode = [scale, offset](std::span<const std::uint8_t> d) {
    return static_cast<double>(d[0]) * scale + offset;
  };
  spec.encode = [scale, offset](double v) {
    return util::Bytes{clamp_byte((v - offset) / scale)};
  };
  return spec;
}

/// A two-byte PID, Y = (256*X0 + X1) / divisor, from 0.
PidSpec two_byte(std::uint8_t pid, std::string name, std::string unit,
                 std::string formula, double divisor, double max_v) {
  PidSpec spec;
  spec.pid = pid;
  spec.name = std::move(name);
  spec.unit = std::move(unit);
  spec.data_bytes = 2;
  spec.formula = std::move(formula);
  spec.min_value = 0.0;
  spec.max_value = max_v;
  spec.decode = [divisor](std::span<const std::uint8_t> d) {
    return (256.0 * d[0] + d[1]) / divisor;
  };
  spec.encode = [divisor](double v) {
    const long long raw =
        std::clamp(std::llround(v * divisor), 0LL, 65535LL);
    return util::Bytes{static_cast<std::uint8_t>(raw >> 8),
                       static_cast<std::uint8_t>(raw & 0xFF)};
  };
  return spec;
}

}  // namespace

const std::vector<PidSpec>& pid_table() {
  static const std::vector<PidSpec> table = [] {
    std::vector<PidSpec> t;

    // Table 5 row 1: absolute throttle position, Y = X / 2.55 (%).
    t.push_back(one_byte(0x11, "Absolute Throttle Position", "%", "X/2.55",
                         1.0 / 2.55, 0.0, 0.0, 100.0));
    // Table 5 row 2: calculated engine load, Y = X / 2.55 (%).
    t.push_back(one_byte(0x04, "Calculated Engine Load", "%", "X/2.55",
                         1.0 / 2.55, 0.0, 0.0, 100.0));
    // Table 5 row 3: fuel tank level input, Y = 100/255 * X (%).
    t.push_back(one_byte(0x2F, "Fuel Tank Level Input", "%", "0.392*X",
                         100.0 / 255.0, 0.0, 0.0, 100.0));
    // Table 5 row 4: engine RPM, Y = (256*X0 + X1) / 4.
    t.push_back(two_byte(0x0C, "Engine Speed", "rpm", "(256*X0+X1)/4", 4.0,
                         16383.75));
    // Table 5 row 5: vehicle speed, Y = X (km/h).
    t.push_back(one_byte(0x0D, "Vehicle Speed", "km/h", "X", 1.0, 0.0, 0.0,
                         255.0));
    // Table 5 row 6: engine coolant temperature, Y = X - 40 (degC).
    t.push_back(one_byte(0x05, "Engine Coolant Temperature", "degC", "X-40",
                         1.0, -40.0, -40.0, 215.0));
    // Table 5 row 7: intake manifold absolute pressure, Y = X (kPa).
    t.push_back(one_byte(0x0B, "Intake Manifold Absolute Pressure", "kPa",
                         "X", 1.0, 0.0, 0.0, 255.0));

    // Additional common mode-01 PIDs (used by the OBD-II app corpus and
    // the §9.4 alignment).
    t.push_back(one_byte(0x0F, "Intake Air Temperature", "degC", "X-40", 1.0,
                         -40.0, -40.0, 215.0));
    t.push_back(one_byte(0x0A, "Fuel Pressure", "kPa", "3*X", 3.0, 0.0, 0.0,
                         765.0));
    t.push_back(one_byte(0x33, "Absolute Barometric Pressure", "kPa", "X",
                         1.0, 0.0, 0.0, 255.0));
    t.push_back(one_byte(0x46, "Ambient Air Temperature", "degC", "X-40",
                         1.0, -40.0, -40.0, 215.0));
    t.push_back(one_byte(0x5C, "Engine Oil Temperature", "degC", "X-40", 1.0,
                         -40.0, -40.0, 215.0));
    t.push_back(two_byte(0x10, "MAF Air Flow Rate", "g/s", "(256*X0+X1)/100",
                         100.0, 655.35));
    t.push_back(two_byte(0x42, "Control Module Voltage", "V",
                         "(256*X0+X1)/1000", 1000.0, 65.535));
    t.push_back(one_byte(0x2C, "Commanded EGR", "%", "X/2.55", 1.0 / 2.55,
                         0.0, 0.0, 100.0));
    t.push_back(one_byte(0x45, "Relative Throttle Position", "%", "X/2.55",
                         1.0 / 2.55, 0.0, 0.0, 100.0));
    t.push_back(one_byte(0x0E, "Timing Advance", "deg", "X/2-64", 0.5, -64.0,
                         -64.0, 63.5));
    return t;
  }();
  return table;
}

std::optional<PidSpec> find_pid(std::uint8_t pid) {
  for (const auto& spec : pid_table()) {
    if (spec.pid == pid) return spec;
  }
  return std::nullopt;
}

util::Bytes encode_request(std::uint8_t pid) {
  return {kModeCurrentData, pid};
}

util::Bytes encode_response(std::uint8_t pid,
                            std::span<const std::uint8_t> data) {
  util::Bytes out;
  out.reserve(2 + data.size());
  out.push_back(
      static_cast<std::uint8_t>(kModeCurrentData + kPositiveOffset));
  out.push_back(pid);
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

std::optional<Response> decode_response(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 3 ||
      payload[0] != kModeCurrentData + kPositiveOffset) {
    return std::nullopt;
  }
  Response resp;
  resp.pid = payload[1];
  resp.data.assign(payload.begin() + 2, payload.end());
  return resp;
}

std::optional<double> decode_value(std::span<const std::uint8_t> payload) {
  const auto resp = decode_response(payload);
  if (!resp) return std::nullopt;
  const auto spec = find_pid(resp->pid);
  if (!spec || resp->data.size() < spec->data_bytes) return std::nullopt;
  return spec->decode(
      std::span<const std::uint8_t>(resp->data.data(), spec->data_bytes));
}

}  // namespace dpr::obd
