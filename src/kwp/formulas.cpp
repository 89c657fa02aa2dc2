#include "kwp/formulas.hpp"

#include <cmath>

namespace dpr::kwp {

const std::vector<FormulaSpec>& formula_table() {
  static const std::vector<FormulaSpec> table = {
      // The paper's worked example (§2.3.1): engine RPM, "01 F1 10" -> 771.2.
      {0x01, FormulaKind::kNumeric, "X0*X1/5", "rpm",
       [](double x0, double x1) { return x0 * x1 / 5.0; }},
      {0x02, FormulaKind::kNumeric, "X0*X1*0.002", "%",
       [](double x0, double x1) { return x0 * x1 * 0.002; }},
      {0x03, FormulaKind::kNumeric, "X0*X1*0.002", "deg",
       [](double x0, double x1) { return x0 * x1 * 0.002; }},
      {0x05, FormulaKind::kNumeric, "X0*(X1-100)*0.1", "degC",
       [](double x0, double x1) { return x0 * (x1 - 100.0) * 0.1; }},
      {0x06, FormulaKind::kNumeric, "X0*X1*0.001", "V",
       [](double x0, double x1) { return x0 * x1 * 0.001; }},
      // Vehicle speed: the paper notes ground truth has two variables but
      // X0 is pinned to 0x64 (100) in traffic, collapsing to Y = X1.
      {0x07, FormulaKind::kNumeric, "X0*X1*0.01", "km/h",
       [](double x0, double x1) { return x0 * x1 * 0.01; }},
      {0x08, FormulaKind::kNumeric, "X0*X1*0.1", "",
       [](double x0, double x1) { return x0 * x1 * 0.1; }},
      {0x0A, FormulaKind::kNumeric, "(X1-X0)*0.1", "kPa",
       [](double x0, double x1) { return (x1 - x0) * 0.1; }},
      {0x0F, FormulaKind::kNumeric, "X0*X1*0.01", "ms",
       [](double x0, double x1) { return x0 * x1 * 0.01; }},
      {0x11, FormulaKind::kEnum, "", "",  // ASCII/status pair
       [](double, double) { return 0.0; }},
      {0x12, FormulaKind::kNumeric, "X0*X1*0.04", "mbar",
       [](double x0, double x1) { return x0 * x1 * 0.04; }},
      {0x13, FormulaKind::kNumeric, "X0*X1*0.01", "l",
       [](double x0, double x1) { return x0 * x1 * 0.01; }},
      {0x15, FormulaKind::kNumeric, "X0*X1*0.001", "V",
       [](double x0, double x1) { return x0 * x1 * 0.001; }},
      {0x16, FormulaKind::kNumeric, "X0*X1*0.001", "ms",
       [](double x0, double x1) { return x0 * x1 * 0.001; }},
      // Torque assistance (§4.3): sign selected by X1 around 0x80.
      {0x17, FormulaKind::kNumeric, "X0*(X1-128)*0.001", "Nm",
       [](double x0, double x1) { return x0 * (x1 - 128.0) * 0.001; }},
      {0x19, FormulaKind::kNumeric, "X0*X1/182", "g/s",
       [](double x0, double x1) { return x0 * x1 / 182.0; }},
      {0x1A, FormulaKind::kNumeric, "X1-X0", "degC",
       [](double x0, double x1) { return x1 - x0; }},
      {0x1B, FormulaKind::kNumeric, "X0*(X1-128)*0.01", "deg",
       [](double x0, double x1) { return x0 * (x1 - 128.0) * 0.01; }},
      {0x1F, FormulaKind::kEnum, "", "",  // bitfield
       [](double, double) { return 0.0; }},
      {0x21, FormulaKind::kNumeric, "X0*X1/100 (X0=0 -> X1)", "%",
       [](double x0, double x1) { return x0 == 0.0 ? x1 : x0 * x1 / 100.0; }},
      {0x22, FormulaKind::kNumeric, "(X1-128)*X0/100", "kW",
       [](double x0, double x1) { return (x1 - 128.0) * x0 / 100.0; }},
      {0x23, FormulaKind::kNumeric, "X0*X1/100", "l/h",
       [](double x0, double x1) { return x0 * x1 / 100.0; }},
      {0x24, FormulaKind::kNumeric, "X0*2560 + X1*10", "km",
       [](double x0, double x1) { return x0 * 2560.0 + x1 * 10.0; }},
      {0x2F, FormulaKind::kNumeric, "X1-128", "min",
       [](double, double x1) { return x1 - 128.0; }},
      {0x31, FormulaKind::kNumeric, "X0*X1/40", "mg/h",
       [](double x0, double x1) { return x0 * x1 / 40.0; }},
  };
  return table;
}

std::optional<FormulaSpec> find_formula(std::uint8_t type) {
  for (const auto& spec : formula_table()) {
    if (spec.type == type) return spec;
  }
  return std::nullopt;
}

std::optional<double> decode_esv(std::uint8_t type, std::uint8_t x0,
                                 std::uint8_t x1) {
  const auto spec = find_formula(type);
  if (!spec || spec->kind != FormulaKind::kNumeric) return std::nullopt;
  return spec->eval(x0, x1);
}

}  // namespace dpr::kwp
