#pragma once
// Proprietary KWP 2000 formula-type table (the first byte of each 3-byte
// ESV record selects the formula applied to X0, X1 — §2.3.1).
//
// These mappings are not in the ISO standard; real tables ship inside VAG
// diagnostic tools. This registry plays the role of the "document
// containing the formulas ... provided by an experienced vehicle
// researcher" the paper uses as KWP ground truth (§4.3). The entries are
// modeled on the well-known VAG measuring-block types, including the
// paper's own example (type 0x01: X0*X1/5 -> engine RPM).

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace dpr::kwp {

enum class FormulaKind {
  kNumeric,   // real-valued formula over X0, X1
  kEnum,      // status / bitfield: no formula to infer (§4.3 "#ESV (Enum)")
};

struct FormulaSpec {
  std::uint8_t type = 0;
  FormulaKind kind = FormulaKind::kNumeric;
  std::string expression;  // human-readable ground truth, e.g. "X0*X1/5"
  std::string unit;
  std::function<double(double x0, double x1)> eval;
};

/// Full registry of modeled formula types.
const std::vector<FormulaSpec>& formula_table();

/// Look up a formula type byte; nullopt for unknown types.
std::optional<FormulaSpec> find_formula(std::uint8_t type);

/// Decode one ESV record to its physical value (nullopt for enum kinds or
/// unknown types).
std::optional<double> decode_esv(std::uint8_t type, std::uint8_t x0,
                                 std::uint8_t x1);

}  // namespace dpr::kwp
