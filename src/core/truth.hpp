#pragma once
// The simulator's ground truth for what a campaign reports: the decode
// formula behind each signal finding, the raw operand domain its spec
// declares, and the car's actuator ids. Campaign::score_findings judges
// findings with it, and the out-of-sample accuracy count re-judges GP's
// formulas on a grid over each declared domain. It reads vehicle specs,
// so it stays out of core/analysis.* (the analysis_reads_no_vehicle
// ctest).

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "correlate/correlate.hpp"
#include "regress/regress.hpp"
#include "vehicle/catalog.hpp"

namespace dpr::core {

struct CampaignReport;

/// The raw operands a signal's spec lets it take.
struct RawDomain {
  enum class Kind {
    kOneByte,   ///< UDS, one byte: X over [lo, hi]
    kWord,      ///< UDS, two bytes forming one big-endian quantity
    kLattice,   ///< two independent operands: X0 and X1 each over a range
  };
  Kind kind = Kind::kOneByte;
  std::uint32_t lo = 0, hi = 0;  // kOneByte, kWord
  std::uint8_t x0_lo = 0, x0_hi = 0, x1_lo = 0, x1_hi = 0;  // kLattice
};

/// Operand points covering `domain`, for regress::relative_error (the
/// targets stay 0): every integer for one byte, 512 even steps split
/// big-endian into X0 = v >> 8 and X1 = v & 0xFF for a word, and a 25x25
/// lattice rounded to integers for two independent operands.
correlate::Dataset domain_grid(const RawDomain& domain);

/// One finding's ground truth.
struct SignalTruth {
  bool is_enum = false;
  std::string formula;      ///< rendered, e.g. "0.1*X - 40"
  regress::Formula eval;    ///< raw operands -> displayed value
  RawDomain domain;
};

/// A car's ground truth, indexed once. It points into `spec`, which must
/// outlive it.
class GroundTruth {
 public:
  explicit GroundTruth(const vehicle::CarSpec& spec);

  /// The catalog signal behind `finding` (by DID, or by local id and ESV
  /// index, the last catalog match winning); nullopt when there is none.
  std::optional<SignalTruth> signal(const SignalFinding& finding) const;
  bool has_actuator(std::uint16_t id) const {
    return actuator_ids_.count(id) > 0;
  }

 private:
  std::map<std::uint16_t, const vehicle::UdsSignalSpec*> uds_;
  std::map<std::uint8_t, std::vector<const vehicle::KwpLocalIdSpec*>> kwp_;
  std::set<std::uint16_t> actuator_ids_;
};

/// How many of `report`'s GP-correct formulas also pass `recovered` on
/// the grid over their declared raw domain (`spec` is the car `report`
/// describes).
std::size_t gp_correct_out_of_sample(const CampaignReport& report,
                                     const vehicle::CarSpec& spec);

}  // namespace dpr::core
