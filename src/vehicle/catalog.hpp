#pragma once
// Per-vehicle specification catalog: Cars A-R of Table 3, with signal and
// actuator inventories sized to match the paper's evaluation (Table 6 ESV
// counts, Table 11 ECR counts). Each spec is generated deterministically
// from the car id, drawing names/formulas from realistic automotive pools.
// The same pools back vehicle::Generator, which synthesizes arbitrary
// fleets beyond the 18 pre-baked specs.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "frames/analysis.hpp"
#include "uds/message.hpp"
#include "util/hex.hpp"
#include "vehicle/formula.hpp"
#include "vehicle/signal.hpp"

namespace dpr::vehicle {

enum class CarId {
  kA, kB, kC, kD, kE, kF, kG, kH, kI, kJ, kK, kL, kM, kN, kO, kP, kQ, kR,
};

enum class Protocol { kUds, kKwp2000 };

/// The car's transport layer is the analyst's transport hint: one enum,
/// so the campaign hands the spec's value to the frame analysis as is.
using TransportKind = frames::TransportHint;

/// Which IO-control service the vehicle's ECUs expose (Table 11: five
/// cars use UDS 0x2F, five use the local-identifier service 0x30).
enum class IoService { kUds2F, kKwp30 };

/// One readable UDS data identifier.
struct UdsSignalSpec {
  uds::Did did = 0;
  std::string name;
  std::string unit;
  std::size_t data_bytes = 1;
  PropFormula formula;       // kEnum for the "#ESV (Enum)" rows
  std::uint32_t raw_lo = 0;  // raw-count dynamics
  std::uint32_t raw_hi = 255;
  RawSignal::Pattern pattern = RawSignal::Pattern::kRandomWalk;
  /// Two-byte signals whose bytes are *separate* physical quantities
  /// (product/two-variable formulas): each byte evolves independently
  /// within its own [raw_lo, raw_hi] sub-range instead of forming one
  /// 16-bit counter.
  bool independent_bytes = false;
};

/// One 3-byte KWP ESV inside a measuring block. The scaling byte X0 is
/// constant when x0_lo == x0_hi (the common case the paper observes, e.g.
/// vehicle speed with X0 pinned to 0x64); a few signals vary both bytes.
struct KwpEsvSpec {
  std::uint8_t formula_type = 0;  // index into kwp::formula_table
  std::string name;
  std::string unit;
  std::uint8_t x0_lo = 0x64;
  std::uint8_t x0_hi = 0x64;
  std::uint8_t x1_lo = 0;
  std::uint8_t x1_hi = 255;
  RawSignal::Pattern pattern = RawSignal::Pattern::kRandomWalk;
  bool is_enum = false;
};

/// A KWP local identifier (measuring block) grouping 1..4 ESVs (Fig. 3).
struct KwpLocalIdSpec {
  std::uint8_t local_id = 0;
  std::string group_name;
  std::vector<KwpEsvSpec> esvs;
};

/// One controllable component.
struct ActuatorSpec {
  std::uint16_t id = 0;  // DID (UDS 0x2F) or local id (service 0x30)
  std::string name;
  util::Bytes example_state;  // control-state bytes for shortTermAdjustment
};

struct EcuSpec {
  std::string name;  // "Engine", "Main Body", "ABS", ...
  std::uint8_t address = 0;        // logical address (VW TP / BMW framing)
  std::uint32_t request_id = 0;    // ISO-TP request CAN id
  std::uint32_t response_id = 0;   // ISO-TP response CAN id
  bool supports_obd = false;       // engine ECU also answers SAE J1979
  std::vector<UdsSignalSpec> uds_signals;
  std::vector<KwpLocalIdSpec> kwp_local_ids;
  std::vector<ActuatorSpec> actuators;
};

struct CarSpec {
  CarId id = CarId::kA;
  std::string label;    // "Car A"
  std::string model;    // "Skoda Octavia"
  Protocol protocol = Protocol::kUds;
  TransportKind transport = TransportKind::kIsoTp;
  IoService io_service = IoService::kUds2F;
  std::string tool;     // diagnostic tool used in the paper (Table 3)
  std::vector<EcuSpec> ecus;

  /// Totals across ECUs (mirroring Tables 6 and 11).
  std::size_t formula_esv_count = 0;
  std::size_t enum_esv_count = 0;
  std::size_t ecr_count = 0;

  /// Nonzero for procedurally generated cars (vehicle::Generator): the
  /// generator seed, folded into the per-car RNG stream salt so two
  /// generated cars never share dynamics/fault streams. 0 for the 18
  /// hand-built catalog cars, which keeps their streams bit-identical to
  /// pre-generator builds.
  std::uint64_t gen_seed = 0;
};

/// The full 18-car catalog; built once, deterministic.
const std::vector<CarSpec>& catalog();

const CarSpec& car_spec(CarId id);

/// FNV-1a 64 over every semantic field of a spec (label, model, protocol
/// stack, every ECU's addressing/signal/actuator tables, gen_seed).
/// Campaign checkpoints and fleet bookkeeping key on this digest, so a
/// generated car resumes exactly like a catalog car; two specs collide
/// only if they are byte-for-byte the same vehicle.
std::uint64_t spec_digest(const CarSpec& spec);

/// Per-car salt for derived RNG streams (signal dynamics, fault
/// injection). Catalog cars salt by id exactly as before the generator
/// existed; generated cars additionally fold in gen_seed.
std::uint64_t car_stream_salt(const CarSpec& spec);

/// Structural invariants every spec must satisfy for the simulator and
/// the ground-truth scorer to behave: unique ECU addresses, unique
/// response CAN ids, unique request ids (except the deliberately shared
/// BMW tester id 0x6F1), no collisions with the OBD functional ids, and
/// car-globally unique DIDs / KWP local ids / actuator ids. Throws
/// std::invalid_argument naming the first violation.
void validate_spec(const CarSpec& spec);

/// --- Template pools --------------------------------------------------------
// The realistic signal/actuator inventories both the hand-built catalog
// and vehicle::Generator draw from. Formula templates cover every
// PropFormula family (linear/quadratic/two-byte/product) plus the KWP
// formula-type table.

struct UdsSignalTemplate {
  const char* name;
  const char* unit;
  std::size_t bytes;
  PropFormula formula;
  std::uint32_t lo, hi;
  RawSignal::Pattern pattern;
  bool independent_bytes = false;
};

struct KwpEsvTemplate {
  std::uint8_t type;  // index into kwp::formula_table
  const char* name;
  const char* unit;
  std::uint8_t x0_lo, x0_hi;
  std::uint8_t x1_lo, x1_hi;
  RawSignal::Pattern pattern;
};

struct ActuatorTemplate {
  const char* name;
  std::array<std::uint8_t, 4> state;  // example shortTermAdjustment state
};

const std::vector<UdsSignalTemplate>& uds_signal_templates();
const std::vector<KwpEsvTemplate>& kwp_esv_templates();
const std::vector<const char*>& enum_name_templates();
const std::vector<ActuatorTemplate>& actuator_templates();

}  // namespace dpr::vehicle
