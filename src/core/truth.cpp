#include "core/truth.hpp"

#include <cmath>

#include "core/campaign.hpp"
#include "gp/engine.hpp"
#include "kwp/formulas.hpp"

namespace dpr::core {

namespace {

/// `count` values from lo to hi in even steps, rounded to integers.
std::vector<double> even_steps(double lo, double hi, int count) {
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    values.push_back(std::round(lo + (hi - lo) * i / (count - 1)));
  }
  return values;
}

}  // namespace

correlate::Dataset domain_grid(const RawDomain& domain) {
  correlate::Dataset grid;
  const auto add = [&grid](std::vector<double> xs) {
    grid.points.push_back(correlate::DataPoint{std::move(xs), 0.0});
  };
  switch (domain.kind) {
    case RawDomain::Kind::kOneByte:
      grid.n_vars = 1;
      for (std::uint32_t v = domain.lo; v <= domain.hi; ++v) {
        add({static_cast<double>(v)});
      }
      break;
    case RawDomain::Kind::kWord:
      grid.n_vars = 2;
      for (const double v : even_steps(domain.lo, domain.hi, 512)) {
        const auto word = static_cast<std::uint32_t>(v);
        add({static_cast<double>(word >> 8), static_cast<double>(word & 0xFF)});
      }
      break;
    case RawDomain::Kind::kLattice:
      grid.n_vars = 2;
      for (const double x0 : even_steps(domain.x0_lo, domain.x0_hi, 25)) {
        for (const double x1 : even_steps(domain.x1_lo, domain.x1_hi, 25)) {
          add({x0, x1});
        }
      }
      break;
  }
  return grid;
}

GroundTruth::GroundTruth(const vehicle::CarSpec& spec) {
  // Later catalog entries overwrite earlier ones, as a scan keeping the
  // last match would.
  for (const auto& ecu : spec.ecus) {
    for (const auto& sig : ecu.uds_signals) uds_[sig.did] = &sig;
    for (const auto& block : ecu.kwp_local_ids) {
      kwp_[block.local_id].push_back(&block);
    }
    for (const auto& act : ecu.actuators) actuator_ids_.insert(act.id);
  }
}

std::optional<SignalTruth> GroundTruth::signal(
    const SignalFinding& finding) const {
  std::optional<SignalTruth> truth;
  if (!finding.is_kwp) {
    const auto it = uds_.find(finding.did);
    if (it == uds_.end()) return truth;
    const auto& sig = *it->second;
    truth.emplace();
    truth->is_enum = sig.formula.is_enum();
    truth->formula = sig.formula.repr();
    const vehicle::PropFormula formula = sig.formula;
    truth->eval = [formula](std::span<const double> xs) {
      std::vector<std::uint8_t> bytes;
      bytes.reserve(xs.size());
      for (double x : xs) bytes.push_back(static_cast<std::uint8_t>(x));
      return formula.eval(bytes);
    };
    auto& domain = truth->domain;
    if (sig.data_bytes < 2) {
      domain.kind = RawDomain::Kind::kOneByte;
      domain.lo = sig.raw_lo;
      domain.hi = sig.raw_hi;
    } else if (!sig.independent_bytes) {
      domain.kind = RawDomain::Kind::kWord;
      domain.lo = sig.raw_lo;
      domain.hi = sig.raw_hi;
    } else {
      // Each byte evolves within its own sub-range of [raw_lo, raw_hi].
      domain.kind = RawDomain::Kind::kLattice;
      domain.x0_lo = static_cast<std::uint8_t>(sig.raw_lo >> 8);
      domain.x0_hi = static_cast<std::uint8_t>(sig.raw_hi >> 8);
      domain.x1_lo = static_cast<std::uint8_t>(sig.raw_lo & 0xFF);
      domain.x1_hi = static_cast<std::uint8_t>(sig.raw_hi & 0xFF);
    }
    return truth;
  }
  const auto it = kwp_.find(finding.local_id);
  if (it == kwp_.end()) return truth;
  // The esv_index range check depends on the finding, so walk this local
  // id's (few) blocks in catalog order, the last match winning.
  for (const auto* block : it->second) {
    if (finding.esv_index >= block->esvs.size()) continue;
    const auto& esv = block->esvs[finding.esv_index];
    truth.emplace();
    truth->is_enum = esv.is_enum;
    const auto kwp_spec = kwp::find_formula(esv.formula_type);
    truth->formula = kwp_spec ? kwp_spec->expression : "?";
    const std::uint8_t type = esv.formula_type;
    truth->eval = [type](std::span<const double> xs) {
      if (xs.size() < 2) return 0.0;
      const auto value =
          kwp::decode_esv(type, static_cast<std::uint8_t>(xs[0]),
                          static_cast<std::uint8_t>(xs[1]));
      return value.value_or(0.0);
    };
    truth->domain = RawDomain{.kind = RawDomain::Kind::kLattice,
                              .x0_lo = esv.x0_lo,
                              .x0_hi = esv.x0_hi,
                              .x1_lo = esv.x1_lo,
                              .x1_hi = esv.x1_hi};
  }
  return truth;
}

std::size_t gp_correct_out_of_sample(const CampaignReport& report,
                                     const vehicle::CarSpec& spec) {
  const GroundTruth truths(spec);
  std::size_t held = 0;
  for (const auto& finding : report.signals) {
    if (!finding.gp_correct) continue;
    const auto truth = truths.signal(finding);
    if (truth && recovered(gp::relative_error(
                     *finding.gp, domain_grid(truth->domain), truth->eval))) {
      ++held;
    }
  }
  return held;
}

}  // namespace dpr::core
