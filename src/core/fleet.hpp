#pragma once
// Fleet-level campaign parallelism: every car in the Table 3 catalog is a
// fully independent reverse-engineering problem (own bus, clock, vehicle,
// tool, OCR state, RNG streams), so the 18-campaign reproduction fans out
// over a util::ThreadPool one level above the per-signal GP batches.
//
// Thread budget: the fleet owns a single pool and injects it into each
// campaign (CampaignOptions::infer_pool) so inner GP batches re-enter the
// *same* workers instead of spawning their own — one shared budget for
// the whole machine, never fleet_threads x infer_threads
// oversubscription. parallel_for is caller-participating, so the nesting
// is deadlock-free.
//
// Determinism: a campaign's findings depend only on (car, options, seed) —
// never on which worker runs it or how GP jobs interleave — so the fleet
// report list is bit-identical to the plain serial loop for every thread
// count. Results are collected concurrently into a pre-sized slot per car
// and always reported in input (catalog) order.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "vehicle/catalog.hpp"

namespace dpr::core {

struct FleetOptions {
  /// Concurrent campaigns: 0 = hardware concurrency, 1 = serial loop
  /// (no pool at all).
  std::size_t fleet_threads = 0;
  /// Per-campaign options (seed, windows, GP config, ...), applied to
  /// every car.
  CampaignOptions campaign;
};

struct FleetSummary {
  std::vector<CampaignReport> reports;  // one per input car, input order
  std::size_t threads_used = 1;
  double wall_s = 0.0;                  // end-to-end fleet wall clock
  PhaseTimings phase_totals;            // summed over all campaigns
  /// Checkpoint-store health over the whole run: files quarantined either
  /// by the pre-resume heal() scan or by individual campaigns. Excluded
  /// from fleet_signature() — self-healing must not change results.
  std::size_t ckpt_quarantined = 0;

  // Headline totals (the paper's "570 reverse-engineered messages").
  std::size_t total_signals() const;
  std::size_t total_formula_signals() const;
  std::size_t total_enum_signals() const;
  std::size_t total_gp_correct() const;
  std::size_t total_ecrs() const;

  // Per-car ok/failed status: a campaign that threw is captured into its
  // report slot (completed = false) instead of killing the fleet.
  std::size_t cars_ok() const;
  std::size_t cars_failed() const;
  /// Summed retry/timeout counters over every campaign.
  util::TransactStats total_transactions() const;
};

class FleetRunner {
 public:
  explicit FleetRunner(FleetOptions options = {});

  /// Number of concurrent campaigns a run() will use.
  std::size_t threads() const { return threads_; }

  /// Run one campaign per spec, concurrently up to the thread budget.
  /// Accepts any mix of catalog specs and vehicle::Generator output.
  FleetSummary run(const std::vector<vehicle::CarSpec>& specs) const;

  /// Catalog convenience: resolve each id and run. An id outside the
  /// catalog becomes a failed report slot, never a fleet abort.
  FleetSummary run(const std::vector<vehicle::CarId>& cars) const;

  /// Run the full 18-car catalog.
  FleetSummary run_catalog() const;

 private:
  /// Shared driver: `spec_for(i)` resolves slot i's spec (nullptr when
  /// unresolvable — e.g. an id outside the catalog — which becomes a
  /// failed slot labeled by `fallback_label(i)`).
  FleetSummary run_impl(
      std::size_t count,
      const std::function<const vehicle::CarSpec*(std::size_t)>& spec_for,
      const std::function<std::string(std::size_t)>& fallback_label) const;

  FleetOptions options_;
  std::size_t threads_ = 1;
};

/// The report's state as core/state.hpp's field lists encode it (the
/// bytes a checkpoint payload stores for it): every finding bit-exact,
/// every counter, never the wall-clock timings or ckpt_quarantined. Two
/// runs produced the same result iff their signatures compare equal;
/// the determinism tests and the CLI's --signature file compare these
/// byte strings.
std::string report_signature(const CampaignReport& report);

/// Concatenated per-car signatures of a whole fleet run. Each encoding
/// is self-delimiting, so the concatenation is unambiguous.
std::string fleet_signature(const FleetSummary& summary);

}  // namespace dpr::core
