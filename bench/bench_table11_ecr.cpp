// Table 11 — Number of ECRs (ECU control records) extracted per vehicle,
// and the service each car uses (UDS 0x2F vs local-identifier 0x30).
//
// Paper result: 124 ECRs across ten vehicles, all following the 3-message
// freeze -> short-term-adjustment -> return-control pattern (§4.5).

#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace dpr;
  std::printf("Table 11: ECRs extracted per vehicle (paper: 124 total, "
              "5 cars via 2F / 5 via 30)\n\n");
  std::printf("%-8s %-8s %-12s %-22s %-10s\n", "Car", "#ECR", "Service ID",
              "#3-msg pattern", "expected");
  bench::print_rule(66);

  auto options = bench::table_options();
  options.run_inference = false;

  std::size_t total = 0;
  std::size_t pattern_total = 0;
  bool all_match = true;
  for (const auto car : bench::table11_cars()) {
    core::Campaign campaign(car, options);
    campaign.collect();
    campaign.analyze();
    const auto& report = campaign.report();
    std::size_t with_pattern = 0;
    bool uses_2f = false, uses_30 = false;
    for (const auto& ecr : report.ecrs) {
      if (ecr.three_message_pattern) ++with_pattern;
      (ecr.is_uds ? uses_2f : uses_30) = true;
    }
    const auto& spec = vehicle::car_spec(car);
    std::printf("%-8s %-8zu %-12s %-22zu %zu\n", report.car_label.c_str(),
                report.ecrs.size(), uses_2f ? "2F" : (uses_30 ? "30" : "-"),
                with_pattern, spec.ecr_count);
    total += report.ecrs.size();
    pattern_total += with_pattern;
    if (report.ecrs.size() != spec.ecr_count) all_match = false;
  }
  bench::print_rule(66);
  std::printf("Total ECRs: %zu (paper: 124), with 3-message pattern: %zu\n",
              total, pattern_total);
  std::printf("\nRecovered procedure (as in §4.5):\n"
              "  1. \"2F {DID} 02\"            freeze current state\n"
              "  2. \"2F {DID} 03 {state...}\"  short-term adjustment\n"
              "  3. \"2F {DID} 00\"            return control to ECU\n");
  return all_match ? 0 : 1;
}
