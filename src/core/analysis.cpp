#include "core/analysis.hpp"

#include <cstdio>
#include <iterator>
#include <map>
#include <tuple>

namespace dpr::core {

namespace {

/// A visit's windows are widened by this much on both sides.
constexpr util::SimTime kWindowMargin = 1 * util::kSecond;

std::string majority_vote(const std::vector<std::string>& names) {
  std::map<std::string, std::size_t> counts;
  for (const auto& name : names) ++counts[name];
  std::string best;
  std::size_t best_count = 0;
  for (const auto& [name, count] : counts) {
    if (count > best_count) {
      best = name;
      best_count = count;
    }
  }
  return best;
}

}  // namespace

std::vector<Association> pair_rows(
    std::vector<Association> series,
    const std::vector<screenshot::UiSample>& samples, util::SimTime begin,
    util::SimTime end) {
  std::map<int, std::vector<const screenshot::UiSample*>> by_row;
  for (const auto& sample : samples) {
    if (sample.timestamp < begin || sample.timestamp > end) continue;
    by_row[sample.row].push_back(&sample);
  }
  std::size_t paired = 0;
  for (const auto& [row, row_samples] : by_row) {
    if (paired >= series.size()) break;
    Association& assoc = series[paired++];
    assoc.names.reserve(row_samples.size());
    assoc.ys.reserve(row_samples.size());
    for (const auto* sample : row_samples) {
      assoc.names.push_back(sample->name);
      if (sample->value) {
        assoc.ys.push_back(
            correlate::YSample{sample->timestamp, *sample->value});
      } else {
        ++assoc.non_numeric;
      }
    }
  }
  series.resize(paired);
  return series;
}

std::vector<Association> associate(
    const std::vector<EcuVisit>& visits,
    const frames::ExtractionResult& extraction,
    const std::vector<screenshot::UiSample>& samples) {
  std::vector<Association> associations;
  for (const auto& visit : visits) {
    const util::SimTime begin = visit.live_begin - kWindowMargin;
    const util::SimTime end = visit.live_end + kWindowMargin;

    // X observations of this visit, one series per signal key in
    // first-seen (i.e. poll/row) order.
    using Key = std::tuple<bool, std::uint16_t, std::uint8_t, std::size_t>;
    std::map<Key, std::size_t> index;
    std::vector<Association> series;
    for (const auto& esv : extraction.esvs) {
      if (esv.timestamp < begin || esv.timestamp > end) continue;
      const auto [it, fresh] = index.try_emplace(
          Key{esv.is_kwp, esv.did, esv.local_id, esv.esv_index},
          series.size());
      if (fresh) {
        Association& assoc = series.emplace_back();
        assoc.is_kwp = esv.is_kwp;
        assoc.did = esv.did;
        assoc.local_id = esv.local_id;
        assoc.esv_index = esv.esv_index;
      }
      correlate::XSample x;
      x.timestamp = esv.timestamp;
      if (esv.is_kwp) {
        x.xs = {static_cast<double>(esv.x0), static_cast<double>(esv.x1)};
      } else {
        for (std::size_t i = 0; i < esv.data.size() && i < 2; ++i) {
          x.xs.push_back(static_cast<double>(esv.data[i]));
        }
      }
      series[it->second].xs.push_back(std::move(x));
    }

    auto paired = pair_rows(std::move(series), samples, begin, end);
    associations.insert(associations.end(),
                        std::make_move_iterator(paired.begin()),
                        std::make_move_iterator(paired.end()));
  }
  return associations;
}

std::optional<correlate::AlignmentResult> estimate_offset(
    const std::vector<Association>& associations) {
  std::vector<std::pair<std::vector<correlate::XSample>,
                        std::vector<correlate::YSample>>>
      series;
  for (const auto& assoc : associations) {
    if (assoc.ys.size() >= 6) series.emplace_back(assoc.xs, assoc.ys);
  }
  return correlate::estimate_offset_by_changes(series);
}

correlate::AlignmentResult align(
    util::SimTime obd_phase_end,
    const std::vector<frames::DiagMessage>& messages,
    const std::vector<screenshot::UiSample>& obd_samples,
    const std::vector<Association>& associations) {
  correlate::AlignmentResult result;
  if (obd_phase_end > 0) {
    const util::SimTime obd_cutoff = obd_phase_end + 100 * util::kMillisecond;
    std::vector<frames::DiagMessage> obd_messages;
    for (const auto& msg : messages) {
      if (msg.timestamp <= obd_cutoff) obd_messages.push_back(msg);
    }
    if (const auto anchored =
            correlate::align_with_obd(obd_messages, obd_samples)) {
      result = *anchored;
      if (anchored->matched >= 8) return result;
    }
  }
  // NTP-only vehicles (§9.4 method 1): estimate the end-to-end
  // request->display latency from value changes in the diagnostic
  // traffic itself, then treat it as the pairing offset.
  if (const auto estimate = estimate_offset(associations)) result = *estimate;
  return result;
}

std::vector<SignalFinding> signal_findings(
    const std::vector<Association>& associations, util::SimTime offset) {
  std::vector<SignalFinding> findings;
  findings.reserve(associations.size());
  for (const auto& assoc : associations) {
    SignalFinding& finding = findings.emplace_back();
    finding.is_kwp = assoc.is_kwp;
    finding.did = assoc.did;
    finding.local_id = assoc.local_id;
    finding.esv_index = assoc.esv_index;
    finding.semantic_name = majority_vote(assoc.names);
    char request[16];
    if (assoc.is_kwp) {
      std::snprintf(request, sizeof request, "21 %02X", assoc.local_id);
    } else {
      std::snprintf(request, sizeof request, "22 %02X %02X", assoc.did >> 8,
                    assoc.did & 0xFF);
    }
    finding.request_message = request;

    const std::size_t total_samples = assoc.ys.size() + assoc.non_numeric;
    if (assoc.ys.size() < 6 || assoc.non_numeric > total_samples / 2) {
      finding.is_enum = true;
      continue;
    }
    finding.dataset = correlate::build_dataset(assoc.xs, assoc.ys, offset);
  }
  return findings;
}

std::vector<EcrFinding> ecr_findings(
    const std::vector<EcuVisit>& visits,
    const frames::ExtractionResult& extraction) {
  std::vector<EcrFinding> findings;
  for (const auto& visit : visits) {
    if (visit.actuator_names.empty()) continue;
    std::vector<frames::EcrObservation> window;
    for (const auto& ecr : extraction.ecrs) {
      if (ecr.timestamp >= visit.active_begin - kWindowMargin &&
          ecr.timestamp <= visit.active_end + kWindowMargin) {
        window.push_back(ecr);
      }
    }
    const auto procedures = frames::extract_procedures(window);
    for (std::size_t i = 0; i < procedures.size(); ++i) {
      EcrFinding& finding = findings.emplace_back();
      finding.is_uds = procedures[i].is_uds;
      finding.id = procedures[i].id;
      finding.param_sequence = procedures[i].param_sequence;
      finding.adjustment_state = procedures[i].adjustment_state;
      finding.three_message_pattern =
          procedures[i].matches_three_message_pattern();
      if (i < visit.actuator_names.size()) {
        finding.semantic_name = visit.actuator_names[i];
      }
    }
  }
  return findings;
}

bool recovered(const regress::RelativeError& error) {
  return error.mean < 0.03 && error.max < 0.08;
}

}  // namespace dpr::core
