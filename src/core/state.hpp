#pragma once
// One schema for campaign state. Every struct that a checkpoint payload or
// the checkpoint options digest covers has one `fields(archive, s)` here.
// It binds *every* member with a structured binding, so a member added to
// the struct stops the build until it is bound here, and it hands the
// archive the members that belong to the state, in declaration order.
// Two archives walk these lists: the Writer (checkpoint payloads, the
// options digest and core::report_signature) and the Reader (checkpoint
// restore).
//
// Encodings, little-endian (util::BinaryWriter):
//   bool -> u8; unsigned integers at their own width; signed integers
//   (int, SimTime) -> i64; double -> its raw bits, so resumed runs are
//   bit-identical; std::string and util::Bytes -> u64 length + bytes;
//   std::vector -> u64 count + elements; std::optional -> presence byte +
//   value; fixed arrays -> elements, no count.
// Three types have their own codecs: can::CanFrame is its id, a u8 DLC
// (<= 8) and the data bytes; a gp::Genome is its genes in prefix order,
// per gene u8 op, f64 value, i64 var, with no count (the arity scan
// delimits it); a cps::VideoRecording is its frame count, then per frame
// the timestamp, width and height, the text-region count and per text
// region a u8 marker, then the icon regions the same way. Marker 0 is
// followed by the region through its field list; marker 1 means "equal
// to the previous frame's region at this index" and is all that is
// stored. Camera b films a screen on which only the value cells change,
// so most regions of a frame are one byte.
//
// In memory, consecutive frames of an unchanged screen share one
// cps::ScreenImage. The bytes do not record the sharing: a shared frame
// repeats every region, as any frame that looks like its predecessor
// does, and the Reader builds one image per frame.
//
// A member that is bound but not passed is deliberately outside the
// state; each such binding says why. Reordering the members of a struct
// reorders its payload, so a changed payload list needs a
// kCheckpointPayloadSchema bump (core/checkpoint.hpp); a changed report
// list also changes every report signature. A changed options list
// changes the digest, and with it every checkpoint filename.

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/campaign.hpp"
#include "util/checkpoint.hpp"

namespace dpr::core::state {

/// `S` is `T`, possibly const: the Writer walks const state, the Reader
/// fills mutable state, through the same list.
template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

/// The checkpoint payload: a campaign's state after a phase, in wire
/// order. `Slot<T>` is `T` for a payload a Reader fills and `const T&` for
/// the live state a campaign writes without copying it.
template <template <class> class Slot>
struct PayloadOf {
  Slot<Observations> observations;
  Slot<util::Rng::State> ocr_rng;
  Slot<cps::OcrStats> ocr_stats;
  Slot<Intermediate> mid;
  Slot<CampaignReport> report;
};
template <class T>
using Owned = T;
template <class T>
using Viewed = const T&;
using Payload = PayloadOf<Owned>;
using PayloadView = PayloadOf<Viewed>;

template <class T>
inline constexpr bool kIsPayload = false;
template <template <class> class Slot>
inline constexpr bool kIsPayload<PayloadOf<Slot>> = true;

/// The field list of a struct whose every member belongs to the state:
/// the binding and the archive call name the same members, once.
#define DPR_STATE_FIELDS(Type, ...) \
  template <class A, Of<Type> S>    \
  void fields(A& ar, S& self) {     \
    auto& [__VA_ARGS__] = self;     \
    ar(__VA_ARGS__);                \
  }

// --- Collection products ---------------------------------------------------
DPR_STATE_FIELDS(can::CanId, value, extended)
DPR_STATE_FIELDS(can::TimestampedFrame, timestamp, frame)
DPR_STATE_FIELDS(diagtool::Rect, x, y, w, h)
DPR_STATE_FIELDS(cps::TextRegion, truth, bounds, font_px, row, clickable)
DPR_STATE_FIELDS(cps::IconRegion, bounds, icon_identity)
// The Writer and Reader code a VideoRecording themselves (delta-coded,
// see above); these lists serve the walkers that visit every member,
// which reach a frame's image through its shared pointer.
DPR_STATE_FIELDS(cps::ScreenImage, width, height, text_regions, icon_regions)
DPR_STATE_FIELDS(cps::Screenshot, timestamp, image)
DPR_STATE_FIELDS(cps::VideoRecording, frames)
DPR_STATE_FIELDS(EcuVisit, ecu_index, live_begin, live_end, actuator_names,
                 active_begin, active_end)
DPR_STATE_FIELDS(Observations, capture, video, obd_video, obd_phase_end,
                 visits)
DPR_STATE_FIELDS(util::Rng::State, s, cached_normal, has_cached_normal)
DPR_STATE_FIELDS(cps::OcrStats, strings_read, strings_correct, char_errors,
                 decimal_drops)

// --- Intermediate phase products -------------------------------------------
DPR_STATE_FIELDS(frames::DiagMessage, timestamp, can_id, payload)
DPR_STATE_FIELDS(screenshot::UiSample, timestamp, row, name, value_text, value)
DPR_STATE_FIELDS(frames::EsvObservation, timestamp, is_kwp, did, data,
                 local_id, esv_index, formula_type, x0, x1)
DPR_STATE_FIELDS(frames::EcrObservation, timestamp, is_uds, id, io_param,
                 control_state)
DPR_STATE_FIELDS(frames::ExtractionResult, esvs, ecrs, unmatched_responses)
DPR_STATE_FIELDS(correlate::XSample, timestamp, xs)
DPR_STATE_FIELDS(correlate::YSample, timestamp, y)
DPR_STATE_FIELDS(Association, is_kwp, did, local_id, esv_index, xs, ys, names,
                 non_numeric)
DPR_STATE_FIELDS(Intermediate, messages, samples, obd_samples, extraction,
                 associations)

// --- The report ------------------------------------------------------------
DPR_STATE_FIELDS(frames::FrameCensus, single_frames, first_frames,
                 consecutive_frames, flow_control_frames, vwtp_data_last,
                 vwtp_data_more, vwtp_control, other)
DPR_STATE_FIELDS(correlate::DataPoint, xs, y, x_time, y_time)
DPR_STATE_FIELDS(correlate::Dataset, n_vars, points)
DPR_STATE_FIELDS(gp::SeriesScale, factor)

template <class A, Of<gp::GpResult> S>
void fields(A& ar, S& self) {
  // timings measure the run (clocks, cache traffic), not its products.
  auto& [best, n_vars, fitness, generations_run, converged, x_scales,
         y_scale, formula, timings] = self;
  ar(best, n_vars, fitness, generations_run, converged, x_scales, y_scale,
     formula);
}

DPR_STATE_FIELDS(regress::FitResult, coefficients, n_vars, polynomial, mae,
                 formula)
DPR_STATE_FIELDS(SignalFinding, is_kwp, did, local_id, esv_index,
                 semantic_name, request_message, is_enum, dataset, gp, linear,
                 polynomial, truth_formula, truth_is_enum, gp_correct,
                 linear_correct, polynomial_correct)
DPR_STATE_FIELDS(EcrFinding, is_uds, id, semantic_name, param_sequence,
                 adjustment_state, three_message_pattern, matches_truth)
DPR_STATE_FIELDS(util::TransactStats, transactions, retries, busy_retries,
                 pending_waits, failures)
DPR_STATE_FIELDS(TransactionFailure, is_kwp, id, failures)
DPR_STATE_FIELDS(util::FaultStats, delivered, dropped, corrupted, duplicated,
                 jittered, bursts)
DPR_STATE_FIELDS(diagtool::SessionStats, keepalives, sessions_lost,
                 sessions_restored, reissued_requests, recovery_failures,
                 bus_sleeps, sleep_recoveries)
DPR_STATE_FIELDS(nm::NmStats, sleeps, wakeups, frames_lost_to_sleep,
                 limp_episodes, ring_repairs, nm_frames_sent)

template <class A, Of<CampaignReport> S>
void fields(A& ar, S& self) {
  // ckpt_quarantined records how the state was reached, not the state.
  // phases are this process's wall-clock seconds, not the state.
  auto& [spec_digest, car_label, census, messages_assembled,
         alignment_offset, alignment_anchors, signals, ecrs, ocr_stats,
         phases, transactions, failed_transactions, bus_faults,
         session_stats, ecu_resets, ecu_s3_expiries, nm_enabled, nm,
         ckpt_quarantined, completed, failure_reason] = self;
  ar(spec_digest, car_label, census, messages_assembled, alignment_offset,
     alignment_anchors, signals, ecrs, ocr_stats, transactions,
     failed_transactions, bus_faults, session_stats, ecu_resets,
     ecu_s3_expiries, nm_enabled, nm, completed, failure_reason);
}

template <class A, class S>
  requires kIsPayload<std::remove_const_t<S>>
void fields(A& ar, S& self) {
  auto& [observations, ocr_rng, ocr_stats, mid, report] = self;
  ar(observations, ocr_rng, ocr_stats, mid, report);
}

// --- Options (the checkpoint options digest) -------------------------------
// Execution-only fields are bound but not passed: they decide how fast a
// campaign runs, never what it produces, so they stay out of the digest.
// A checkpoint written at 8 threads must resume a 1-thread run.

template <class A, Of<gp::GpConfig> S>
void fields(A& ar, S& self) {
  auto& [population, max_generations, fitness_threshold, seed_templates,
         seed_least_squares, constant_tuning, use_scaling, seed, cancel] =
      self;
  ar(population, max_generations, fitness_threshold, seed_templates,
     seed_least_squares, constant_tuning, use_scaling, seed);
}

DPR_STATE_FIELDS(util::FaultConfig, rate, fault_seed, reset_rate,
                 session_faults, nm, nm_sleep_timeout, nm_veto_address)

template <class A, Of<CampaignOptions> S>
void fields(A& ar, S& self) {
  auto& [seed, live_window, video_fps, ocr_noise, ocr_rate_scale,
         two_stage_filter, run_baselines, run_inference, gp, infer_threads,
         infer_pool, faults, checkpoint_dir, resume, stop_after_phase,
         phase_deadline_s, stall_phase, phase_sim_budget_s, nm_oblivious] =
      self;
  ar(seed, live_window, video_fps, ocr_noise, ocr_rate_scale, two_stage_filter,
     run_baselines, run_inference, gp, faults, nm_oblivious);
}

#undef DPR_STATE_FIELDS

// --- Archives --------------------------------------------------------------

namespace detail {
template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
}  // namespace detail

/// Encodes values through their field lists.
class Writer {
 public:
  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }

  const util::Bytes& data() const { return out_.data(); }
  util::Bytes take() { return out_.take(); }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      out_.b(v);
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      out_.i64(v);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
      out_.u8(v);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 2) {
      out_.u16(v);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
      out_.u32(v);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
      out_.u64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      out_.f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      out_.str(v);
    } else if constexpr (std::is_same_v<T, util::Bytes>) {
      out_.bytes(v);
    } else if constexpr (std::is_same_v<T, gp::Genome>) {
      put_genome(v);
    } else if constexpr (detail::kIsVector<T>) {
      out_.u64(v.size());
      for (const auto& e : v) put(e);
    } else if constexpr (detail::kIsOptional<T>) {
      out_.b(v.has_value());
      if (v) put(*v);
    } else if constexpr (std::is_array_v<T>) {
      for (const auto& e : v) put(e);
    } else if constexpr (std::is_same_v<T, can::CanFrame>) {
      put_frame(v);
    } else if constexpr (std::is_same_v<T, cps::VideoRecording>) {
      put_video(v);
    } else {
      fields(*this, v);
    }
  }
  void put_frame(const can::CanFrame& frame);
  void put_genome(const gp::Genome& genome);
  void put_video(const cps::VideoRecording& video);
  template <class Region>
  void put_regions(const std::vector<Region>& regions,
                   const std::vector<Region>* previous);

  util::BinaryWriter out_;
};

/// Decodes what the Writer encoded. Throws std::runtime_error on a
/// truncated payload, a malformed value or a broken invariant. Counts are
/// never used to reserve memory, and every element read costs at least
/// one payload byte, so a corrupt count runs out of payload first. A
/// video region repeated from the previous frame costs one byte but
/// copies that region's text; the copied text is charged against
/// kVideoCopyBudgetPerByte bytes per payload byte, and a payload past
/// that budget is refused. Decoding therefore holds memory linear in
/// the payload's size.
class Reader {
 public:
  /// Copied region text per payload byte. A campaign's checkpoints copy
  /// about one byte per payload byte, so 64 refuses only a crafted
  /// payload.
  static constexpr std::size_t kVideoCopyBudgetPerByte = 64;

  explicit Reader(std::span<const std::uint8_t> data)
      : in_(data), copy_budget_(kVideoCopyBudgetPerByte * data.size()) {}

  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }

  bool done() const { return in_.done(); }

 private:
  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = in_.b();
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      v = static_cast<T>(in_.i64());
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
      v = in_.u8();
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 2) {
      v = in_.u16();
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
      v = in_.u32();
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
      v = in_.u64();
    } else if constexpr (std::is_same_v<T, double>) {
      v = in_.f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = in_.str();
    } else if constexpr (std::is_same_v<T, util::Bytes>) {
      v = in_.bytes();
    } else if constexpr (std::is_same_v<T, gp::Genome>) {
      get_genome(v);
    } else if constexpr (detail::kIsVector<T>) {
      v.clear();
      for (std::uint64_t n = in_.u64(); n > 0; --n) get(v.emplace_back());
    } else if constexpr (detail::kIsOptional<T>) {
      v.reset();
      if (in_.b()) get(v.emplace());
    } else if constexpr (std::is_array_v<T>) {
      for (auto& e : v) get(e);
    } else if constexpr (std::is_same_v<T, can::CanFrame>) {
      get_frame(v);
    } else if constexpr (std::is_same_v<T, cps::VideoRecording>) {
      get_video(v);
    } else {
      fields(*this, v);
      check(v);
    }
  }
  void get_frame(can::CanFrame& frame);
  void get_genome(gp::Genome& genome);
  void get_video(cps::VideoRecording& video);
  template <class Region>
  void get_regions(std::vector<Region>& regions,
                   const std::vector<Region>* previous);

  /// Invariants a restored struct must hold beyond parsing.
  void check(const correlate::Dataset& dataset);
  void check(const gp::GpResult& result);
  template <class S>
  void check(const S&) {}

  util::BinaryReader in_;
  std::size_t copy_budget_;  // region text a repeat may still copy
};

/// FNV-1a over the Writer bytes of the options that shape a campaign's
/// products (Campaign::checkpoint_options_digest).
std::uint64_t options_digest(const CampaignOptions& options);

}  // namespace dpr::core::state
