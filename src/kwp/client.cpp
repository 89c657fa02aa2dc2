#include "kwp/client.hpp"

namespace dpr::kwp {

Client::Client(util::MessageLink& link, std::function<void()> pump,
               util::TransactPolicy policy, util::SimClock* clock)
    : link_(link), pump_(std::move(pump)), policy_(policy), clock_(clock) {}

void Client::backoff(util::SimTime delay) {
  if (clock_ != nullptr && delay > 0) clock_->advance(delay);
}

std::optional<util::Bytes> Client::transact(
    std::span<const std::uint8_t> request) {
  // (Re-)claim the link: a UDS client may share this transport on
  // vehicles that mix 0x22 reads with 0x30 IO control.
  link_.set_message_handler(
      [this](const util::Bytes& message) { inbox_.push_back(message); });
  last_nrc_.reset();
  ++stats_.transactions;

  for (int attempt = 0;; ++attempt) {
    inbox_.clear();  // stale answers from a previous attempt are void
    link_.send(request);
    pump_();

    bool busy = false;
    int pending = 0;
    std::optional<util::Bytes> final;
    for (auto& message : inbox_) {
      const auto neg = decode_negative_response(message);
      if (neg && neg->code == kNrcResponsePending) {
        ++stats_.pending_waits;
        if (++pending <= policy_.max_pending_waits) continue;
      }
      busy = neg && neg->code == kNrcBusyRepeatRequest;
      final = std::move(message);
    }
    inbox_.clear();

    if (final && !busy) {
      last_nrc_ = decode_negative_response(*final);
      return final;
    }
    if (attempt >= policy_.max_retries) {
      ++stats_.failures;
      if (final) last_nrc_ = decode_negative_response(*final);
      return busy ? std::move(final) : std::nullopt;
    }
    if (busy) {
      ++stats_.busy_retries;
      backoff(policy_.p2_star);
    } else {
      ++stats_.retries;
      backoff(policy_.p2);
    }
  }
}

bool Client::start_session(std::uint8_t session_type) {
  const auto resp = transact(encode_start_session(session_type));
  return resp && is_positive_response(*resp, kStartDiagnosticSession);
}

bool Client::tester_present(bool suppress) {
  if (suppress) {
    // No response is coming for the suppressed form; send and drain.
    link_.set_message_handler(
        [this](const util::Bytes& message) { inbox_.push_back(message); });
    link_.send(encode_tester_present(true));
    pump_();
    inbox_.clear();
    return true;
  }
  const auto resp = transact(encode_tester_present(false));
  return resp && is_positive_response(*resp, kTesterPresent);
}

std::optional<ReadResponse> Client::read_local_id(std::uint8_t local_id) {
  const auto resp = transact(encode_read_by_local_id(local_id));
  if (!resp) return std::nullopt;
  return decode_read_response(*resp);
}

std::optional<util::Bytes> Client::io_control_local(
    std::uint8_t local_id, std::span<const std::uint8_t> ecr) {
  const auto resp = transact(encode_io_control_local(local_id, ecr));
  // Positive format is [0x70, local id, status...]; never slice a
  // truncated (corrupted) response past its end.
  if (!resp || !is_positive_response(*resp, kIoControlByLocalId) ||
      resp->size() < 2) {
    return std::nullopt;
  }
  return util::Bytes(resp->begin() + 2, resp->end());
}

std::optional<util::Bytes> Client::io_control_common(
    std::uint16_t common_id, std::span<const std::uint8_t> ecr) {
  const auto resp = transact(encode_io_control_common(common_id, ecr));
  // Positive format is [0x6F, id hi, id lo, status...].
  if (!resp || !is_positive_response(*resp, kIoControlByCommonId) ||
      resp->size() < 3) {
    return std::nullopt;
  }
  return util::Bytes(resp->begin() + 3, resp->end());
}

}  // namespace dpr::kwp
