#include "util/transact.hpp"

namespace dpr::util {

TransactClient::TransactClient(MessageLink& link, std::function<void()> pump,
                               TransactPolicy policy, SimClock* clock)
    : link_(link), pump_(std::move(pump)), policy_(policy), clock_(clock) {}

void TransactClient::claim_link() {
  link_.set_message_handler(
      [this](const Bytes& message) { inbox_.push_back(message); });
}

void TransactClient::send_only(std::span<const std::uint8_t> request) {
  claim_link();
  link_.send(request);
  pump_();
  inbox_.clear();
}

std::optional<Bytes> TransactClient::transact(
    std::span<const std::uint8_t> request) {
  claim_link();
  ++stats_.transactions;

  for (int attempt = 0;; ++attempt) {
    inbox_.clear();  // stale answers from a previous attempt are void
    link_.send(request);
    pump_();

    // Scan everything the pump delivered: absorb 0x78 responsePending
    // markers (the real answer follows in the same drained queue, or was
    // lost), keep the last substantive message — matching the legacy
    // last-write-wins inbox semantics.
    bool busy = false;
    int pending = 0;
    std::optional<Bytes> final;
    for (auto& message : inbox_) {
      const bool negative =
          message.size() >= 3 && message[0] == kNegativeResponse;
      if (negative && message[2] == kNrcResponsePending) {
        ++stats_.pending_waits;
        if (++pending <= kMaxPendingWaits) continue;
      }
      busy = negative && message[2] == kNrcBusyRepeatRequest;
      final = std::move(message);
    }
    inbox_.clear();

    if (final && !busy) return final;
    if (attempt >= policy_.max_retries) {
      ++stats_.failures;
      return busy ? std::move(final) : std::nullopt;
    }
    if (busy) {
      ++stats_.busy_retries;
    } else {
      ++stats_.retries;
    }
    if (clock_ != nullptr) clock_->advance(busy ? kP2Star : kP2);
  }
}

}  // namespace dpr::util
