#pragma once
// UDS (ISO 14229) message encoding/decoding for the services DP-Reverser
// targets (§2.3.2): ReadDataByIdentifier (0x22), InputOutputControlByIdentifier
// (0x2F), plus the session and keep-alive services a real diagnostic
// session uses around them.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/hex.hpp"

namespace dpr::uds {

/// Service identifiers (requests). Positive responses are sid + 0x40.
enum class Service : std::uint8_t {
  kDiagnosticSessionControl = 0x10,
  kEcuReset = 0x11,
  kTesterPresent = 0x3E,
  kReadDataByIdentifier = 0x22,
  kIoControlByIdentifier = 0x2F,
  kRoutineControl = 0x31,
};

constexpr std::uint8_t kPositiveOffset = 0x40;
constexpr std::uint8_t kNegativeResponseSid = 0x7F;

/// Negative response codes (ISO 14229-1 annex A).
enum class Nrc : std::uint8_t {
  kGeneralReject = 0x10,
  kServiceNotSupported = 0x11,
  kSubFunctionNotSupported = 0x12,
  kIncorrectMessageLength = 0x13,
  kBusyRepeatRequest = 0x21,
  kConditionsNotCorrect = 0x22,
  kRequestSequenceError = 0x24,
  kRequestOutOfRange = 0x31,
  kSecurityAccessDenied = 0x33,
  kInvalidKey = 0x35,
  kExceedNumberOfAttempts = 0x36,
  kRequiredTimeDelayNotExpired = 0x37,
  kResponsePending = 0x78,  // requestCorrectlyReceived-ResponsePending
  kServiceNotSupportedInActiveSession = 0x7F,
};

/// Sub-function bit: the server performs the action but sends no positive
/// response (ISO 14229-1 §8.2.2); TesterPresent keepalives use it.
constexpr std::uint8_t kSuppressPositiveResponse = 0x80;

/// IO-control parameters (first ECR byte, §4.5).
enum class IoControlParameter : std::uint8_t {
  kReturnControlToEcu = 0x00,
  kResetToDefault = 0x01,
  kFreezeCurrentState = 0x02,
  kShortTermAdjustment = 0x03,
};

using Did = std::uint16_t;

/// --- Request encoders -----------------------------------------------------

util::Bytes encode_session_control(std::uint8_t session_type);
/// 0x3E. `suppress` sets the suppressPositiveResponse bit (keepalive form).
util::Bytes encode_tester_present(bool suppress = false);

/// 0x22 with one or more DIDs (Fig. 5).
util::Bytes encode_read_data_by_identifier(std::span<const Did> dids);

/// 0x2F: DID + IO control parameter + optional control state (Fig. 4).
util::Bytes encode_io_control(Did did, IoControlParameter param,
                              std::span<const std::uint8_t> control_state = {});

/// --- Response encoders (ECU side) ------------------------------------------

util::Bytes encode_negative_response(Service service, Nrc nrc);

/// 0x62 response: each record is (DID, raw ESV bytes), emitted in request
/// order — the property §3.2 step 3 exploits.
struct DataRecord {
  Did did = 0;
  util::Bytes data;
};
util::Bytes encode_read_data_response(std::span<const DataRecord> records);

util::Bytes encode_io_control_response(Did did, IoControlParameter param,
                                       std::span<const std::uint8_t> state = {});

/// --- Decoders ---------------------------------------------------------------

struct NegativeResponse {
  std::uint8_t requested_sid = 0;
  Nrc nrc = Nrc::kGeneralReject;
};
std::optional<NegativeResponse> decode_negative_response(
    std::span<const std::uint8_t> payload);

bool is_positive_response(std::span<const std::uint8_t> payload,
                          Service service);

/// DIDs listed in a 0x22 request.
std::optional<std::vector<Did>> decode_read_data_request(
    std::span<const std::uint8_t> payload);

/// Parse a 0x62 response given the DID order of the request and a callback
/// that reports each DID's data length (the proprietary knowledge a real
/// diagnostic tool has, and DP-Reverser reverse engineers).
std::optional<std::vector<DataRecord>> decode_read_data_response(
    std::span<const std::uint8_t> payload, std::span<const Did> requested,
    const std::function<std::optional<std::size_t>(Did)>& length_of);

struct IoControlRequest {
  Did did = 0;
  IoControlParameter param = IoControlParameter::kReturnControlToEcu;
  util::Bytes control_state;
};
std::optional<IoControlRequest> decode_io_control_request(
    std::span<const std::uint8_t> payload);

}  // namespace dpr::uds
