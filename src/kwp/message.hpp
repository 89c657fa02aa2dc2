#pragma once
// KWP 2000 (ISO 14230-3) message encoding/decoding for the services
// DP-Reverser targets (§2.3.1, Figs. 2-3):
//   0x21 readDataByLocalIdentifier      -> 3-byte ESV records (Ftype,X0,X1)
//   0x30 inputOutputControlByLocalIdentifier
//   0x2F inputOutputControlByCommonIdentifier
// plus startDiagnosticSession and negative responses.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/hex.hpp"

namespace dpr::kwp {

constexpr std::uint8_t kStartDiagnosticSession = 0x10;
constexpr std::uint8_t kClearDiagnosticInformation = 0x14;
constexpr std::uint8_t kReadDtcsByStatus = 0x18;
constexpr std::uint8_t kReadEcuIdentification = 0x1A;
constexpr std::uint8_t kReadDataByLocalId = 0x21;
constexpr std::uint8_t kIoControlByCommonId = 0x2F;
constexpr std::uint8_t kIoControlByLocalId = 0x30;
constexpr std::uint8_t kTesterPresent = 0x3E;
constexpr std::uint8_t kNegativeResponseSid = 0x7F;
constexpr std::uint8_t kPositiveOffset = 0x40;

/// TesterPresent responseRequired sub-parameter values (ISO 14230-3).
constexpr std::uint8_t kResponseRequired = 0x01;
constexpr std::uint8_t kResponseSuppressed = 0x02;

/// Negative response code shared with ISO 14229 (same byte value); the
/// 0x21/0x78 envelope codes live in util/transact.hpp.
constexpr std::uint8_t kNrcServiceNotSupportedInActiveSession = 0x7F;

/// One ECU signal value record of a 0x61 response (Fig. 3): the formula
/// type byte and the two operand bytes.
struct EsvRecord {
  std::uint8_t formula_type = 0;
  std::uint8_t x0 = 0;
  std::uint8_t x1 = 0;
};

/// --- Requests --------------------------------------------------------------

util::Bytes encode_start_session(std::uint8_t session_type = 0x89);

util::Bytes encode_read_by_local_id(std::uint8_t local_id);

/// 0x3E keepalive; `suppress` selects responseRequired = 0x02 (no reply).
util::Bytes encode_tester_present(bool suppress = false);

/// 0x30: local id + ECU control record (Fig. 2 top).
util::Bytes encode_io_control_local(std::uint8_t local_id,
                                    std::span<const std::uint8_t> ecr);

/// 0x2F: two-byte common identifier + ECR (Fig. 2 bottom).
util::Bytes encode_io_control_common(std::uint16_t common_id,
                                     std::span<const std::uint8_t> ecr);

/// --- Responses --------------------------------------------------------------

util::Bytes encode_negative_response(std::uint8_t requested_sid,
                                     std::uint8_t code);

/// 0x61 positive response carrying 1..m ESV records.
util::Bytes encode_read_response(std::uint8_t local_id,
                                 std::span<const EsvRecord> records);

/// 0x70 / 0x6F positive IO-control responses with a control status byte.
util::Bytes encode_io_local_response(std::uint8_t local_id,
                                     std::span<const std::uint8_t> status);
util::Bytes encode_io_common_response(std::uint16_t common_id,
                                      std::span<const std::uint8_t> status);

/// --- Decoders ---------------------------------------------------------------

struct ReadRequest {
  std::uint8_t local_id = 0;
};
std::optional<ReadRequest> decode_read_request(
    std::span<const std::uint8_t> payload);

struct ReadResponse {
  std::uint8_t local_id = 0;
  std::vector<EsvRecord> records;
};
std::optional<ReadResponse> decode_read_response(
    std::span<const std::uint8_t> payload);

struct IoLocalRequest {
  std::uint8_t local_id = 0;
  util::Bytes ecr;
};
std::optional<IoLocalRequest> decode_io_local_request(
    std::span<const std::uint8_t> payload);

struct IoCommonRequest {
  std::uint16_t common_id = 0;
  util::Bytes ecr;
};
std::optional<IoCommonRequest> decode_io_common_request(
    std::span<const std::uint8_t> payload);

bool is_positive_response(std::span<const std::uint8_t> payload,
                          std::uint8_t request_sid);

}  // namespace dpr::kwp
