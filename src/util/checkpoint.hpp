#pragma once
// Binary (de)serialization, digests and atomic file I/O for campaign
// checkpoints.
//
// The encoding is deliberately dumb: little-endian fixed-width integers,
// doubles as raw IEEE-754 bit patterns (bit-exact round-trips are part of
// the resume == fresh signature guarantee), length-prefixed strings and
// containers. Two digests with two jobs live here: XXH64 is the integrity
// tail of every checkpoint container and MANIFEST (it catches files torn
// by a crash mid-write, reading 8 bytes at a time), while FNV-1a keeps
// the identity digests whose values are pinned on disk and in tests.
// Writes go through a temp file + rename so a reader never observes a
// half-written checkpoint.

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/hex.hpp"

namespace dpr::util {

/// FNV-1a 64-bit over a byte range. It computes the identity digests:
/// the car spec digest, the campaign options digest (and so every
/// checkpoint filename) and the signature and golden digests that tests
/// and benchmarks pin. Their values must not change, so FNV-1a stays for
/// them; file integrity uses xxh64.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t seed = 0xCBF29CE484222325ULL);

/// Incremental FNV-1a folding helpers for hashing heterogeneous fields.
std::uint64_t fnv1a64_u64(std::uint64_t value, std::uint64_t hash);
std::uint64_t fnv1a64_f64(double value, std::uint64_t hash);
std::uint64_t fnv1a64_str(const std::string& value, std::uint64_t hash);

/// XXH64 (the published xxHash 64-bit algorithm) over a byte range: four
/// independent lanes over 32-byte stripes, then the 8/4/1-byte tails and
/// the avalanche. The integrity tail of checkpoint containers and the
/// MANIFEST.
std::uint64_t xxh64(std::span<const std::uint8_t> bytes,
                    std::uint64_t seed = 0);

/// Append-only binary encoder.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& v);
  void bytes(std::span<const std::uint8_t> v);

  const Bytes& data() const { return buffer_; }
  Bytes take() { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

/// Bounds-checked binary decoder; throws std::runtime_error on underflow
/// so a corrupt checkpoint surfaces as a load failure, never as UB.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  bool b() { return u8() != 0; }
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str();
  Bytes bytes();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> take(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Outcome of a filesystem operation that must report *why* it failed,
/// not just that it did (the fleet log prints message() when a resume
/// falls back to fresh). Converts to bool like the old plain-bool API.
struct IoResult {
  bool ok = true;
  int error = 0;            ///< errno captured at the failing step
  const char* stage = "";   ///< failing step: "open_tmp", "write", ...

  explicit operator bool() const { return ok; }
  /// "<stage>: <strerror(error)>"; empty for success.
  std::string message() const;

  static IoResult success() { return IoResult{}; }
  static IoResult failure(const char* stage, int error);
};

/// Write `data` to `path` atomically *and durably*: unique per-process
/// temp file in the same directory, write + fsync the file, rename over
/// `path`, then fsync the parent directory so the rename itself survives
/// a power cut. Transient EINTR/ENOSPC-class errors are retried a bounded
/// number of times before giving up; the temp file never outlives a
/// failure. Returns the failing stage + errno on error.
IoResult write_file_atomic(const std::string& path,
                           std::span<const std::uint8_t> data);

/// Read a whole file; nullopt if it does not exist or cannot be read.
std::optional<Bytes> read_file(const std::string& path);

}  // namespace dpr::util
