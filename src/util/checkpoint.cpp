#include "util/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/crash.hpp"

namespace dpr::util {

namespace {

/// Append `v` little-endian: the bytes are composed in a local array and
/// appended with one insert, so the buffer grows per value, not per byte.
template <class T>
void append_le(Bytes& out, T v) {
  std::uint8_t le[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  out.insert(out.end(), le, le + sizeof(T));
}

template <class T>
T load_le(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

std::uint64_t xxh64_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kXxPrime2, 31) * kXxPrime1;
}

std::uint64_t xxh64_merge(std::uint64_t hash, std::uint64_t acc) {
  return (hash ^ xxh64_round(0, acc)) * kXxPrime1 + kXxPrime4;
}

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::uint64_t fnv1a64_u64(std::uint64_t value, std::uint64_t hash) {
  for (int i = 0; i < 8; ++i) {
    hash ^= static_cast<std::uint8_t>(value >> (8 * i));
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::uint64_t fnv1a64_f64(double value, std::uint64_t hash) {
  return fnv1a64_u64(std::bit_cast<std::uint64_t>(value), hash);
}

std::uint64_t fnv1a64_str(const std::string& value, std::uint64_t hash) {
  hash = fnv1a64_u64(value.size(), hash);
  for (const char c : value) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::uint64_t xxh64(std::span<const std::uint8_t> bytes, std::uint64_t seed) {
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  std::uint64_t hash = seed + kXxPrime5;
  if (bytes.size() >= 32) {
    // Four independent lanes over 32-byte stripes.
    std::uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = seed + kXxPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = xxh64_round(v1, load_le<std::uint64_t>(p));
      v2 = xxh64_round(v2, load_le<std::uint64_t>(p + 8));
      v3 = xxh64_round(v3, load_le<std::uint64_t>(p + 16));
      v4 = xxh64_round(v4, load_le<std::uint64_t>(p + 24));
    }
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
           std::rotl(v4, 18);
    hash = xxh64_merge(hash, v1);
    hash = xxh64_merge(hash, v2);
    hash = xxh64_merge(hash, v3);
    hash = xxh64_merge(hash, v4);
  }
  hash += bytes.size();

  // The 8-, 4- and 1-byte tails.
  for (; end - p >= 8; p += 8) {
    hash ^= xxh64_round(0, load_le<std::uint64_t>(p));
    hash = std::rotl(hash, 27) * kXxPrime1 + kXxPrime4;
  }
  if (end - p >= 4) {
    hash ^= load_le<std::uint32_t>(p) * kXxPrime1;
    hash = std::rotl(hash, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    hash ^= *p * kXxPrime5;
    hash = std::rotl(hash, 11) * kXxPrime1;
  }

  // Avalanche.
  hash ^= hash >> 33;
  hash *= kXxPrime2;
  hash ^= hash >> 29;
  hash *= kXxPrime3;
  hash ^= hash >> 32;
  return hash;
}

void BinaryWriter::u16(std::uint16_t v) { append_le(buffer_, v); }

void BinaryWriter::u32(std::uint32_t v) { append_le(buffer_, v); }

void BinaryWriter::u64(std::uint64_t v) { append_le(buffer_, v); }

void BinaryWriter::str(const std::string& v) {
  u64(v.size());
  const auto* chars = reinterpret_cast<const std::uint8_t*>(v.data());
  buffer_.insert(buffer_.end(), chars, chars + v.size());
}

void BinaryWriter::bytes(std::span<const std::uint8_t> v) {
  u64(v.size());
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

std::span<const std::uint8_t> BinaryReader::take(std::size_t n) {
  if (n > data_.size() - pos_) {
    throw std::runtime_error("checkpoint: truncated payload");
  }
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::uint8_t BinaryReader::u8() { return take(1)[0]; }

std::uint16_t BinaryReader::u16() {
  const auto d = take(2);
  return static_cast<std::uint16_t>(d[0] | (d[1] << 8));
}

std::uint32_t BinaryReader::u32() {
  const auto d = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(d[i]) << (8 * i);
  return v;
}

std::uint64_t BinaryReader::u64() {
  const auto d = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(d[i]) << (8 * i);
  return v;
}

std::string BinaryReader::str() {
  const std::uint64_t n = u64();
  const auto d = take(n);
  return std::string(d.begin(), d.end());
}

Bytes BinaryReader::bytes() {
  const std::uint64_t n = u64();
  const auto d = take(n);
  return Bytes(d.begin(), d.end());
}

std::string IoResult::message() const {
  if (ok) return {};
  std::string out = stage;
  out += ": ";
  out += std::strerror(error);
  return out;
}

IoResult IoResult::failure(const char* stage, int error) {
  IoResult r;
  r.ok = false;
  r.error = error;
  r.stage = stage;
  return r;
}

namespace {

/// Transient conditions worth a bounded retry: interrupted syscalls and
/// momentary resource exhaustion (a checkpoint directory shared with a
/// log writer can bounce off ENOSPC/EDQUOT for one rotation cycle).
bool transient_errno(int error) {
  return error == EINTR || error == EAGAIN || error == ENOSPC ||
         error == EDQUOT;
}

constexpr int kWriteAttempts = 3;

/// One full open→write→fsync→rename→fsync-dir attempt.
IoResult write_file_atomic_once(const std::string& path, const std::string& tmp,
                                std::span<const std::uint8_t> data) {
  int fd = -1;
  do {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return IoResult::failure("open_tmp", errno);

  std::size_t written = 0;
  while (written < data.size()) {
    const ::ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int error = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return IoResult::failure("write", error);
    }
    written += static_cast<std::size_t>(n);
  }
  DPR_CRASH_POINT("ckpt.tmp_written");

  // fsync before the rename: once the new name is visible it must point
  // at fully persisted bytes, or a crash could leave a "successfully
  // renamed" file with a torn tail.
  if (::fsync(fd) != 0) {
    const int error = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return IoResult::failure("fsync", error);
  }
  if (::close(fd) != 0) {
    const int error = errno;
    ::unlink(tmp.c_str());
    return IoResult::failure("close", error);
  }
  DPR_CRASH_POINT("ckpt.pre_rename");

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int error = errno;
    ::unlink(tmp.c_str());
    return IoResult::failure("rename", error);
  }
  DPR_CRASH_POINT("ckpt.post_rename");

  // fsync the parent directory so the rename's directory entry is durable
  // too (best effort: some filesystems refuse O_RDONLY directory fsync —
  // that is not a data-loss path on them, so it is not an error here).
  const auto slash = path.find_last_of('/');
  const std::string parent = slash == std::string::npos
                                 ? std::string(".")
                                 : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return IoResult::success();
}

}  // namespace

IoResult write_file_atomic(const std::string& path,
                           std::span<const std::uint8_t> data) {
  // The pid suffix keeps two processes writing the same key from
  // clobbering each other's temp file mid-write; the rename still makes
  // last-writer-wins atomic at the final name.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  IoResult result;
  for (int attempt = 0; attempt < kWriteAttempts; ++attempt) {
    result = write_file_atomic_once(path, tmp, data);
    if (result.ok || !transient_errno(result.error)) return result;
  }
  return result;
}

std::optional<Bytes> read_file(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (!in) return std::nullopt;
  Bytes data;
  std::uint8_t chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
    data.insert(data.end(), chunk, chunk + n);
  }
  const bool ok = std::ferror(in) == 0;
  std::fclose(in);
  if (!ok) return std::nullopt;
  return data;
}

}  // namespace dpr::util
