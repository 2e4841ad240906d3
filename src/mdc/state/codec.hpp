// Canonical binary codec for durable manager state.
//
// Every byte that reaches the changelog or a snapshot goes through
// ByteWriter/ByteReader, so the encoding rules live in exactly one
// place and stay platform-independent:
//  * integers are little-endian, fixed width (no varints — replay cost
//    and record sizes stay predictable), each moved as one word
//    (storeLe/loadLe below are the only place the byte order is spelled
//    out);
//  * doubles are bit_cast to u64 (bit-identical roundtrip, NaNs and
//    signed zeros included — required for deterministic state hashes);
//  * strings and ids are length-/sentinel-prefixed so a reader can
//    always resynchronize at a record boundary.
//
// ByteReader is fail-soft: reading past the end (or a malformed
// length) clears ok() and yields zero values instead of throwing, so
// corruption-tolerant replay can probe a record and discard it without
// unwinding.  Callers must check ok() before trusting decoded values.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "mdc/util/ids.hpp"

namespace mdc::state {

/// Writes `v` little-endian at `p` (sizeof(T) bytes).
template <std::unsigned_integral T>
void storeLe(std::uint8_t* p, T v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

/// Reads a little-endian T from `p` (sizeof(T) bytes).
template <std::unsigned_integral T>
[[nodiscard]] T loadLe(const std::uint8_t* p) noexcept {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      v |= static_cast<T>(p[i]) << (8 * i);
    }
  }
  return v;
}

/// Appends `v` little-endian to `out`: one word-sized copy.
template <std::unsigned_integral T>
void appendLe(std::vector<std::uint8_t>& out, T v) {
  std::uint8_t le[sizeof v];
  storeLe(le, v);
  out.insert(out.end(), le, le + sizeof v);
}

/// Appends encoded values to a growing buffer.  Each append is one
/// capacity check, one store and one size bump: the buffer grows
/// geometrically, and the bytes past size() are slack, never read.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { *grow(1) = v; }
  void u32(std::uint32_t v) { storeLe(grow(4), v); }
  void u64(std::uint64_t v) { storeLe(grow(8), v); }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void b(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    if (!s.empty()) std::memcpy(grow(s.size()), s.data(), s.size());
  }

  /// Appends bytes verbatim (an already-encoded section).
  void raw(std::span<const std::uint8_t> b) {
    if (!b.empty()) std::memcpy(grow(b.size()), b.data(), b.size());
  }

  /// Strong ids encode their raw value; the invalid sentinel rides
  /// along unchanged so optional references roundtrip.
  template <typename Id>
  void id(Id v) {
    u32(v.value());
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {buf_.data(), size_};
  }
  /// Moves the written bytes out and leaves the writer empty.
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Makes room for `n` bytes in all without growing again.
  void reserve(std::size_t n) {
    if (n > buf_.size()) buf_.resize(n);
  }
  void clear() noexcept { size_ = 0; }

 private:
  /// Claims the next `n` bytes and returns where they start.
  std::uint8_t* grow(std::size_t n) {
    if (buf_.size() - size_ < n) {
      buf_.resize(std::max({std::size_t{64}, 2 * buf_.size(), size_ + n}));
    }
    std::uint8_t* at = buf_.data() + size_;
    size_ += n;
    return at;
  }

  std::vector<std::uint8_t> buf_;  // [0, size_) written, the rest slack
  std::size_t size_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) noexcept
      : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() noexcept {
    if (!take(1)) return 0;
    return bytes_[pos_ - 1];
  }

  [[nodiscard]] std::uint32_t u32() noexcept {
    return take(4) ? loadLe<std::uint32_t>(&bytes_[pos_ - 4]) : 0;
  }

  [[nodiscard]] std::uint64_t u64() noexcept {
    return take(8) ? loadLe<std::uint64_t>(&bytes_[pos_ - 8]) : 0;
  }

  [[nodiscard]] double f64() noexcept {
    return std::bit_cast<double>(u64());
  }

  [[nodiscard]] bool b() noexcept { return u8() != 0; }

  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    return std::string(reinterpret_cast<const char*>(&bytes_[pos_ - n]),
                       n);
  }

  template <typename Id>
  [[nodiscard]] Id id() noexcept {
    return Id{u32()};
  }

  /// False once any read ran past the end; all subsequent reads yield
  /// zero values.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  /// ok() and every byte consumed — a strict decoder's exit check.
  [[nodiscard]] bool exhausted() const noexcept {
    return ok_ && pos_ == bytes_.size();
  }

 private:
  bool take(std::size_t n) noexcept {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.  Guards every changelog
/// record and snapshot payload against torn writes and bit rot.  Runs
/// slicing-by-8: eight table lookups per 8-byte word, the same values as
/// the byte-at-a-time definition.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

/// FNV-1a 64-bit hash.  Used for deterministic state fingerprints —
/// cheap, order-sensitive, and stable across platforms.
[[nodiscard]] std::uint64_t fnv1a64(
    std::span<const std::uint8_t> bytes) noexcept;

}  // namespace mdc::state
