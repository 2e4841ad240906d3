#include "mdc/state/codec.hpp"

#include <array>

namespace mdc::state {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the byte-at-a-time table; t[k][b] is the CRC state after byte
/// b is followed by k zero bytes, so one 8-byte word folds in with eight
/// independent lookups.
constexpr CrcTables makeCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrc = makeCrcTables();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  std::uint32_t c = 0xffffffffu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = loadLe<std::uint32_t>(p) ^ c;
    const std::uint32_t hi = loadLe<std::uint32_t>(p + 4);
    c = kCrc[7][lo & 0xffu] ^ kCrc[6][(lo >> 8) & 0xffu] ^
        kCrc[5][(lo >> 16) & 0xffu] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xffu] ^ kCrc[2][(hi >> 8) & 0xffu] ^
        kCrc[1][(hi >> 16) & 0xffu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kCrc[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t byte : bytes) {
    h ^= byte;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace mdc::state
