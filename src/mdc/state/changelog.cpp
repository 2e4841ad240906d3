#include "mdc/state/changelog.hpp"

#include "mdc/util/expect.hpp"

namespace mdc::state {

std::uint64_t Changelog::append(std::span<const std::uint8_t> payload) {
  MDC_EXPECT(payload.size() <= kMaxRecordBytes, "changelog record too large");
  appendLe(bytes_, static_cast<std::uint32_t>(payload.size()));
  appendLe(bytes_, crc32(payload));
  bytes_.insert(bytes_.end(), payload.begin(), payload.end());
  return endIndex_++;
}

std::int64_t Changelog::parseFrameAt(std::size_t pos) const noexcept {
  if (bytes_.size() - pos < kFrameHeaderBytes) return -1;
  const auto len = loadLe<std::uint32_t>(bytes_.data() + pos);
  if (len > kMaxRecordBytes) return -1;
  if (bytes_.size() - pos - kFrameHeaderBytes < len) return -1;
  const auto want = loadLe<std::uint32_t>(bytes_.data() + pos + 4);
  const std::span<const std::uint8_t> payload(
      bytes_.data() + pos + kFrameHeaderBytes, len);
  if (crc32(payload) != want) return -1;
  return static_cast<std::int64_t>(len);
}

Changelog::Replay Changelog::replay() const {
  Replay out;
  out.firstIndex = baseIndex_;
  std::size_t pos = 0;
  while (pos < bytes_.size()) {
    const std::int64_t len = parseFrameAt(pos);
    if (len < 0) {
      out.truncatedTail = true;
      out.trailingBytes = bytes_.size() - pos;
      break;
    }
    out.records.emplace_back(bytes_.data() + pos + kFrameHeaderBytes,
                             static_cast<std::size_t>(len));
    pos += kFrameHeaderBytes + static_cast<std::size_t>(len);
  }
  return out;
}

std::uint64_t Changelog::truncateToValidPrefix(std::uint64_t maxRecords) {
  std::size_t pos = 0;
  std::uint64_t kept = 0;
  while (pos < bytes_.size() && kept < maxRecords) {
    const std::int64_t len = parseFrameAt(pos);
    if (len < 0) break;
    pos += kFrameHeaderBytes + static_cast<std::size_t>(len);
    ++kept;
  }
  const std::uint64_t removed = bytes_.size() - pos;
  bytes_.resize(pos);
  endIndex_ = baseIndex_ + kept;
  return removed;
}

std::uint64_t Changelog::compactTo(std::uint64_t index) {
  std::size_t pos = 0;
  std::uint64_t dropped = 0;
  while (baseIndex_ + dropped < index && pos < bytes_.size()) {
    const std::int64_t len = parseFrameAt(pos);
    if (len < 0) break;  // never compact into a damaged region
    pos += kFrameHeaderBytes + static_cast<std::size_t>(len);
    ++dropped;
  }
  bytes_.erase(bytes_.begin(),
               bytes_.begin() + static_cast<std::ptrdiff_t>(pos));
  baseIndex_ += dropped;
  compactedRecords_ += dropped;
  return dropped;
}

std::uint64_t Changelog::resetTo(std::uint64_t index) {
  MDC_EXPECT(index >= endIndex_, "resetTo may only move the log forward");
  const std::uint64_t dropped = endIndex_ - baseIndex_;
  bytes_.clear();
  compactedRecords_ += dropped;
  baseIndex_ = index;
  endIndex_ = index;
  return dropped;
}

bool Changelog::tearTail(std::uint64_t entropy) {
  // Find the last frame's start so the cut lands inside it.
  std::size_t pos = 0;
  std::size_t last = 0;
  bool any = false;
  while (pos < bytes_.size()) {
    const std::int64_t len = parseFrameAt(pos);
    if (len < 0) break;
    last = pos;
    any = true;
    pos += kFrameHeaderBytes + static_cast<std::size_t>(len);
  }
  if (!any) return false;
  const std::size_t frameLen = pos - last;
  // Keep 0..frameLen-1 bytes of the final frame: everything from a bare
  // half-written length field to an almost-complete record.
  const std::size_t keep = entropy % frameLen;
  bytes_.resize(last + keep);
  return true;
}

bool Changelog::corruptTail(std::uint64_t entropy) {
  std::size_t pos = 0;
  std::size_t last = 0;
  std::int64_t lastLen = -1;
  while (pos < bytes_.size()) {
    const std::int64_t len = parseFrameAt(pos);
    if (len < 0) break;
    last = pos;
    lastLen = len;
    pos += kFrameHeaderBytes + static_cast<std::size_t>(len);
  }
  if (lastLen < 0) return false;
  // CRC-covered region: checksum field + payload (length field excluded
  // so the frame still parses and the CRC check is what rejects it).
  const std::size_t lo = last + 4;
  const std::size_t span = 4 + static_cast<std::size_t>(lastLen);
  const std::size_t byteAt = lo + (entropy % span);
  bytes_[byteAt] ^= static_cast<std::uint8_t>(1u << ((entropy >> 32) % 8));
  return true;
}

}  // namespace mdc::state
