#include "mdc/lb/conn_shard.hpp"

#include <algorithm>

#include "mdc/util/expect.hpp"

namespace mdc {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnvMix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

std::uint64_t roundUpPow2(std::uint64_t n) noexcept {
  std::uint64_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

ConnectionShard::ConnectionShard(std::uint32_t wheelSlots)
    : wheel_(roundUpPow2(wheelSlots)), mask_(wheel_.size() - 1) {}

std::uint32_t ConnectionShard::findCell(VipId vip) const noexcept {
  const auto it = std::ranges::lower_bound(cellIndex_, vip, {},
                                           &CellIndexEntry::first);
  return it != cellIndex_.end() && it->first == vip ? it->second : kNoCell;
}

std::uint32_t ConnectionShard::cellOf(VipId vip) {
  const auto it = std::ranges::lower_bound(cellIndex_, vip, {},
                                           &CellIndexEntry::first);
  if (it != cellIndex_.end() && it->first == vip) return it->second;
  const auto cell = static_cast<std::uint32_t>(cellVip_.size());
  cellIndex_.insert(it, {vip, cell});
  cellVip_.push_back(vip);
  perCell_.push_back(0);
  return cell;
}

void ConnectionShard::openInCell(std::uint64_t sessionId, AppId app,
                                 std::uint32_t cell, RipId rip,
                                 std::uint64_t expiryTick) {
  MDC_EXPECT(cell < perCell_.size(), "openInCell: unknown cell");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{});
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.id = sessionId;
  s.expiry = expiryTick;
  s.app = app.value();
  s.cell = cell;
  s.rip = rip.value();
  ++s.gen;  // odd: live
  wheel_[expiryTick & mask_].push_back(
      (static_cast<std::uint64_t>(slot) << 32) | s.gen);
  ++perCell_[cell];
  ++size_;
  ++opened_;
}

void ConnectionShard::closeSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  MDC_ENSURE(perCell_[s.cell] > 0, "shard per-vip count corrupt");
  --perCell_[s.cell];
  ++s.gen;  // even: free; wheel entries pointing here are now stale
  free_.push_back(slot);
  --size_;
}

std::uint64_t ConnectionShard::expireDue(std::uint64_t tick) {
  auto& bucket = wheel_[tick & mask_];
  std::uint64_t done = 0;
  std::size_t keep = 0;
  for (const std::uint64_t entry : bucket) {
    const auto slot = static_cast<std::uint32_t>(entry >> 32);
    const auto gen = static_cast<std::uint32_t>(entry);
    const Slot& s = slots_[slot];
    if (s.gen != gen) continue;  // stale: drop
    if (s.expiry <= tick) {
      closeSlot(slot);
      ++done;
    } else {
      bucket[keep++] = entry;  // a later lap of the wheel
    }
  }
  bucket.resize(keep);
  completed_ += done;
  return done;
}

std::uint64_t ConnectionShard::severVip(VipId vip) {
  if (countForVip(vip) == 0) return 0;
  const std::uint32_t cell = findCell(vip);
  std::uint64_t severed = 0;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].live() && slots_[slot].cell == cell) {
      closeSlot(slot);
      ++severed;
    }
  }
  broken_ += severed;
  return severed;
}

std::uint64_t ConnectionShard::severAll() {
  const std::uint64_t severed = size_;
  slots_.clear();
  free_.clear();
  for (auto& bucket : wheel_) bucket.clear();
  std::fill(perCell_.begin(), perCell_.end(), 0);
  size_ = 0;
  broken_ += severed;
  return severed;
}

std::uint64_t ConnectionShard::countForVip(VipId vip) const {
  const std::uint32_t cell = findCell(vip);
  return cell == kNoCell ? 0 : perCell_[cell];
}

void ConnectionShard::forEachOfVip(
    VipId vip,
    const std::function<void(std::uint64_t, RipId)>& fn) const {
  if (countForVip(vip) == 0) return;
  const std::uint32_t cell = findCell(vip);
  for (const Slot& s : slots_) {
    if (s.live() && s.cell == cell) fn(s.id, RipId{s.rip});
  }
}

void ConnectionShard::forEach(
    const std::function<void(std::uint64_t, AppId, VipId, RipId,
                             std::uint64_t)>& fn) const {
  for (const Slot& s : slots_) {
    if (s.live()) {
      fn(s.id, AppId{s.app}, cellVip_[s.cell], RipId{s.rip}, s.expiry);
    }
  }
}

std::uint64_t ConnectionShard::stateHash() const noexcept {
  std::uint64_t h = kFnvOffset;
  fnvMix(h, size_);
  fnvMix(h, opened_);
  fnvMix(h, completed_);
  fnvMix(h, broken_);
  for (const Slot& s : slots_) {
    if (!s.live()) continue;
    fnvMix(h, s.id);
    fnvMix(h, s.app);
    fnvMix(h, cellVip_[s.cell].value());
    fnvMix(h, s.rip);
    fnvMix(h, s.expiry);
  }
  return h;
}

}  // namespace mdc
