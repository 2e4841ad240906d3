#include "mdc/lb/lb_switch.hpp"

#include <algorithm>

#include "mdc/util/expect.hpp"

namespace mdc {

double VipEntry::totalWeight() const {
  double w = 0.0;
  for (const RipEntry& e : rips) w += e.weight;
  return w;
}

LbSwitch::LbSwitch(SwitchId id, SwitchLimits limits)
    : id_(id), limits_(limits) {
  MDC_EXPECT(id.valid(), "switch id invalid");
  MDC_EXPECT(limits.maxVips > 0 && limits.maxRips > 0,
             "switch limits must be positive");
  MDC_EXPECT(limits.capacityGbps > 0.0, "switch capacity must be positive");
}

VipEntry* LbSwitch::findVipMutable(VipId vip) {
  const auto it = vipIndex_.find(vip);
  return it == vipIndex_.end() ? nullptr : &vips_[it->second];
}

const VipEntry* LbSwitch::findVip(VipId vip) const {
  const auto it = vipIndex_.find(vip);
  return it == vipIndex_.end() ? nullptr : &vips_[it->second];
}

Status LbSwitch::configureVip(VipId vip, AppId app) {
  MDC_EXPECT(vip.valid() && app.valid(), "configureVip: invalid ids");
  if (!up_) return Status::fail("switch_down");
  if (vipCount() >= limits_.maxVips) {
    return Status::fail("vip_table_full");
  }
  if (hasVip(vip)) {
    return Status::fail("vip_exists");
  }
  vipIndex_.emplace(vip, vips_.size());
  vips_.push_back(VipEntry{vip, app, {}});
  ++reconfigOps_;
  return Status::okStatus();
}

Status LbSwitch::removeVip(VipId vip) {
  if (!up_) return Status::fail("switch_down");
  const auto it = vipIndex_.find(vip);
  if (it == vipIndex_.end()) {
    return Status::fail("vip_unknown");
  }
  if (activeConnections(vip) > 0) {
    return Status::fail("vip_has_connections");
  }
  const std::size_t idx = it->second;
  ripCount_ -= static_cast<std::uint32_t>(vips_[idx].rips.size());
  // Swap-and-pop, fixing the displaced entry's index.
  if (idx + 1 != vips_.size()) {
    vips_[idx] = std::move(vips_.back());
    vipIndex_[vips_[idx].vip] = idx;
  }
  vips_.pop_back();
  vipIndex_.erase(it);
  ++reconfigOps_;
  return Status::okStatus();
}

Status LbSwitch::addRip(VipId vip, RipEntry entry) {
  MDC_EXPECT(entry.rip.valid(), "addRip: invalid rip id");
  MDC_EXPECT(entry.vm.valid() != entry.mvip.valid(),
             "addRip: exactly one of vm/mvip must be set");
  if (!up_) return Status::fail("switch_down");
  VipEntry* e = findVipMutable(vip);
  if (e == nullptr) return Status::fail("vip_unknown");
  if (ripCount_ >= limits_.maxRips) return Status::fail("rip_table_full");
  if (e->findRip(entry.rip) != nullptr) return Status::fail("rip_exists");
  if (entry.weight < 0.0) return Status::fail("bad_weight");
  e->rips.push_back(entry);
  ++ripCount_;
  ++reconfigOps_;
  return Status::okStatus();
}

Status LbSwitch::removeRip(VipId vip, RipId rip) {
  if (!up_) return Status::fail("switch_down");
  VipEntry* e = findVipMutable(vip);
  if (e == nullptr) return Status::fail("vip_unknown");
  const auto it =
      std::find_if(e->rips.begin(), e->rips.end(),
                   [rip](const RipEntry& r) { return r.rip == rip; });
  if (it == e->rips.end()) return Status::fail("rip_unknown");
  e->rips.erase(it);
  --ripCount_;
  ++reconfigOps_;
  return Status::okStatus();
}

Result<bool> LbSwitch::setRipWeight(VipId vip, RipId rip, double weight) {
  if (!up_) return Error{"switch_down", ""};
  VipEntry* e = findVipMutable(vip);
  if (e == nullptr) return Error{"vip_unknown", ""};
  if (weight < 0.0) return Error{"bad_weight", ""};
  const auto it =
      std::find_if(e->rips.begin(), e->rips.end(),
                   [rip](const RipEntry& r) { return r.rip == rip; });
  if (it == e->rips.end()) return Error{"rip_unknown", ""};
  if (it->weight == weight) return false;
  it->weight = weight;
  ++reconfigOps_;
  return true;
}

void LbSwitch::attachShard(ConnectionShard* shard) {
  MDC_EXPECT(shard == nullptr || shard_ == nullptr,
             "attachShard: a shard is already attached");
  shard_ = shard;
}

std::uint64_t LbSwitch::crash() {
  MDC_EXPECT(up_, "crash: switch already down");
  const std::uint64_t severed = shard_ != nullptr ? shard_->severAll() : 0;
  up_ = false;
  vips_.clear();
  vipIndex_.clear();
  ripCount_ = 0;
  offeredGbps_ = 0.0;
  return severed;
}

void LbSwitch::recover() {
  MDC_EXPECT(!up_, "recover: switch is not down");
  up_ = true;
}

}  // namespace mdc
