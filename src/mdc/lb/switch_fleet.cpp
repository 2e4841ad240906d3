#include "mdc/lb/switch_fleet.hpp"

#include "mdc/util/expect.hpp"

namespace mdc {

SwitchId SwitchFleet::addSwitch(const SwitchLimits& limits) {
  const SwitchId id{static_cast<SwitchId::value_type>(switches_.size())};
  switches_.emplace_back(id, limits);
  return id;
}

LbSwitch& SwitchFleet::at(SwitchId sw) {
  MDC_EXPECT(sw.valid() && sw.index() < switches_.size(), "unknown switch");
  return switches_[sw.index()];
}

const LbSwitch& SwitchFleet::at(SwitchId sw) const {
  MDC_EXPECT(sw.valid() && sw.index() < switches_.size(), "unknown switch");
  return switches_[sw.index()];
}

void SwitchFleet::bumpVip(VipId vip) {
  const std::size_t i = vip.index();
  if (i >= vipVersions_.size()) {
    vipVersions_.resize(i + 1, 0);
    owner_.resize(i + 1);
    orphanMarks_.resize(i + 1, 0);
  }
  ++vipVersions_[i];
  if (vipLogOpen_) vipLog_.push_back(vip);
}

void SwitchFleet::openVipLog() {
  MDC_EXPECT(!vipLogOpen_, "the vip change log already has a reader");
  vipLogOpen_ = true;
  for (std::size_t i = 0; i < vipVersions_.size(); ++i) {
    if (vipVersions_[i] > 0) {
      vipLog_.push_back(VipId{static_cast<VipId::value_type>(i)});
    }
  }
}

void SwitchFleet::closeVipLog() {
  vipLogOpen_ = false;
  vipLog_ = {};
}

void SwitchFleet::takeVipMutations(std::vector<VipId>& out) {
  out.clear();
  out.swap(vipLog_);
}

std::optional<SwitchId> SwitchFleet::ownerOf(VipId vip) const {
  const SwitchId sw = owner(vip);
  if (!sw.valid()) return std::nullopt;
  return sw;
}

Status SwitchFleet::configureVip(SwitchId sw, VipId vip, AppId app) {
  if (owner(vip).valid()) return Status::fail("vip_owned_elsewhere");
  const Status s = at(sw).configureVip(vip, app);
  if (s.ok()) {
    bumpVip(vip);
    owner_[vip.index()] = sw;
  }
  return s;
}

Status SwitchFleet::removeVip(VipId vip) {
  const SwitchId sw = owner(vip);
  if (!sw.valid()) return Status::fail("vip_unowned");
  const Status s = at(sw).removeVip(vip);
  if (s.ok()) {
    owner_[vip.index()] = SwitchId{};
    bumpVip(vip);
  }
  return s;
}

Status SwitchFleet::transferVip(VipId vip, SwitchId to, bool force) {
  const SwitchId from = owner(vip);
  if (!from.valid()) return Status::fail("vip_unowned");
  if (from == to) return Status::fail("same_switch");
  LbSwitch& src = at(from);
  LbSwitch& dst = at(to);
  if (!dst.up()) return Status::fail("switch_down");

  const std::uint64_t inFlight = src.activeConnections(vip);
  if (inFlight > 0 && !force) {
    return Status::fail("vip_in_use",
                        std::to_string(inFlight) + " tracked connections");
  }

  const VipEntry* entry = src.findVip(vip);
  MDC_ENSURE(entry != nullptr, "ownership index out of sync");

  // Check the destination before mutating anything.  It may already hold
  // a duplicate copy (a control-plane race): refuse rather than merge.
  if (dst.hasVip(vip)) return Status::fail("vip_exists");
  if (dst.spareVips() == 0) return Status::fail("vip_table_full");
  if (dst.spareRips() < entry->rips.size()) {
    return Status::fail("rip_table_full");
  }

  const std::vector<RipEntry> rips = entry->rips;  // copy before removal
  const AppId app = entry->app;
  if (inFlight > 0) {
    droppedConns_ += src.dropConnections(vip);
  }
  Status s = src.removeVip(vip);
  MDC_ENSURE(s.ok(), "source removeVip must succeed after drop");
  s = dst.configureVip(vip, app);
  MDC_ENSURE(s.ok(), "destination configureVip must succeed after check");
  for (const RipEntry& r : rips) {
    s = dst.addRip(vip, r);
    MDC_ENSURE(s.ok(), "destination addRip must succeed after check");
  }
  owner_[vip.index()] = to;
  ++transfers_;
  bumpVip(vip);
  if (onTransfer_) onTransfer_(vip, from, to);
  return Status::okStatus();
}

std::optional<SwitchId> SwitchFleet::otherHostOf(VipId vip,
                                                 SwitchId excluding) const {
  for (const LbSwitch& sw : switches_) {
    if (sw.id() == excluding || !sw.up()) continue;
    if (sw.hasVip(vip)) return sw.id();
  }
  return std::nullopt;
}

Status SwitchFleet::applyConfigureVip(SwitchId sw, VipId vip, AppId app) {
  const Status s = at(sw).configureVip(vip, app);
  // First host wins the index; a late duplicate stays un-indexed until
  // the reconciler removes one copy.
  if (s.ok()) {
    bumpVip(vip);
    if (!owner_[vip.index()].valid()) owner_[vip.index()] = sw;
  }
  return s;
}

Status SwitchFleet::applyRemoveVip(SwitchId sw, VipId vip,
                                   bool dropConnections) {
  LbSwitch& target = at(sw);
  if (dropConnections && target.up() && target.hasVip(vip)) {
    droppedConns_ += target.dropConnections(vip);
  }
  const Status s = target.removeVip(vip);
  if (s.ok()) {
    bumpVip(vip);
    if (owner_[vip.index()] == sw) {
      owner_[vip.index()] = otherHostOf(vip, sw).value_or(SwitchId{});
    }
  }
  return s;
}

Status SwitchFleet::applyAddRip(SwitchId sw, VipId vip, RipEntry entry) {
  const Status s = at(sw).addRip(vip, entry);
  if (s.ok()) bumpVip(vip);
  return s;
}

Status SwitchFleet::applyRemoveRip(SwitchId sw, VipId vip, RipId rip) {
  const Status s = at(sw).removeRip(vip, rip);
  if (s.ok()) bumpVip(vip);
  return s;
}

Status SwitchFleet::applySetRipWeight(SwitchId sw, VipId vip, RipId rip,
                                      double weight) {
  const Result<bool> changed = at(sw).setRipWeight(vip, rip, weight);
  if (!changed.ok()) return changed.error();
  if (changed.value()) bumpVip(vip);
  return Status::okStatus();
}

std::vector<SwitchId> SwitchFleet::hostsOf(VipId vip) const {
  std::vector<SwitchId> hosts;
  for (const LbSwitch& sw : switches_) {
    if (sw.up() && sw.hasVip(vip)) hosts.push_back(sw.id());
  }
  return hosts;
}

std::size_t SwitchFleet::crashSwitch(SwitchId sw, SimTime now) {
  LbSwitch& victim = at(sw);
  MDC_EXPECT(victim.up(), "crashSwitch: switch already down");
  auto& stranded = orphans_[sw];
  std::size_t orphaned = 0;
  for (const VipEntry& entry : victim.vips()) {
    const VipId vip = entry.vip;
    // A duplicate host (control-plane race) keeps the VIP alive: repoint
    // the index there instead of declaring an orphan.
    const auto survivor = otherHostOf(vip, sw);
    bumpVip(vip);
    owner_[vip.index()] = survivor.value_or(SwitchId{});
    if (survivor.has_value()) continue;
    stranded.push_back(OrphanedVip{vip, entry.app, entry.rips, now});
    ++orphanMarks_[vip.index()];
    ++orphaned;
  }
  if (stranded.empty()) orphans_.erase(sw);
  droppedConns_ += victim.crash();
  ++crashes_;
  return orphaned;
}

void SwitchFleet::recoverSwitch(SwitchId sw) { at(sw).recover(); }

std::size_t SwitchFleet::upCount() const {
  std::size_t n = 0;
  for (const LbSwitch& sw : switches_) {
    if (sw.up()) ++n;
  }
  return n;
}

std::vector<OrphanedVip> SwitchFleet::takeOrphans(SwitchId sw) {
  auto batch = orphans_.extract(sw);
  if (batch.empty()) return {};
  for (const OrphanedVip& o : batch.mapped()) --orphanMarks_[o.vip.index()];
  return std::move(batch.mapped());
}

std::size_t SwitchFleet::pendingOrphans() const {
  std::size_t n = 0;
  for (const auto& [sw, list] : orphans_) n += list.size();
  return n;
}

Status SwitchFleet::addRip(VipId vip, RipEntry entry) {
  const SwitchId sw = owner(vip);
  if (!sw.valid()) return Status::fail("vip_unowned");
  const Status s = at(sw).addRip(vip, entry);
  if (s.ok()) bumpVip(vip);
  return s;
}

Status SwitchFleet::removeRip(VipId vip, RipId rip) {
  const SwitchId sw = owner(vip);
  if (!sw.valid()) return Status::fail("vip_unowned");
  const Status s = at(sw).removeRip(vip, rip);
  if (s.ok()) bumpVip(vip);
  return s;
}

Status SwitchFleet::setRipWeight(VipId vip, RipId rip, double weight) {
  const SwitchId sw = owner(vip);
  if (!sw.valid()) return Status::fail("vip_unowned");
  return applySetRipWeight(sw, vip, rip, weight);
}

const VipEntry* SwitchFleet::findVip(VipId vip) const {
  const SwitchId sw = owner(vip);
  if (!sw.valid()) return nullptr;
  return at(sw).findVip(vip);
}

std::uint32_t SwitchFleet::totalVips() const {
  std::uint32_t n = 0;
  for (const LbSwitch& sw : switches_) n += sw.vipCount();
  return n;
}

std::uint32_t SwitchFleet::totalRips() const {
  std::uint32_t n = 0;
  for (const LbSwitch& sw : switches_) n += sw.ripCount();
  return n;
}

std::vector<double> SwitchFleet::offeredGbps() const {
  std::vector<double> out;
  out.reserve(switches_.size());
  for (const LbSwitch& sw : switches_) out.push_back(sw.offeredGbps());
  return out;
}

void SwitchFleet::forEach(
    const std::function<void(const LbSwitch&)>& fn) const {
  for (const LbSwitch& sw : switches_) fn(sw);
}

}  // namespace mdc
