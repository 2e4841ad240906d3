// Unit tests for the LB switch model and the switch fleet.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "mdc/lb/conn_shard.hpp"
#include "mdc/lb/lb_switch.hpp"
#include "mdc/lb/switch_fleet.hpp"
#include "mdc/util/expect.hpp"

namespace mdc {
namespace {

constexpr VipId kVip{10};
constexpr AppId kApp{0};

SwitchLimits tinyLimits() {
  SwitchLimits lim;
  lim.maxVips = 2;
  lim.maxRips = 4;
  lim.capacityGbps = 4.0;
  lim.maxConnections = 3;
  return lim;
}

RipEntry vmRip(std::uint32_t rip, std::uint32_t vm, double w = 1.0) {
  RipEntry e;
  e.rip = RipId{rip};
  e.vm = VmId{vm};
  e.weight = w;
  return e;
}

TEST(LbSwitch, ConfigureAndFindVip) {
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  EXPECT_TRUE(sw.configureVip(kVip, kApp).ok());
  ASSERT_NE(sw.findVip(kVip), nullptr);
  EXPECT_EQ(sw.findVip(kVip)->app, kApp);
  EXPECT_EQ(sw.vipCount(), 1u);
  EXPECT_EQ(sw.spareVips(), 1u);
}

TEST(LbSwitch, VipTableLimitEnforced) {
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  EXPECT_TRUE(sw.configureVip(VipId{1}, kApp).ok());
  EXPECT_TRUE(sw.configureVip(VipId{2}, kApp).ok());
  const Status s = sw.configureVip(VipId{3}, kApp);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "vip_table_full");
}

TEST(LbSwitch, DuplicateVipRejected) {
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  EXPECT_TRUE(sw.configureVip(kVip, kApp).ok());
  EXPECT_EQ(sw.configureVip(kVip, kApp).error().code, "vip_exists");
}

TEST(LbSwitch, RipTableLimitSharedAcrossVips) {
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  ASSERT_TRUE(sw.configureVip(VipId{1}, kApp).ok());
  ASSERT_TRUE(sw.configureVip(VipId{2}, kApp).ok());
  EXPECT_TRUE(sw.addRip(VipId{1}, vmRip(0, 0)).ok());
  EXPECT_TRUE(sw.addRip(VipId{1}, vmRip(1, 1)).ok());
  EXPECT_TRUE(sw.addRip(VipId{2}, vmRip(2, 2)).ok());
  EXPECT_TRUE(sw.addRip(VipId{2}, vmRip(3, 3)).ok());
  EXPECT_EQ(sw.addRip(VipId{1}, vmRip(4, 4)).error().code, "rip_table_full");
  EXPECT_EQ(sw.ripCount(), 4u);
  EXPECT_EQ(sw.spareRips(), 0u);
}

TEST(LbSwitch, RemoveVipFreesRips) {
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  ASSERT_TRUE(sw.configureVip(kVip, kApp).ok());
  ASSERT_TRUE(sw.addRip(kVip, vmRip(0, 0)).ok());
  ASSERT_TRUE(sw.addRip(kVip, vmRip(1, 1)).ok());
  EXPECT_TRUE(sw.removeVip(kVip).ok());
  EXPECT_EQ(sw.ripCount(), 0u);
  EXPECT_EQ(sw.vipCount(), 0u);
  EXPECT_FALSE(sw.hasVip(kVip));
}

TEST(LbSwitch, RemoveVipWithSwapAndPopKeepsIndexCoherent) {
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  ASSERT_TRUE(sw.configureVip(VipId{1}, kApp).ok());
  ASSERT_TRUE(sw.configureVip(VipId{2}, AppId{1}).ok());
  ASSERT_TRUE(sw.removeVip(VipId{1}).ok());
  ASSERT_NE(sw.findVip(VipId{2}), nullptr);
  EXPECT_EQ(sw.findVip(VipId{2})->app, AppId{1});
}

TEST(LbSwitch, RipOperations) {
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  ASSERT_TRUE(sw.configureVip(kVip, kApp).ok());
  ASSERT_TRUE(sw.addRip(kVip, vmRip(0, 0, 2.0)).ok());
  EXPECT_EQ(sw.addRip(kVip, vmRip(0, 1)).error().code, "rip_exists");
  EXPECT_TRUE(sw.setRipWeight(kVip, RipId{0}, 5.0).value());  // changed
  EXPECT_DOUBLE_EQ(sw.findVip(kVip)->findRip(RipId{0})->weight, 5.0);
  EXPECT_FALSE(sw.setRipWeight(kVip, RipId{0}, 5.0).value());  // same
  EXPECT_EQ(sw.setRipWeight(kVip, RipId{9}, 1.0).error().code, "rip_unknown");
  EXPECT_EQ(sw.setRipWeight(kVip, RipId{0}, -1.0).error().code, "bad_weight");
  EXPECT_TRUE(sw.removeRip(kVip, RipId{0}).ok());
  EXPECT_EQ(sw.removeRip(kVip, RipId{0}).error().code, "rip_unknown");
}

TEST(LbSwitch, MvipRipTargetsVip) {
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  ASSERT_TRUE(sw.configureVip(kVip, kApp).ok());
  RipEntry e;
  e.rip = RipId{0};
  e.mvip = VipId{77};
  ASSERT_TRUE(sw.addRip(kVip, e).ok());
  EXPECT_FALSE(sw.findVip(kVip)->findRip(RipId{0})->targetsVm());
}

TEST(LbSwitch, RipMustTargetExactlyOneKind) {
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  ASSERT_TRUE(sw.configureVip(kVip, kApp).ok());
  RipEntry both;
  both.rip = RipId{0};
  both.vm = VmId{1};
  both.mvip = VipId{2};
  EXPECT_THROW((void)sw.addRip(kVip, both), PreconditionError);
  RipEntry neither;
  neither.rip = RipId{1};
  EXPECT_THROW((void)sw.addRip(kVip, neither), PreconditionError);
}

TEST(LbSwitch, ConnectionTrackingPinsRip) {
  // Sessions live in the attached shard: the switch counts them, per VIP
  // too, and the shard keeps each one's RIP until it completes.
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  EXPECT_EQ(sw.activeConnections(), 0u);  // no shard: nothing tracked
  EXPECT_EQ(sw.dropConnections(kVip), 0u);
  ConnectionShard shard;
  sw.attachShard(&shard);
  ASSERT_TRUE(sw.configureVip(kVip, kApp).ok());
  ASSERT_TRUE(sw.addRip(kVip, vmRip(0, 0)).ok());
  ASSERT_TRUE(sw.addRip(kVip, vmRip(1, 1)).ok());
  shard.open(7, kApp, kVip, RipId{1}, /*expiryTick=*/2);
  EXPECT_EQ(sw.activeConnections(), 1u);
  EXPECT_EQ(sw.activeConnections(kVip), 1u);
  EXPECT_EQ(sw.activeConnections(VipId{11}), 0u);
  std::vector<std::pair<std::uint64_t, RipId>> pinned;
  shard.forEachOfVip(kVip, [&](std::uint64_t id, RipId rip) {
    pinned.emplace_back(id, rip);
  });
  ASSERT_EQ(pinned.size(), 1u);
  EXPECT_EQ(pinned[0].first, 7u);
  EXPECT_EQ(pinned[0].second, RipId{1});
  EXPECT_EQ(shard.expireDue(1), 0u);
  EXPECT_EQ(shard.expireDue(2), 1u);
  EXPECT_EQ(sw.activeConnections(), 0u);
  EXPECT_EQ(sw.activeConnections(kVip), 0u);
  sw.attachShard(nullptr);
}

TEST(LbSwitch, RemoveVipWithConnectionsRefused) {
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  ConnectionShard shard;
  sw.attachShard(&shard);
  ASSERT_TRUE(sw.configureVip(kVip, kApp).ok());
  ASSERT_TRUE(sw.addRip(kVip, vmRip(0, 0)).ok());
  shard.open(0, kApp, kVip, RipId{0}, /*expiryTick=*/5);
  EXPECT_EQ(sw.removeVip(kVip).error().code, "vip_has_connections");
  EXPECT_EQ(sw.dropConnections(kVip), 1u);
  EXPECT_EQ(shard.broken(), 1u);
  EXPECT_TRUE(sw.removeVip(kVip).ok());
  sw.attachShard(nullptr);
}

TEST(LbSwitch, ReconfigOpsCounted) {
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  ASSERT_TRUE(sw.configureVip(kVip, kApp).ok());
  ASSERT_TRUE(sw.addRip(kVip, vmRip(0, 0)).ok());
  ASSERT_TRUE(sw.setRipWeight(kVip, RipId{0}, 2.0).ok());
  ASSERT_TRUE(sw.setRipWeight(kVip, RipId{0}, 2.0).ok());  // no change
  ASSERT_TRUE(sw.removeRip(kVip, RipId{0}).ok());
  ASSERT_TRUE(sw.removeVip(kVip).ok());
  EXPECT_EQ(sw.reconfigOps(), 5u);
}

TEST(LbSwitch, UtilizationGauge) {
  LbSwitch sw{SwitchId{0}, tinyLimits()};
  sw.setOfferedGbps(2.0);
  EXPECT_DOUBLE_EQ(sw.utilization(), 0.5);
}

TEST(ConnectionShard, SlotsReuseLifoAndSeveredWheelEntriesGoStale) {
  ConnectionShard shard{4};  // wheel of 4 slots: ticks 3 and 7 share one
  shard.open(1, kApp, kVip, RipId{0}, 3);       // slot 0
  shard.open(2, kApp, VipId{11}, RipId{1}, 3);  // slot 1
  shard.open(3, kApp, kVip, RipId{2}, 7);       // slot 2, a later lap
  EXPECT_EQ(shard.severVip(kVip), 2u);          // frees slots 0, then 2
  EXPECT_EQ(shard.countForVip(kVip), 0u);
  shard.open(4, kApp, kVip, RipId{3}, 3);  // reuses slot 2 (LIFO)
  std::vector<std::uint64_t> ids;
  shard.forEach([&](std::uint64_t id, AppId, VipId, RipId, std::uint64_t) {
    ids.push_back(id);
  });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 4}));  // slot order
  // The severed sessions' wheel entries are stale and complete nothing.
  EXPECT_EQ(shard.expireDue(3), 2u);
  EXPECT_EQ(shard.expireDue(7), 0u);
  EXPECT_EQ(shard.size(), 0u);
  EXPECT_EQ(shard.opened(), 4u);
  EXPECT_EQ(shard.completed(), 2u);
  EXPECT_EQ(shard.broken(), 2u);
}

// ------------------------------------------------------------- fleet --

TEST(SwitchFleet, OwnershipIndex) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  const SwitchId b = fleet.addSwitch(tinyLimits());
  EXPECT_EQ(fleet.size(), 2u);
  EXPECT_FALSE(fleet.ownerOf(kVip).has_value());
  ASSERT_TRUE(fleet.configureVip(a, kVip, kApp).ok());
  EXPECT_EQ(fleet.ownerOf(kVip).value(), a);
  EXPECT_EQ(fleet.configureVip(b, kVip, kApp).error().code,
            "vip_owned_elsewhere");
}

TEST(SwitchFleet, RemoveVipClearsOwnership) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  ASSERT_TRUE(fleet.configureVip(a, kVip, kApp).ok());
  ASSERT_TRUE(fleet.removeVip(kVip).ok());
  EXPECT_FALSE(fleet.ownerOf(kVip).has_value());
  EXPECT_EQ(fleet.removeVip(kVip).error().code, "vip_unowned");
}

TEST(SwitchFleet, TransferMovesRipsAndWeights) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  const SwitchId b = fleet.addSwitch(tinyLimits());
  ASSERT_TRUE(fleet.configureVip(a, kVip, kApp).ok());
  ASSERT_TRUE(fleet.addRip(kVip, vmRip(0, 0, 2.5)).ok());
  ASSERT_TRUE(fleet.addRip(kVip, vmRip(1, 1, 1.5)).ok());

  ASSERT_TRUE(fleet.transferVip(kVip, b).ok());
  EXPECT_EQ(fleet.ownerOf(kVip).value(), b);
  EXPECT_FALSE(fleet.at(a).hasVip(kVip));
  const VipEntry* e = fleet.at(b).findVip(kVip);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->rips.size(), 2u);
  EXPECT_DOUBLE_EQ(e->findRip(RipId{0})->weight, 2.5);
  EXPECT_EQ(fleet.vipTransfers(), 1u);
}

TEST(SwitchFleet, TransferRefusedWhileInUse) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  const SwitchId b = fleet.addSwitch(tinyLimits());
  ASSERT_TRUE(fleet.configureVip(a, kVip, kApp).ok());
  ASSERT_TRUE(fleet.addRip(kVip, vmRip(0, 0)).ok());
  ConnectionShard shard;
  fleet.at(a).attachShard(&shard);
  shard.open(0, kApp, kVip, RipId{0}, /*expiryTick=*/5);

  EXPECT_EQ(fleet.transferVip(kVip, b).error().code, "vip_in_use");
  EXPECT_EQ(fleet.ownerOf(kVip).value(), a);

  // Forced transfer drops the connection and counts the violation.
  ASSERT_TRUE(fleet.transferVip(kVip, b, /*force=*/true).ok());
  EXPECT_EQ(fleet.droppedConnections(), 1u);
  EXPECT_EQ(shard.size(), 0u);
  EXPECT_EQ(fleet.ownerOf(kVip).value(), b);
  fleet.at(a).attachShard(nullptr);
}

TEST(SwitchFleet, TransferChecksDestinationCapacity) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  const SwitchId b = fleet.addSwitch(tinyLimits());
  ASSERT_TRUE(fleet.configureVip(a, kVip, kApp).ok());
  // Fill b's VIP table.
  ASSERT_TRUE(fleet.configureVip(b, VipId{20}, kApp).ok());
  ASSERT_TRUE(fleet.configureVip(b, VipId{21}, kApp).ok());
  EXPECT_EQ(fleet.transferVip(kVip, b).error().code, "vip_table_full");
  EXPECT_EQ(fleet.ownerOf(kVip).value(), a);  // unchanged on failure
}

TEST(SwitchFleet, TransferChecksDestinationRipCapacity) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  const SwitchId b = fleet.addSwitch(tinyLimits());
  ASSERT_TRUE(fleet.configureVip(a, kVip, kApp).ok());
  ASSERT_TRUE(fleet.addRip(kVip, vmRip(0, 0)).ok());
  ASSERT_TRUE(fleet.addRip(kVip, vmRip(1, 1)).ok());
  // b has VIP space but only 1 of the 2 needed RIP slots free.
  ASSERT_TRUE(fleet.configureVip(b, VipId{20}, kApp).ok());
  ASSERT_TRUE(fleet.addRip(VipId{20}, vmRip(2, 2)).ok());
  ASSERT_TRUE(fleet.addRip(VipId{20}, vmRip(3, 3)).ok());
  ASSERT_TRUE(fleet.addRip(VipId{20}, vmRip(4, 4)).ok());
  EXPECT_EQ(fleet.transferVip(kVip, b).error().code, "rip_table_full");
  EXPECT_EQ(fleet.ownerOf(kVip).value(), a);  // unchanged on failure
  // The source still serves: its table was not touched.
  EXPECT_EQ(fleet.at(a).ripCount(), 2u);
}

TEST(SwitchFleet, TransferOntoDuplicateHostRefused) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  const SwitchId b = fleet.addSwitch(tinyLimits());
  ASSERT_TRUE(fleet.configureVip(a, kVip, kApp).ok());
  ASSERT_TRUE(fleet.addRip(kVip, vmRip(0, 0)).ok());
  // A control-plane race left a second copy on b.
  ASSERT_TRUE(fleet.applyConfigureVip(b, kVip, kApp).ok());
  EXPECT_EQ(fleet.transferVip(kVip, b, /*force=*/true).error().code,
            "vip_exists");
  EXPECT_EQ(fleet.ownerOf(kVip).value(), a);  // unchanged on failure
  EXPECT_EQ(fleet.at(a).ripCount(), 1u);
}

TEST(SwitchFleet, TransferToCrashedSwitchRefused) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  const SwitchId b = fleet.addSwitch(tinyLimits());
  ASSERT_TRUE(fleet.configureVip(a, kVip, kApp).ok());
  fleet.crashSwitch(b, 1.0);
  EXPECT_EQ(fleet.transferVip(kVip, b).error().code, "switch_down");
  EXPECT_EQ(fleet.ownerOf(kVip).value(), a);
}

TEST(SwitchFleet, CrashOrphansVipsAndSeversConnections) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  ASSERT_TRUE(fleet.configureVip(a, kVip, kApp).ok());
  ASSERT_TRUE(fleet.configureVip(a, VipId{11}, AppId{1}).ok());
  ASSERT_TRUE(fleet.addRip(kVip, vmRip(0, 0, 2.5)).ok());
  ConnectionShard shard;
  fleet.at(a).attachShard(&shard);
  shard.open(0, kApp, kVip, RipId{0}, /*expiryTick=*/5);

  EXPECT_EQ(fleet.crashSwitch(a, 42.0), 2u);
  EXPECT_FALSE(fleet.isUp(a));
  EXPECT_EQ(fleet.upCount(), 0u);
  EXPECT_EQ(fleet.switchCrashes(), 1u);
  EXPECT_EQ(fleet.droppedConnections(), 1u);
  EXPECT_EQ(shard.size(), 0u);
  EXPECT_EQ(shard.broken(), 1u);
  EXPECT_FALSE(fleet.ownerOf(kVip).has_value());  // ownership released
  EXPECT_EQ(fleet.pendingOrphans(), 2u);

  // Orphans carry the last-known configuration for re-placement.
  auto orphans = fleet.takeOrphans(a);
  ASSERT_EQ(orphans.size(), 2u);
  const auto& o = orphans[0].vip == kVip ? orphans[0] : orphans[1];
  EXPECT_EQ(o.app, kApp);
  EXPECT_DOUBLE_EQ(o.orphanedAt, 42.0);
  ASSERT_EQ(o.rips.size(), 1u);
  EXPECT_DOUBLE_EQ(o.rips[0].weight, 2.5);
  EXPECT_EQ(fleet.pendingOrphans(), 0u);  // surrendered exactly once

  // A crashed switch refuses operations until it reboots, then comes
  // back with empty tables.
  EXPECT_EQ(fleet.configureVip(a, VipId{12}, kApp).error().code,
            "switch_down");
  fleet.recoverSwitch(a);
  EXPECT_TRUE(fleet.isUp(a));
  EXPECT_EQ(fleet.at(a).vipCount(), 0u);
  EXPECT_TRUE(fleet.configureVip(a, VipId{12}, kApp).ok());
  fleet.at(a).attachShard(nullptr);
}

TEST(SwitchFleet, TransferToSameSwitchRejected) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  ASSERT_TRUE(fleet.configureVip(a, kVip, kApp).ok());
  EXPECT_EQ(fleet.transferVip(kVip, a).error().code, "same_switch");
}

TEST(SwitchFleet, FleetWideAccounting) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  const SwitchId b = fleet.addSwitch(tinyLimits());
  ASSERT_TRUE(fleet.configureVip(a, VipId{1}, kApp).ok());
  ASSERT_TRUE(fleet.configureVip(b, VipId{2}, kApp).ok());
  ASSERT_TRUE(fleet.addRip(VipId{1}, vmRip(0, 0)).ok());
  EXPECT_EQ(fleet.totalVips(), 2u);
  EXPECT_EQ(fleet.totalRips(), 1u);

  fleet.at(a).setOfferedGbps(1.0);
  fleet.at(b).setOfferedGbps(3.0);
  const auto offered = fleet.offeredGbps();
  EXPECT_DOUBLE_EQ(offered[0], 1.0);
  EXPECT_DOUBLE_EQ(offered[1], 3.0);

  int visited = 0;
  fleet.forEach([&](const LbSwitch&) { ++visited; });
  EXPECT_EQ(visited, 2);
}

TEST(SwitchFleet, VipLogHoldsOnlyWhatItsReaderHasNotTaken) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  constexpr VipId kOther{3};
  std::vector<VipId> taken{VipId{99}};  // a take drops what it held
  // No reader yet: nothing is logged...
  ASSERT_TRUE(fleet.configureVip(a, kVip, kApp).ok());
  ASSERT_TRUE(fleet.addRip(kVip, vmRip(0, 0)).ok());
  ASSERT_TRUE(fleet.configureVip(a, kOther, kApp).ok());
  // ...but a reader that attaches now starts complete: every VIP mutated
  // so far, once, in ascending id.
  fleet.openVipLog();
  fleet.takeVipMutations(taken);
  EXPECT_EQ(taken, (std::vector<VipId>{kOther, kVip}));
  // Then every bump, in bump order, each handed over once.
  ASSERT_TRUE(fleet.setRipWeight(kVip, RipId{0}, 2.0).ok());
  ASSERT_TRUE(fleet.removeVip(kOther).ok());
  ASSERT_TRUE(fleet.setRipWeight(kVip, RipId{0}, 3.0).ok());
  fleet.takeVipMutations(taken);
  EXPECT_EQ(taken, (std::vector<VipId>{kVip, kOther, kVip}));
  fleet.takeVipMutations(taken);
  EXPECT_TRUE(taken.empty());
  EXPECT_THROW(fleet.openVipLog(), PreconditionError);  // one reader
  // Closed, the log takes nothing; the next reader starts complete.
  fleet.closeVipLog();
  ASSERT_TRUE(fleet.removeRip(kVip, RipId{0}).ok());
  fleet.openVipLog();
  fleet.takeVipMutations(taken);
  EXPECT_EQ(taken, (std::vector<VipId>{kOther, kVip}));
}

// A write of the weight a RIP already has changes nothing the epoch
// engine or a session route resolves, so it bumps neither the VIP's
// version nor its change log; a new weight bumps both.  Through the owner
// index and through a per-switch apply alike.
TEST(SwitchFleet, UnchangedRipWeightBumpsNothing) {
  SwitchFleet fleet;
  const SwitchId a = fleet.addSwitch(tinyLimits());
  ASSERT_TRUE(fleet.configureVip(a, kVip, kApp).ok());
  ASSERT_TRUE(fleet.addRip(kVip, vmRip(0, 0, 2.0)).ok());
  fleet.openVipLog();
  std::vector<VipId> taken;
  fleet.takeVipMutations(taken);
  const std::uint64_t v0 = fleet.vipConfigVersion(kVip);

  ASSERT_TRUE(fleet.setRipWeight(kVip, RipId{0}, 2.0).ok());
  ASSERT_TRUE(fleet.applySetRipWeight(a, kVip, RipId{0}, 2.0).ok());
  EXPECT_EQ(fleet.vipConfigVersion(kVip), v0);
  fleet.takeVipMutations(taken);
  EXPECT_TRUE(taken.empty());

  ASSERT_TRUE(fleet.setRipWeight(kVip, RipId{0}, 3.0).ok());
  EXPECT_EQ(fleet.vipConfigVersion(kVip), v0 + 1);
  ASSERT_TRUE(fleet.applySetRipWeight(a, kVip, RipId{0}, 4.0).ok());
  EXPECT_EQ(fleet.vipConfigVersion(kVip), v0 + 2);
  fleet.takeVipMutations(taken);
  EXPECT_EQ(taken, (std::vector<VipId>{kVip, kVip}));
  EXPECT_DOUBLE_EQ(fleet.findVip(kVip)->findRip(RipId{0})->weight, 4.0);

  // A failed write bumps nothing either.
  EXPECT_EQ(fleet.setRipWeight(kVip, RipId{7}, 1.0).error().code,
            "rip_unknown");
  EXPECT_EQ(fleet.applySetRipWeight(a, kVip, RipId{0}, -1.0).error().code,
            "bad_weight");
  EXPECT_EQ(fleet.vipConfigVersion(kVip), v0 + 2);
  fleet.takeVipMutations(taken);
  EXPECT_TRUE(taken.empty());
  fleet.closeVipLog();
}

TEST(SwitchFleet, RipOpsOnUnownedVip) {
  SwitchFleet fleet;
  fleet.addSwitch(tinyLimits());
  EXPECT_EQ(fleet.addRip(kVip, vmRip(0, 0)).error().code, "vip_unowned");
  EXPECT_EQ(fleet.removeRip(kVip, RipId{0}).error().code, "vip_unowned");
  EXPECT_EQ(fleet.setRipWeight(kVip, RipId{0}, 1.0).error().code,
            "vip_unowned");
  EXPECT_EQ(fleet.findVip(kVip), nullptr);
}

TEST(ConnectionShard, PerVipCountsMatchSlotScanUnderRandomChurn) {
  // Each VIP's count lives in a cell the shard assigns on first use and
  // adjusts by index on every open and close.  Under random opens (by VIP
  // and by cell), expiries, VIP severs and whole-shard severs, every
  // count equals a scan of the live slots, and a VIP keeps its cell.
  ConnectionShard shard{8};
  std::mt19937_64 rng{0xC0C0};
  constexpr std::uint32_t kVips = 24;
  constexpr std::uint32_t kUnseen = 0xffffffffu;
  std::vector<std::uint32_t> cells(kVips, kUnseen);
  std::uint64_t tick = 0;
  std::uint64_t nextId = 0;
  std::uint64_t severs = 0;
  for (int step = 0; step < 6000; ++step) {
    const VipId vip{100 + static_cast<std::uint32_t>(rng() % kVips)};
    switch (rng() % 16) {
      case 0:
        shard.expireDue(++tick);
        break;
      case 1:
        severs += shard.severVip(vip);
        break;
      case 2:
        if (rng() % 20 == 0) severs += shard.severAll();
        break;
      default: {
        const std::uint64_t expiry = tick + 1 + rng() % 20;
        if (rng() % 2 == 0) {
          shard.open(nextId++, kApp, vip, RipId{1}, expiry);
        } else {
          shard.openInCell(nextId++, kApp, shard.cellOf(vip), RipId{2},
                           expiry);
        }
        break;
      }
    }
    std::vector<std::uint64_t> scan(kVips, 0);
    std::uint64_t live = 0;
    shard.forEach([&](std::uint64_t, AppId, VipId v, RipId, std::uint64_t) {
      ++scan[v.value() - 100];
      ++live;
    });
    ASSERT_EQ(shard.size(), live) << "step " << step;
    for (std::uint32_t v = 0; v < kVips; ++v) {
      const VipId id{100 + v};
      ASSERT_EQ(shard.countForVip(id), scan[v]) << "vip " << id << " step "
                                                << step;
      std::uint64_t ofVip = 0;
      shard.forEachOfVip(id, [&](std::uint64_t, RipId) { ++ofVip; });
      ASSERT_EQ(ofVip, scan[v]);
    }
    const std::uint32_t cell = shard.cellOf(vip);
    std::uint32_t& known = cells[vip.value() - 100];
    if (known == kUnseen) known = cell;
    ASSERT_EQ(cell, known) << "a VIP's cell moved";
  }
  EXPECT_EQ(shard.opened(), nextId);
  EXPECT_EQ(shard.broken(), severs);
  EXPECT_GT(severs, 0u);
  EXPECT_GT(shard.completed(), 0u);
}

TEST(SwitchFleet, OrphanMarksMatchPendingBatchesUnderRandomCrashes) {
  // isOrphaned reads a per-VIP mark that crashes raise and takeOrphans
  // lowers.  Under random placements (duplicate hosts included), crashes,
  // recoveries and collections, it answers as a scan of every pending
  // batch does.
  SwitchFleet fleet;
  constexpr std::uint32_t kSwitches = 4;
  constexpr std::uint32_t kVips = 30;
  SwitchLimits limits;
  limits.maxVips = 16;
  for (std::uint32_t s = 0; s < kSwitches; ++s) fleet.addSwitch(limits);
  std::mt19937_64 rng{0x0A9A};
  std::uint64_t crashes = 0;
  std::uint64_t collected = 0;
  for (int step = 0; step < 5000; ++step) {
    const SwitchId sw{static_cast<std::uint32_t>(rng() % kSwitches)};
    const VipId vip{static_cast<std::uint32_t>(rng() % kVips)};
    switch (rng() % 8) {
      case 0:
        if (fleet.isUp(sw)) {
          fleet.crashSwitch(sw, static_cast<double>(step));
          ++crashes;
        }
        break;
      case 1:
        if (!fleet.isUp(sw)) fleet.recoverSwitch(sw);
        break;
      case 2:
        collected += fleet.takeOrphans(sw).size();
        break;
      case 3:
        (void)fleet.applyRemoveVip(sw, vip, true);
        break;
      case 4:  // a second host of an owned VIP
        (void)fleet.applyConfigureVip(sw, vip, kApp);
        break;
      default:
        (void)fleet.configureVip(sw, vip, kApp);
        break;
    }
    std::vector<bool> pending(kVips, false);
    for (const auto& [s, batch] : fleet.orphans()) {
      for (const OrphanedVip& o : batch) pending[o.vip.index()] = true;
    }
    for (std::uint32_t v = 0; v < kVips; ++v) {
      ASSERT_EQ(fleet.isOrphaned(VipId{v}), pending[v])
          << "vip " << v << " step " << step;
    }
  }
  EXPECT_GT(crashes, 100u);
  EXPECT_GT(collected, 100u);
}

}  // namespace
}  // namespace mdc
