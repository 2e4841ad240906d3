// End-to-end tests for fault injection, heartbeat failure detection, and
// self-healing recovery (E13): crashed switches must not leave permanent
// black holes, dead VMs must be purged from switch tables, and pod
// outages must freeze inter-pod cooperation until repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "mdc/fault/fault_injector.hpp"
#include "mdc/scenario/megadc.hpp"

namespace mdc {
namespace {

double dnsWeight(const AuthoritativeDns& dns, AppId app, VipId vip) {
  for (const VipWeight& w : dns.vips(app)) {
    if (w.vip == vip) return w.weight;
  }
  return -1.0;
}

std::vector<std::pair<VipId, AppId>> vipsOn(const MegaDc& dc, SwitchId sw) {
  std::vector<std::pair<VipId, AppId>> hosted;
  for (const Application& a : dc.apps.all()) {
    for (VipId vip : a.vips) {
      if (dc.fleet.ownerOf(vip) == sw) hosted.emplace_back(vip, a.id);
    }
  }
  return hosted;
}

TEST(FaultRecovery, SwitchCrashOrphansRehostedWithinBound) {
  MegaDc dc{testScaleConfig()};
  dc.bootstrap();
  dc.runUntil(100.0);

  const SwitchId victim{0};
  const auto hosted = vipsOn(dc, victim);
  ASSERT_GE(hosted.size(), 2u);  // multi-VIP orphan batch

  dc.faults->crashSwitch(victim, 100.5);  // never repaired

  // Worst-case recovery: detection delay + one heartbeat + the serialized
  // restore of every orphan + a couple of engine epochs of slack.
  const auto& h = dc.health->options();
  const double bound =
      dc.health->detectionDelayBound() + h.heartbeatInterval +
      static_cast<double>(hosted.size()) *
          (dc.config().manager.viprip.processSeconds +
           dc.config().switchLimits.reconfigSeconds) +
      2.0 * dc.config().engine.epoch + 5.0;
  dc.runUntil(100.5 + bound);

  EXPECT_EQ(dc.health->switchFailuresDetected(), 1u);
  EXPECT_EQ(dc.health->vipsRestored(), hosted.size());
  EXPECT_EQ(dc.fleet.pendingOrphans(), 0u);
  for (const auto& [vip, app] : hosted) {
    const auto owner = dc.fleet.ownerOf(vip);
    ASSERT_TRUE(owner.has_value());     // re-hosted...
    EXPECT_NE(*owner, victim);          // ...on a healthy switch...
    EXPECT_TRUE(dc.fleet.isUp(*owner));
    EXPECT_GT(dnsWeight(dc.dns, app, vip), 0.0);  // ...and exposed again.
  }
  EXPECT_EQ(dc.health->vipRecoverySeconds().count(), hosted.size());
  EXPECT_LE(dc.health->vipRecoverySeconds().maxRecorded(), bound);

  // No permanent black hole: once restored, nothing is unrouted for lack
  // of a VIP owner and demand is served again.
  dc.runUntil(dc.sim.now() + 20.0);
  const EpochReport& r = dc.engine->latest();
  const auto noOwner = r.unroutedByCause.find("no_owner");
  EXPECT_LT(noOwner == r.unroutedByCause.end() ? 0.0 : noOwner->second, 1.0);
  EXPECT_GT(r.totalServedRps() / r.totalDemandRps(), 0.9);
  EXPECT_GT(dc.health->unavailabilityRpsSeconds(), 0.0);  // blackout cost
}

TEST(FaultRecovery, BlipSweepRestoresInAscendingSwitchId) {
  MegaDc dc{testScaleConfig()};
  dc.bootstrap();
  dc.runUntil(100.0);

  // Every switch crashes and reboots between heartbeats, in neither
  // ascending nor descending id order, so no probe ever sees one down:
  // only the blip sweep finds their orphans.
  const SwitchId crashOrder[] = {SwitchId{1}, SwitchId{2}, SwitchId{0}};
  std::map<VipId, SwitchId> orphanedFrom;
  for (const SwitchId sw : crashOrder) {
    const auto hosted = vipsOn(dc, sw);
    ASSERT_FALSE(hosted.empty()) << "switch " << sw;
    for (const auto& [vip, app] : hosted) orphanedFrom[vip] = sw;
  }
  dc.tracer->setEnabled(true);
  for (const SwitchId sw : crashOrder) {
    dc.fleet.crashSwitch(sw, dc.sim.now());
    dc.fleet.recoverSwitch(sw);
  }
  dc.runUntil(dc.sim.now() + dc.health->detectionDelayBound() +
              2.0 * dc.health->options().heartbeatInterval);
  EXPECT_EQ(dc.health->switchFailuresDetected(), 3u);
  EXPECT_EQ(dc.fleet.pendingOrphans(), 0u);

  // Every orphan's RestoreVip was submitted, in ascending switch id.
  std::vector<SwitchId> submittedFrom;
  for (const TraceEvent& e : dc.tracer->ring().snapshot()) {
    if (e.hop != HopKind::RequestSubmitted ||
        std::string_view(e.code) != "RestoreVip") {
      continue;
    }
    const auto it = orphanedFrom.find(
        VipId{static_cast<VipId::value_type>(e.a)});
    ASSERT_NE(it, orphanedFrom.end()) << "restore of vip " << e.a;
    submittedFrom.push_back(it->second);
  }
  EXPECT_EQ(submittedFrom.size(), orphanedFrom.size());
  EXPECT_TRUE(std::is_sorted(submittedFrom.begin(), submittedFrom.end()));
}

TEST(FaultRecovery, TeardownSettlesRepairsWhileTheirIssuersLive) {
  // Destroying the world cancels every queued request and in-flight
  // command, and each completion calls back into whoever issued it: the
  // health monitor's restores and the reconciler's repairs here.  Those
  // issuers must outlive the cancellation (a use-after-free under ASan
  // otherwise).  Pod loops are off so that no weight update keeps the
  // lost VIP busy, which would hide it from the reconciler.
  MegaDcConfig cfg = testScaleConfig();
  cfg.manager.enablePodLoops = false;
  MegaDc dc{cfg};
  dc.bootstrap();
  dc.runUntil(100.0);
  for (std::uint32_t i = 0; i < dc.fleet.size(); ++i) {
    dc.manager->viprip().ctrlChannel().setPartitioned(SwitchId{i}, true);
  }
  // An orphaned switch for the monitor, and a lost VIP for the reconciler.
  const SwitchId drifted{1};
  const auto lost = vipsOn(dc, drifted);
  ASSERT_FALSE(lost.empty());
  ASSERT_TRUE(dc.fleet.applyRemoveVip(drifted, lost.front().first, true).ok());
  dc.fleet.crashSwitch(SwitchId{0}, dc.sim.now());
  dc.runUntil(dc.sim.now() + dc.health->detectionDelayBound() +
              dc.config().manager.reconciler.periodSeconds + 5.0);
  EXPECT_GT(dc.health->pendingVipRestores(), 0u);
  EXPECT_GT(dc.manager->reconciler().repairsIssued(), 0u);
  EXPECT_GT(dc.manager->viprip().ctrlSender().inflight(), 0u);
}

TEST(FaultRecovery, ServerCrashPurgesDeadVmsAndHeals) {
  MegaDc dc{testScaleConfig()};
  dc.bootstrap();
  dc.runUntil(100.0);

  // Pick a server actually hosting VMs.
  ServerId victim;
  for (const ServerInfo& s : dc.topo.servers()) {
    if (!dc.hosts.vmsOn(s.id).empty()) {
      victim = s.id;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());

  dc.faults->crashServer(victim, 100.5, /*repairAfter=*/100.0);
  dc.runUntil(102.0);
  EXPECT_EQ(dc.hosts.downServers(), 1u);
  const std::uint64_t lost = dc.hosts.vmsLostToCrashes();
  EXPECT_GT(lost, 0u);

  dc.runUntil(160.0);
  // Every casualty detected and its dangling RIPs purged.
  EXPECT_GE(dc.health->serverFailuresDetected(), 1u);
  EXPECT_EQ(dc.health->vmsCleanedUp(), lost);
  EXPECT_TRUE(dc.hosts.crashCasualties().empty());
  EXPECT_EQ(dc.health->vmCleanupSeconds().count(), lost);

  dc.runUntil(260.0);
  EXPECT_EQ(dc.hosts.downServers(), 0u);  // repaired at t=200.5
  EXPECT_TRUE(dc.hosts.serverUp(victim));
  const EpochReport& r = dc.engine->latest();
  const auto deadVm = r.unroutedByCause.find("dead_vm");
  EXPECT_LT(deadVm == r.unroutedByCause.end() ? 0.0 : deadVm->second, 1.0);
  EXPECT_GT(r.totalServedRps() / r.totalDemandRps(), 0.9);
}

TEST(FaultRecovery, CrashOfAnEmptiedServerBlipsWithoutABatch) {
  MegaDc dc{testScaleConfig()};
  dc.bootstrap();
  dc.runUntil(100.0);

  // The first crash kills the server's VMs and the monitor collects them.
  const ServerId victim{0};
  ASSERT_FALSE(dc.hosts.vmsOn(victim).empty());
  dc.hosts.crashServer(victim);
  dc.runUntil(110.0);
  ASSERT_TRUE(dc.hosts.crashCasualties().empty());

  // Rebooted empty, it crashes and reboots again between heartbeats: the
  // crash kills nothing, so there is no batch for the blip sweep to find.
  dc.hosts.recoverServer(victim);
  EXPECT_EQ(dc.hosts.crashServer(victim), 0u);
  dc.hosts.recoverServer(victim);
  EXPECT_TRUE(dc.hosts.crashCasualties().empty());
  EXPECT_NO_THROW(dc.runUntil(130.0));
}

TEST(FaultRecovery, PodOutageFreezesUntilRepair) {
  MegaDc dc{testScaleConfig()};
  dc.bootstrap();
  dc.runUntil(50.0);

  const PodId pod{0};
  EXPECT_FALSE(dc.health->isPodSuspect(pod));
  dc.faults->podOutage(pod, 50.5, /*repairAfter=*/40.0);

  dc.runUntil(50.5 + dc.health->detectionDelayBound() +
              dc.health->options().heartbeatInterval);
  EXPECT_TRUE(dc.health->isPodSuspect(pod));
  EXPECT_GE(dc.health->podFailuresDetected(), 1u);

  // Back online at t=90.5; the next heartbeat clears the suspicion.
  dc.runUntil(90.5 + 2.0 * dc.health->options().heartbeatInterval);
  EXPECT_FALSE(dc.health->isPodSuspect(pod));
}

TEST(FaultRecovery, RestoreRetriesWhenFleetHasNoHeadroom) {
  // VIP tables sized so the 12 deployed VIPs fill all three switches
  // exactly: after a crash the survivors have zero spare slots and every
  // RestoreVip must retry with backoff until the victim reboots (empty).
  MegaDcConfig cfg = testScaleConfig();
  cfg.switchLimits.maxVips = 4;
  MegaDc dc{cfg};
  dc.bootstrap();
  dc.runUntil(100.0);

  const SwitchId victim{0};
  const auto hosted = vipsOn(dc, victim);
  ASSERT_EQ(hosted.size(), 4u);

  dc.faults->crashSwitch(victim, 100.5, /*repairAfter=*/30.0);
  dc.runUntil(300.0);

  EXPECT_GT(dc.health->restoreRetries(), 0u);
  EXPECT_EQ(dc.health->vipsRestored(), hosted.size());
  EXPECT_EQ(dc.fleet.pendingOrphans(), 0u);
  for (const auto& [vip, app] : hosted) {
    EXPECT_TRUE(dc.fleet.ownerOf(vip).has_value());
    EXPECT_GT(dnsWeight(dc.dns, app, vip), 0.0);
  }
}

TEST(FaultRecovery, InjectorPlanIsDeterministic) {
  auto run = [] {
    Simulation sim;
    TopologyConfig tcfg;
    tcfg.numServers = 8;
    tcfg.numIsps = 2;
    tcfg.numSwitches = 4;
    Topology topo{tcfg};
    SwitchFleet fleet;
    for (int i = 0; i < 4; ++i) fleet.addSwitch(SwitchLimits{});
    HostFleet hosts{topo, sim, HostCostModel{}};
    FaultInjector inj{sim, topo, fleet, hosts, FaultInjector::Options{42}};
    FaultInjector::RandomPlan plan;
    plan.start = 0.0;
    plan.end = 100.0;
    plan.switchCrashes = 2;
    plan.serverCrashes = 3;
    plan.linkCuts = 1;
    plan.repairAfter = 20.0;
    inj.schedulePlan(plan);
    sim.runUntil(200.0);
    return inj.history();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_DOUBLE_EQ(a[i].at, b[i].at);
    EXPECT_DOUBLE_EQ(a[i].repairAt, b[i].repairAt);
  }
}

TEST(FaultRecovery, DisabledMonitorLeavesBlackHole) {
  MegaDcConfig cfg = testScaleConfig();
  cfg.enableHealthMonitor = false;
  MegaDc dc{cfg};
  EXPECT_EQ(dc.health, nullptr);
  dc.bootstrap();
  dc.runUntil(100.0);
  const auto hosted = vipsOn(dc, SwitchId{0});
  ASSERT_FALSE(hosted.empty());
  dc.faults->crashSwitch(SwitchId{0}, 100.5);
  dc.runUntil(200.0);
  // Nobody recovers the orphans: the black hole persists.
  EXPECT_EQ(dc.fleet.pendingOrphans(), hosted.size());
  const EpochReport& r = dc.engine->latest();
  EXPECT_GT(r.unroutedByCause.count("no_owner")
                ? r.unroutedByCause.at("no_owner")
                : 0.0,
            0.0);
}

}  // namespace
}  // namespace mdc
