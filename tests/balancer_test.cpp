// Unit tests for the three balancers: access-link, switch, and inter-pod,
// and for the global manager's report that their rounds read.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "mdc/core/global_manager.hpp"
#include "mdc/core/interpod_balancer.hpp"
#include "mdc/core/link_balancer.hpp"
#include "mdc/core/switch_balancer.hpp"

namespace mdc {
namespace {

// ------------------------------------------------------- fixtures -----

struct Fixture {
  Simulation sim;
  Topology topo;
  SwitchFleet fleet;
  AuthoritativeDns dns;
  RouteRegistry routes{1.0};
  AppRegistry apps;
  HostFleet hosts;
  PodRegistry registry;
  std::unique_ptr<VipRipManager> viprip;

  static TopologyConfig topoConfig() {
    TopologyConfig cfg;
    cfg.numServers = 8;
    cfg.numIsps = 2;
    cfg.numSwitches = 3;
    cfg.switchTrunkGbps = 1.0;
    return cfg;
  }

  Fixture()
      : topo(topoConfig()),
        hosts(topo, sim, HostCostModel{}),
        registry(topoConfig().numServers) {
    for (int i = 0; i < 3; ++i) fleet.addSwitch(SwitchLimits{});
    VipRipManager::Options o;
    o.processSeconds = 0.01;
    o.reconfigSeconds = 0.1;
    viprip = std::make_unique<VipRipManager>(sim, fleet, dns, routes, apps,
                                             topo, o);
  }

  AppId makeAppWithVips(int vips, double weight = 1.0) {
    const AppId app = apps.create("a", AppSla{}, 1000.0);
    for (int v = 0; v < vips; ++v) {
      const auto vip = viprip->createVipNow(app);
      EXPECT_TRUE(vip.ok());
      // Back each VIP so it is exposed.
      EXPECT_TRUE(
          viprip->createRipNow(app, VmId{static_cast<std::uint32_t>(v)},
                               weight)
              .ok());
    }
    return app;
  }

  EpochReport report() {
    EpochReport r;
    r.time = sim.now();
    r.accessLinkUtil.assign(topo.accessLinkCount(), 0.1);
    r.switchUtil.assign(topo.switchCount(), 0.1);
    return r;
  }
};

/// Fixture's world run by a global manager with no pods: only the link
/// and switch balancers' rounds (7.5 s and 22.5 s, then every 30 s) and
/// the lease watch are registered.
struct ManagerWorld {
  Simulation sim;
  Topology topo{Fixture::topoConfig()};
  SwitchFleet fleet;
  AuthoritativeDns dns;
  RouteRegistry routes{1.0};
  AppRegistry apps;
  HostFleet hosts{topo, sim, HostCostModel{}};
  PodRegistry registry{Fixture::topoConfig().numServers};
  std::unique_ptr<GlobalManager> gm;

  ManagerWorld() {
    for (int i = 0; i < 3; ++i) fleet.addSwitch(SwitchLimits{});
    GlobalManager::Options o;
    o.viprip.processSeconds = 0.01;
    o.viprip.reconfigSeconds = 0.1;
    o.enableInterPodBalancer = false;
    o.enablePodLoops = false;
    o.enableReconciler = false;
    o.snapshot.enable = false;
    gm = std::make_unique<GlobalManager>(
        sim, topo, hosts, apps, fleet, dns, routes, registry,
        std::make_shared<PlacementController>(), o);
  }

  /// An app with `vips` VIPs and no RIPs.
  AppId makeApp(int vips) {
    const AppId app = apps.create("a", AppSla{}, 1000.0);
    for (int v = 0; v < vips; ++v) {
      EXPECT_TRUE(gm->viprip().createVipNow(app).ok());
    }
    return app;
  }
};

// --------------------------------------------------- link balancer ----

TEST(AccessLinkBalancerTest, ShiftsExposureTowardSpareLink) {
  Fixture f;
  const AppId app = f.makeAppWithVips(2);
  AccessLinkBalancer::Options opt;
  AccessLinkBalancer lb{f.dns, *f.viprip, f.apps, f.fleet, f.topo, opt};

  EpochReport r = f.report();
  const auto& vips = f.apps.app(app).vips;
  const auto ar0 = f.viprip->routerOf(vips[0]);
  r.accessLinkUtil[ar0.index()] = 0.95;  // vip0's link is hot
  lb.runOnce(r);
  EXPECT_GT(lb.weightUpdates(), 0u);
  EXPECT_LT(f.viprip->vipExposureFactor(vips[0]),
            f.viprip->vipExposureFactor(vips[1]));
  // And the DNS weights reflect the factors.
  double w0 = 0, w1 = 0;
  for (const VipWeight& vw : f.dns.vips(app)) {
    if (vw.vip == vips[0]) w0 = vw.weight;
    if (vw.vip == vips[1]) w1 = vw.weight;
  }
  EXPECT_LT(w0, w1);
}

TEST(AccessLinkBalancerTest, SingleVipAppsUntouched) {
  Fixture f;
  const AppId app = f.makeAppWithVips(1);
  AccessLinkBalancer lb{f.dns, *f.viprip, f.apps, f.fleet, f.topo,
                        AccessLinkBalancer::Options{}};
  EpochReport r = f.report();
  r.accessLinkUtil[0] = 2.0;
  lb.runOnce(r);
  EXPECT_EQ(lb.weightUpdates(), 0u);
  (void)app;
}

TEST(AccessLinkBalancerTest, DoesNotReexposeDrainingVip) {
  Fixture f;
  const AppId app = f.makeAppWithVips(2);
  const VipId draining = f.apps.app(app).vips[0];
  f.viprip->setVipExposureFactor(draining, 0.0);
  AccessLinkBalancer lb{f.dns, *f.viprip, f.apps, f.fleet, f.topo,
                        AccessLinkBalancer::Options{}};
  EpochReport r = f.report();
  lb.runOnce(r);
  EXPECT_EQ(f.viprip->vipExposureFactor(draining), 0.0);
}

TEST(AccessLinkBalancerTest, NoReportNoAction) {
  // The manager holds the report the rounds read: until it has observed
  // one, its link-balancer rounds do nothing (a default report would
  // reweight both VIPs).
  ManagerWorld w;
  w.makeApp(2);
  w.gm->start();
  w.sim.runUntil(40.0);  // rounds at 7.5 and 37.5
  EXPECT_EQ(w.gm->linkBalancer().weightUpdates(), 0u);
}

TEST(AccessLinkBalancerTest, SkipsVipAdoptedWithoutRouter) {
  Fixture f;
  const AppId app = f.apps.create("a", AppSla{}, 1000.0);
  const auto kept = f.viprip->createVipNow(app);
  ASSERT_TRUE(kept.ok());
  ASSERT_TRUE(f.viprip->createRipNow(app, VmId{0}, 1.0).ok());
  const auto adopted = f.viprip->createVipNow(app);
  ASSERT_TRUE(adopted.ok());

  // A crash tears the second VIP's AddVip record, the journal's tail: the
  // recovered intent has no record of the VIP while its switch hosts it.
  ASSERT_TRUE(f.viprip->stateMachine().changelog().tearTail(/*entropy=*/5));
  f.viprip->crash();
  f.viprip->recoverAsLeader(2);
  ASSERT_EQ(f.viprip->intent().find(adopted.value()), nullptr);

  // Its switch dies, and restoring the orphan adopts it with no router.
  const SwitchId owner = *f.fleet.ownerOf(adopted.value());
  ASSERT_EQ(f.fleet.crashSwitch(owner, f.sim.now()), 1u);
  auto orphans = f.fleet.takeOrphans(owner);
  ASSERT_EQ(orphans.size(), 1u);
  VipRipRequest restore;
  restore.op = VipRipOp::RestoreVip;
  restore.app = orphans[0].app;
  restore.vip = orphans[0].vip;
  restore.rips = orphans[0].rips;
  Status restored = Status::fail("pending");
  restore.done = [&](Status s) { restored = s; };
  f.viprip->submit(std::move(restore));
  f.sim.runUntil(f.sim.now() + 10.0);
  ASSERT_TRUE(restored.ok());
  ASSERT_FALSE(f.viprip->intent().find(adopted.value())->router.valid());

  // The next failover re-attaches every VIP intent holds to its app, this
  // one included, still without a router.
  f.viprip->crash();
  f.viprip->recoverAsLeader(3);
  ASSERT_EQ(f.apps.app(app).vips.size(), 2u);
  ASSERT_FALSE(f.viprip->intent().find(adopted.value())->router.valid());

  // Both policies balance the VIP that has a link and skip the other.
  EpochReport r = f.report();
  const AccessRouterId hot = f.viprip->routerOf(kept.value());
  r.accessLinkUtil[hot.index()] = 0.95;
  r.vipDemandGbps[kept.value()] = 1.0;
  r.vipDemandGbps[adopted.value()] = 5.0;
  AccessLinkBalancer exposure{f.dns,  *f.viprip, f.apps,
                              f.fleet, f.topo,   AccessLinkBalancer::Options{}};
  exposure.runOnce(r);
  EXPECT_EQ(exposure.weightUpdates(), 1u);
  EXPECT_EQ(f.viprip->vipExposureFactor(adopted.value()), 1.0);

  AccessLinkBalancer::Options opt;
  opt.policy = LinkBalancePolicy::Readvertisement;
  AccessLinkBalancer readvertise{f.dns,  *f.viprip, f.apps,
                                 f.fleet, f.topo,    opt};
  readvertise.runOnce(r);
  EXPECT_EQ(readvertise.vipMoves(), 1u);
  EXPECT_NE(f.viprip->routerOf(kept.value()), hot);
  EXPECT_FALSE(f.viprip->intent().find(adopted.value())->router.valid());
}

// ------------------------------------------------- switch balancer ----

TEST(SwitchBalancerTest, DrainsHotSwitchAndTransfers) {
  Fixture f;
  const AppId app = f.makeAppWithVips(2);
  SwitchBalancer::Options opt;
  opt.highWatermark = 0.8;
  opt.quiesceFraction = 0.5;
  SwitchBalancer sb{f.sim, f.fleet, f.dns, f.apps, *f.viprip, opt};

  const VipId hotVip = f.apps.app(app).vips[0];
  const SwitchId hotSw = *f.fleet.ownerOf(hotVip);

  EpochReport r = f.report();
  r.switchUtil[hotSw.index()] = 1.2;
  r.vipDemandGbps[hotVip] = 1.1;
  sb.runOnce(r);
  EXPECT_EQ(sb.drainsInProgress(), 1u);
  // Draining VIP unexposed.
  EXPECT_EQ(f.viprip->vipExposureFactor(hotVip), 0.0);

  // Demand subsides below the quiesce fraction -> transfer completes.
  EpochReport r2 = f.report();
  r2.vipDemandGbps[hotVip] = 0.2;
  sb.runOnce(r2);
  EXPECT_EQ(sb.transfersCompleted(), 1u);
  EXPECT_EQ(sb.drainsInProgress(), 0u);
  EXPECT_NE(*f.fleet.ownerOf(hotVip), hotSw);
  // Re-exposed after the move.
  EXPECT_GT(f.viprip->vipExposureFactor(hotVip), 0.0);
}

TEST(SwitchBalancerTest, NoDrainBelowWatermark) {
  Fixture f;
  f.makeAppWithVips(2);
  SwitchBalancer sb{f.sim, f.fleet, f.dns, f.apps, *f.viprip,
                    SwitchBalancer::Options{}};
  EpochReport r = f.report();
  sb.runOnce(r);
  EXPECT_EQ(sb.drainsInProgress(), 0u);
}

TEST(SwitchBalancerTest, TimeoutAbandonsWithoutForce) {
  Fixture f;
  const AppId app = f.makeAppWithVips(2);
  SwitchBalancer::Options opt;
  opt.highWatermark = 0.8;
  opt.drainTimeout = 50.0;
  opt.forceOnTimeout = false;
  SwitchBalancer sb{f.sim, f.fleet, f.dns, f.apps, *f.viprip, opt};

  const VipId hotVip = f.apps.app(app).vips[0];
  const SwitchId hotSw = *f.fleet.ownerOf(hotVip);
  EpochReport r = f.report();
  r.switchUtil[hotSw.index()] = 1.5;
  r.vipDemandGbps[hotVip] = 1.2;
  sb.runOnce(r);
  ASSERT_EQ(sb.drainsInProgress(), 1u);

  // Demand never subsides; time passes beyond the timeout.
  f.sim.runUntil(60.0);
  EpochReport r2 = f.report();
  r2.time = f.sim.now();
  r2.vipDemandGbps[hotVip] = 1.2;
  sb.runOnce(r2);
  EXPECT_EQ(sb.transfersAbandoned(), 1u);
  EXPECT_EQ(*f.fleet.ownerOf(hotVip), hotSw);        // unmoved
  EXPECT_GT(f.viprip->vipExposureFactor(hotVip), 0.0);  // re-exposed
}

// ----------------------------------------------- inter-pod balancer ---

struct PodFixture : Fixture {
  std::vector<std::unique_ptr<PodManager>> pods;
  std::unique_ptr<InterPodBalancer> balancer;

  class NullSink final : public RipRequestSink {
   public:
    void requestNewRip(AppId, VmId, double) override {}
    void requestRipRemoval(VmId, std::function<void()> onDone) override {
      if (onDone) onDone();
    }
    void requestRipWeight(VmId, double) override {}
  };
  NullSink sink;

  PodManager& makePod(std::vector<ServerId> servers,
                      std::shared_ptr<const PlacementAlgorithm> algorithm =
                          std::make_shared<PlacementController>()) {
    const PodId id{static_cast<PodId::value_type>(pods.size())};
    pods.push_back(std::make_unique<PodManager>(
        id, sim, hosts, apps, topo, registry, std::move(algorithm), sink,
        PodManager::Options{}));
    for (ServerId s : servers) pods.back()->adoptServer(s);
    return *pods.back();
  }

  void makeBalancer(InterPodBalancer::Options opt) {
    std::vector<PodManager*> raw;
    for (auto& p : pods) raw.push_back(p.get());
    balancer = std::make_unique<InterPodBalancer>(
        sim, hosts, apps, fleet, *viprip, registry, std::move(raw), opt);
  }
};

TEST(InterPodBalancerTest, ElephantShedsToSmallestPod) {
  PodFixture f;
  PodManager& big = f.makePod({ServerId{0}, ServerId{1}, ServerId{2},
                               ServerId{3}, ServerId{4}, ServerId{5}});
  PodManager& small = f.makePod({ServerId{6}, ServerId{7}});
  const AppId app = f.apps.create("x", AppSla{}, 100.0);
  // Give the big pod lots of VMs and refresh its stats via demand.
  for (std::uint32_t s = 0; s < 6; ++s) {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          f.hosts.createVm(app, ServerId{s}, CapacityVec{1.0, 2.0, 0.05})
              .ok());
    }
  }
  big.setAppDemand(app, 100.0);
  big.runControlLoop();
  small.setAppDemand(app, 0.0);
  small.runControlLoop();

  InterPodBalancer::Options opt;
  opt.maxVmsPerPod = 4;  // big pod (12 VMs) is an elephant
  opt.elephantSheddingBatch = 2;
  opt.enableRipWeight = opt.enableAppDeploy = opt.enableServerTransfer =
      false;
  f.makeBalancer(opt);
  f.balancer->runOnce(EpochReport{});

  EXPECT_EQ(f.balancer->elephantSheds(), 2u);
  EXPECT_EQ(big.servers().size(), 4u);
  EXPECT_EQ(small.servers().size(), 4u);
  // Shed servers moved with their VMs (no migration happened).
  EXPECT_EQ(f.hosts.migrationsStarted(), 0u);
}

/// The controller's placement, decided in just over a second of host
/// time.
class SlowPlacement final : public PlacementAlgorithm {
 public:
  [[nodiscard]] PlacementResult place(
      const PlacementInput& input) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1050));
    return PlacementController{}.place(input);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "slow";
  }
};

TEST(InterPodBalancerTest, SlowDecisionUnderTheCapsIsNotShed) {
  // A decision past 1 s of host time is host speed, not pod size: a pod
  // under both caps keeps its servers, so the simulated outcome does not
  // depend on the machine running it.
  PodFixture f;
  PodManager& slow = f.makePod({ServerId{0}, ServerId{1}, ServerId{2},
                                ServerId{3}, ServerId{4}, ServerId{5}},
                               std::make_shared<SlowPlacement>());
  PodManager& small = f.makePod({ServerId{6}, ServerId{7}});
  const AppId app = f.apps.create("x", AppSla{}, 100.0);
  for (std::uint32_t s = 0; s < 6; ++s) {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          f.hosts.createVm(app, ServerId{s}, CapacityVec{1.0, 2.0, 0.05})
              .ok());
    }
  }
  slow.setAppDemand(app, 100.0);
  slow.runControlLoop();
  ASSERT_GT(slow.stats().decisionSeconds, 1.0);
  small.setAppDemand(app, 0.0);
  small.runControlLoop();
  ASSERT_LT(small.stats().vms, slow.stats().vms);  // somewhere to shed to

  InterPodBalancer::Options opt;  // the paper's caps: 10,000 VMs, 5,000 servers
  opt.enableRipWeight = opt.enableAppDeploy = opt.enableServerTransfer =
      false;
  f.makeBalancer(opt);
  f.balancer->runOnce(EpochReport{});

  EXPECT_EQ(f.balancer->elephantSheds(), 0u);
  EXPECT_EQ(slow.servers().size(), 6u);
  EXPECT_EQ(small.servers().size(), 2u);
}

TEST(InterPodBalancerTest, ServerTransferFromColdDonor) {
  PodFixture f;
  PodManager& hot = f.makePod({ServerId{0}, ServerId{1}});
  PodManager& cold = f.makePod({ServerId{2}, ServerId{3}, ServerId{4},
                                ServerId{5}});
  const AppId app = f.apps.create("x", AppSla{}, 100.0);
  // Saturate the hot pod.
  for (std::uint32_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(
        f.hosts.createVm(app, ServerId{s}, CapacityVec{7.5, 28.0, 0.9})
            .ok());
  }
  f.sim.runUntil(70.0);  // VMs active
  hot.setAppDemand(app, 14'000.0);
  hot.runControlLoop();
  cold.setAppDemand(app, 0.0);
  // cold pod: no demand signal needed; stats default to idle.

  InterPodBalancer::Options opt;
  opt.overloadUtilization = 0.8;
  opt.underloadUtilization = 0.5;
  opt.serversPerTransfer = 2;
  opt.enableRipWeight = opt.enableAppDeploy = false;
  opt.enableElephantAvoidance = false;
  f.makeBalancer(opt);
  f.balancer->runOnce(EpochReport{});
  f.sim.runUntil(f.sim.now() + 30.0);

  EXPECT_EQ(f.balancer->serverTransfers(), 2u);
  EXPECT_EQ(hot.servers().size(), 4u);
  EXPECT_EQ(cold.servers().size(), 2u);
}

TEST(InterPodBalancerTest, DeploymentTargetsUnservedApp) {
  PodFixture f;
  PodManager& hot = f.makePod({ServerId{0}});
  PodManager& cold = f.makePod({ServerId{1}, ServerId{2}});
  const AppId app = f.makeAppWithVips(1);
  // One saturated instance in the hot pod.
  const auto vm =
      f.hosts.createVm(app, ServerId{0}, CapacityVec{7.0, 28.0, 0.9});
  ASSERT_TRUE(vm.ok());
  f.apps.addInstance(app, vm.value());
  f.sim.runUntil(70.0);
  hot.setAppDemand(app, 14'000.0);
  hot.runControlLoop();
  (void)cold;

  InterPodBalancer::Options opt;
  opt.overloadUtilization = 0.8;
  opt.underloadUtilization = 0.6;
  opt.enableRipWeight = opt.enableServerTransfer = false;
  opt.enableElephantAvoidance = false;
  f.makeBalancer(opt);

  EpochReport r;
  r.appDemandRps[app] = 14'000.0;
  r.appServedRps[app] = 7'000.0;
  f.balancer->runOnce(r);
  EXPECT_EQ(f.balancer->deployActions(), 1u);
  // The clone landed in the cold pod.
  bool found = false;
  for (ServerId s : {ServerId{1}, ServerId{2}}) {
    if (!f.hosts.vmsOn(s).empty()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(InterPodBalancerTest, DeployCooldownLimitsChurn) {
  PodFixture f;
  PodManager& hot = f.makePod({ServerId{0}});
  f.makePod({ServerId{1}, ServerId{2}});
  const AppId app = f.makeAppWithVips(1);
  const auto vm =
      f.hosts.createVm(app, ServerId{0}, CapacityVec{7.0, 28.0, 0.9});
  ASSERT_TRUE(vm.ok());
  f.apps.addInstance(app, vm.value());
  f.sim.runUntil(70.0);
  hot.setAppDemand(app, 14'000.0);
  hot.runControlLoop();

  InterPodBalancer::Options opt;
  opt.overloadUtilization = 0.8;
  opt.underloadUtilization = 0.6;
  opt.deployCooldown = 300.0;
  opt.enableRipWeight = opt.enableServerTransfer = false;
  opt.enableElephantAvoidance = false;
  f.makeBalancer(opt);

  EpochReport r;
  r.appDemandRps[app] = 14'000.0;
  r.appServedRps[app] = 7'000.0;
  f.balancer->runOnce(r);
  f.balancer->runOnce(r);  // immediately again: cooldown must block
  EXPECT_EQ(f.balancer->deployActions(), 1u);
}

// ------------------------------------------- the manager's report ----

TEST(GlobalManagerReport, ObservedWhileDownMissesFirstRoundAfterPromotion) {
  // A dead manager observes nothing: the standby promoted in its place
  // balances on the report the old leader last saw until the next epoch.
  ManagerWorld w;
  const AppId app = w.makeApp(1);
  const VipId vip = w.apps.app(app).vips[0];
  const SwitchId owner = *w.fleet.ownerOf(vip);
  w.gm->start();

  EpochReport cold;
  cold.accessLinkUtil.assign(w.topo.accessLinkCount(), 0.1);
  cold.switchUtil.assign(w.topo.switchCount(), 0.1);
  EpochReport hot = cold;
  hot.switchUtil[owner.index()] = 1.2;
  hot.vipDemandGbps[vip] = 1.1;

  w.gm->observe(cold);
  w.sim.runUntil(1.0);
  w.gm->crashLeader();
  w.gm->observe(hot);  // nobody is up to see it
  w.sim.runUntil(10.0);
  ASSERT_TRUE(w.gm->leaderUp());  // promoted once the 6-s lease ran out
  ASSERT_EQ(w.gm->failovers(), 1u);

  w.sim.runUntil(25.0);  // the first switch-balancer round, at 22.5
  EXPECT_EQ(w.gm->switchBalancer().drainsInProgress(), 0u);

  // The same report, observed by the new leader, starts a drain.
  w.gm->observe(hot);
  w.sim.runUntil(55.0);  // the next round, at 52.5
  EXPECT_EQ(w.gm->switchBalancer().drainsInProgress(), 1u);
}

}  // namespace
}  // namespace mdc
