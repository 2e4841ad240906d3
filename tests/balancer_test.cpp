// Unit tests for the three balancers: access-link, switch, and inter-pod.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

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
  lb.observe(r);
  lb.runOnce();
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
  lb.observe(r);
  lb.runOnce();
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
  lb.observe(r);
  lb.runOnce();
  EXPECT_EQ(f.viprip->vipExposureFactor(draining), 0.0);
}

TEST(AccessLinkBalancerTest, NoReportNoAction) {
  Fixture f;
  f.makeAppWithVips(2);
  AccessLinkBalancer lb{f.dns, *f.viprip, f.apps, f.fleet, f.topo,
                        AccessLinkBalancer::Options{}};
  lb.runOnce();
  EXPECT_EQ(lb.weightUpdates(), 0u);
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
  exposure.observe(r);
  exposure.runOnce();
  EXPECT_EQ(exposure.weightUpdates(), 1u);
  EXPECT_EQ(f.viprip->vipExposureFactor(adopted.value()), 1.0);

  AccessLinkBalancer::Options opt;
  opt.policy = LinkBalancePolicy::Readvertisement;
  AccessLinkBalancer readvertise{f.dns,  *f.viprip, f.apps,
                                 f.fleet, f.topo,    opt};
  readvertise.observe(r);
  readvertise.runOnce();
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
  sb.observe(r);
  sb.runOnce();
  EXPECT_EQ(sb.drainsInProgress(), 1u);
  // Draining VIP unexposed.
  EXPECT_EQ(f.viprip->vipExposureFactor(hotVip), 0.0);

  // Demand subsides below the quiesce fraction -> transfer completes.
  EpochReport r2 = f.report();
  r2.vipDemandGbps[hotVip] = 0.2;
  sb.observe(r2);
  sb.runOnce();
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
  sb.observe(r);
  sb.runOnce();
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
  sb.observe(r);
  sb.runOnce();
  ASSERT_EQ(sb.drainsInProgress(), 1u);

  // Demand never subsides; time passes beyond the timeout.
  f.sim.runUntil(60.0);
  EpochReport r2 = f.report();
  r2.time = f.sim.now();
  r2.vipDemandGbps[hotVip] = 1.2;
  sb.observe(r2);
  sb.runOnce();
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

  PodManager& makePod(std::vector<ServerId> servers) {
    const PodId id{static_cast<PodId::value_type>(pods.size())};
    pods.push_back(std::make_unique<PodManager>(
        id, sim, hosts, apps, topo, registry,
        std::make_shared<PlacementController>(), sink,
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
  f.balancer->observe(EpochReport{});
  f.balancer->runOnce();

  EXPECT_EQ(f.balancer->elephantSheds(), 2u);
  EXPECT_EQ(big.servers().size(), 4u);
  EXPECT_EQ(small.servers().size(), 4u);
  // Shed servers moved with their VMs (no migration happened).
  EXPECT_EQ(f.hosts.migrationsStarted(), 0u);
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
  f.balancer->observe(EpochReport{});
  f.balancer->runOnce();
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
  f.balancer->observe(r);
  f.balancer->runOnce();
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
  f.balancer->observe(r);
  f.balancer->runOnce();
  f.balancer->runOnce();  // immediately again: cooldown must block
  EXPECT_EQ(f.balancer->deployActions(), 1u);
}

}  // namespace
}  // namespace mdc
