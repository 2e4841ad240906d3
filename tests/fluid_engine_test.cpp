// Unit tests for the fluid traffic engine: demand routing down the data
// path, m-VIP (two-layer) indirection, network contention, VM serving
// caps, and unrouted-demand accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "mdc/scenario/fluid_engine.hpp"

namespace mdc {
namespace {

struct World {
  Simulation sim;
  Topology topo;
  AppRegistry apps;
  AuthoritativeDns dns;
  RouteRegistry routes{0.0};
  SwitchFleet fleet;
  HostFleet hosts;
  std::unique_ptr<ResolverPopulation> resolvers;
  std::unique_ptr<StaticDemand> demand;
  std::unique_ptr<FluidEngine> engine;
  AppId app;

  static TopologyConfig topoConfig(FabricKind fabric) {
    TopologyConfig cfg;
    cfg.numServers = 4;
    cfg.serverCapacity = CapacityVec{32.0, 128.0, 2.0};
    cfg.numIsps = 2;
    cfg.accessLinksPerIsp = 1;
    cfg.accessLinkGbps = 1.0;
    cfg.numSwitches = 3;
    cfg.switchTrunkGbps = 1.0;
    cfg.fabric = fabric;
    cfg.siloCount = 2;
    cfg.siloUplinkGbps = 0.5;
    return cfg;
  }

  explicit World(double appRps = 10'000.0,
                 FabricKind fabric = FabricKind::ModernNonBlocking)
      : topo(topoConfig(fabric)), hosts(topo, sim, HostCostModel{}) {
    for (int i = 0; i < 3; ++i) fleet.addSwitch(SwitchLimits{});
    app = apps.create("web", AppSla{}, appRps);
    dns.registerApp(app);
    resolvers = std::make_unique<ResolverPopulation>(dns, ResolverConfig{});
    demand = std::make_unique<StaticDemand>(std::vector<double>{appRps});
    engine = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                           routes, fleet, hosts, *demand,
                                           FluidEngine::Options{});
  }

  VmId vm(ServerId srv, double servableRps) {
    const auto v = hosts.createVm(
        app, srv, apps.app(app).sla.sliceFor(servableRps, 1.0));
    EXPECT_TRUE(v.ok());
    sim.runUntil(sim.now() + 61.0);  // boot
    return v.value();
  }

  void wireVip(VipId vip, SwitchId sw, std::uint32_t ar,
               std::initializer_list<std::pair<VmId, double>> rips,
               double dnsWeight = 1.0) {
    ASSERT_TRUE(fleet.configureVip(sw, vip, app).ok());
    std::uint32_t ripId = vip.value() * 16;
    for (const auto& [vmId, w] : rips) {
      RipEntry e;
      e.rip = RipId{ripId++};
      e.vm = vmId;
      e.weight = w;
      ASSERT_TRUE(fleet.addRip(vip, e).ok());
    }
    dns.addVip(app, vip, dnsWeight);
    routes.advertise(vip, AccessRouterId{ar}, sim.now());
    routes.settle(sim.now());
  }
};

TEST(FluidEngine, RoutesDemandToSingleVm) {
  World w{5000.0};
  const VmId vm = w.vm(ServerId{0}, 10'000.0);
  w.wireVip(VipId{0}, SwitchId{0}, 0, {{vm, 1.0}});
  const EpochReport r = w.engine->step();
  EXPECT_NEAR(w.hosts.vm(vm).offeredRps, 5000.0, 1e-6);
  EXPECT_NEAR(w.hosts.vm(vm).servedRps, 5000.0, 1e-6);
  EXPECT_NEAR(r.appServedRps.at(w.app), 5000.0, 1e-6);
  EXPECT_EQ(r.unroutedRps, 0.0);
  // 5 krps * 0.04 Gbps/krps = 0.2 Gbps on the access link (cap 1.0).
  EXPECT_NEAR(r.accessLinkUtil[0], 0.2, 1e-9);
  EXPECT_NEAR(r.switchUtil[0], 0.2, 1e-9);
}

TEST(FluidEngine, SplitsByRipWeights) {
  World w{9000.0};
  const VmId a = w.vm(ServerId{0}, 20'000.0);
  const VmId b = w.vm(ServerId{1}, 20'000.0);
  w.wireVip(VipId{0}, SwitchId{0}, 0, {{a, 2.0}, {b, 1.0}});
  (void)w.engine->step();
  EXPECT_NEAR(w.hosts.vm(a).offeredRps, 6000.0, 1e-6);
  EXPECT_NEAR(w.hosts.vm(b).offeredRps, 3000.0, 1e-6);
}

TEST(FluidEngine, SplitsByDnsWeightAcrossVips) {
  World w{8000.0};
  const VmId a = w.vm(ServerId{0}, 20'000.0);
  const VmId b = w.vm(ServerId{1}, 20'000.0);
  w.wireVip(VipId{0}, SwitchId{0}, 0, {{a, 1.0}}, 3.0);
  w.wireVip(VipId{1}, SwitchId{1}, 1, {{b, 1.0}}, 1.0);
  (void)w.engine->step();
  EXPECT_NEAR(w.hosts.vm(a).offeredRps, 6000.0, 1e-6);
  EXPECT_NEAR(w.hosts.vm(b).offeredRps, 2000.0, 1e-6);
}

TEST(FluidEngine, VmCapacityCapsServing) {
  World w{10'000.0};
  const VmId vm = w.vm(ServerId{0}, 4'000.0);
  w.wireVip(VipId{0}, SwitchId{0}, 0, {{vm, 1.0}});
  const EpochReport r = w.engine->step();
  EXPECT_NEAR(w.hosts.vm(vm).offeredRps, 10'000.0, 1e-6);
  EXPECT_NEAR(w.hosts.vm(vm).servedRps, 4'000.0, 1.0);
  EXPECT_NEAR(r.appServedRps.at(w.app), 4'000.0, 1.0);
}

TEST(FluidEngine, AccessLinkContentionLimitsServing) {
  // 50 krps = 2.0 Gbps through a 1.0 Gbps access link -> half served.
  World w{50'000.0};
  // Two VMs on separate servers so their NICs (2 Gbps each) are not the
  // bottleneck — the shared access link is.
  const VmId vm = w.vm(ServerId{0}, 30'000.0);
  const VmId vm2 = w.vm(ServerId{1}, 30'000.0);
  w.wireVip(VipId{0}, SwitchId{0}, 0, {{vm, 1.0}, {vm2, 1.0}});
  const EpochReport r = w.engine->step();
  EXPECT_GT(r.accessLinkUtil[0], 1.9);  // offered, not served
  const double served = r.appServedRps.at(w.app);
  // Bottleneck math: access link allows 1.0/2.0 of demand.
  EXPECT_NEAR(served, 25'000.0, 500.0);
}

TEST(FluidEngine, TwoLayerMvipIndirection) {
  // external VIP on switch 0 -> m-VIPs on switches 1,2 -> VMs.
  World w{8000.0};
  const VmId a = w.vm(ServerId{0}, 20'000.0);
  const VmId b = w.vm(ServerId{1}, 20'000.0);
  // m-VIPs (no DNS, no routes: internal).
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{1}, VipId{10}, w.app).ok());
  RipEntry ra;
  ra.rip = RipId{100};
  ra.vm = a;
  ASSERT_TRUE(w.fleet.addRip(VipId{10}, ra).ok());
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{2}, VipId{11}, w.app).ok());
  RipEntry rb;
  rb.rip = RipId{101};
  rb.vm = b;
  ASSERT_TRUE(w.fleet.addRip(VipId{11}, rb).ok());
  // External VIP maps to the two m-VIPs 3:1.
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{0}, VipId{0}, w.app).ok());
  RipEntry m0;
  m0.rip = RipId{0};
  m0.mvip = VipId{10};
  m0.weight = 3.0;
  ASSERT_TRUE(w.fleet.addRip(VipId{0}, m0).ok());
  RipEntry m1;
  m1.rip = RipId{1};
  m1.mvip = VipId{11};
  m1.weight = 1.0;
  ASSERT_TRUE(w.fleet.addRip(VipId{0}, m1).ok());
  w.dns.addVip(w.app, VipId{0}, 1.0);
  w.routes.advertise(VipId{0}, AccessRouterId{0}, w.sim.now());
  w.routes.settle(w.sim.now());

  const EpochReport r = w.engine->step();
  EXPECT_NEAR(w.hosts.vm(a).offeredRps, 6000.0, 1e-6);
  EXPECT_NEAR(w.hosts.vm(b).offeredRps, 2000.0, 1e-6);
  EXPECT_EQ(r.unroutedRps, 0.0);
  // Both layers' trunks carry the traffic: external switch all of it,
  // m-VIP switches their shares.
  EXPECT_NEAR(r.switchUtil[0], 8000.0 * 0.04 / 1000.0, 1e-9);
  EXPECT_NEAR(r.switchUtil[1], 6000.0 * 0.04 / 1000.0, 1e-9);
  EXPECT_NEAR(r.switchUtil[2], 2000.0 * 0.04 / 1000.0, 1e-9);
}

TEST(FluidEngine, MvipCycleDropsAtDepthLimit) {
  World w{1000.0};
  // VIP 0 -> m-VIP 1 -> m-VIP 0 (cycle).
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{0}, VipId{0}, w.app).ok());
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{1}, VipId{1}, w.app).ok());
  RipEntry a;
  a.rip = RipId{0};
  a.mvip = VipId{1};
  ASSERT_TRUE(w.fleet.addRip(VipId{0}, a).ok());
  RipEntry b;
  b.rip = RipId{1};
  b.mvip = VipId{0};
  ASSERT_TRUE(w.fleet.addRip(VipId{1}, b).ok());
  w.dns.addVip(w.app, VipId{0}, 1.0);
  w.routes.advertise(VipId{0}, AccessRouterId{0}, w.sim.now());
  w.routes.settle(w.sim.now());
  const EpochReport r = w.engine->step();
  EXPECT_NEAR(r.unroutedRps, 1000.0, 1e-6);
  EXPECT_GT(r.unroutedByCause.at("depth"), 0.0);
}

TEST(FluidEngine, TraditionalFabricSiloUplinkContends) {
  // On the traditional tree, the silo uplink (0.5 Gbps) sits on the path
  // and throttles a remote-server flow that the modern fabric would not.
  World w{30'000.0, FabricKind::TraditionalTree};
  const VmId vm = w.vm(ServerId{0}, 30'000.0);  // silo 0
  w.wireVip(VipId{0}, SwitchId{0}, 0, {{vm, 1.0}});
  const EpochReport r = w.engine->step();
  // 30 krps = 1.2 Gbps; access link (1.0) and silo uplink (0.5) both on
  // the path; serving fraction = min(1/1.2, 0.5/1.2) = 0.4166.
  EXPECT_NEAR(r.appServedRps.at(w.app), 30'000.0 * 0.5 / 1.2, 100.0);

  World m{30'000.0, FabricKind::ModernNonBlocking};
  const VmId vm2 = m.vm(ServerId{0}, 30'000.0);
  m.wireVip(VipId{0}, SwitchId{0}, 0, {{vm2, 1.0}});
  const EpochReport r2 = m.engine->step();
  EXPECT_GT(r2.appServedRps.at(m.app), r.appServedRps.at(w.app));
}

TEST(FluidEngine, LongestRoutedPathCarriesEveryLink) {
  // The deepest route the engine follows, on the traditional tree:
  // VIP 0 on switch 0 -> m-VIP on switch 1 -> m-VIP on switch 2 -> VM.
  // The flow crosses six links (access link, three trunks, silo uplink,
  // NIC), which fills the inline path exactly.  20 krps = 0.8 Gbps stays
  // under every 1.0 Gbps link and exceeds only the 0.5 Gbps silo uplink.
  World w{20'000.0, FabricKind::TraditionalTree};
  const VmId vm = w.vm(ServerId{0}, 30'000.0);
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{2}, VipId{11}, w.app).ok());
  RipEntry toVm;
  toVm.rip = RipId{101};
  toVm.vm = vm;
  ASSERT_TRUE(w.fleet.addRip(VipId{11}, toVm).ok());
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{1}, VipId{10}, w.app).ok());
  RipEntry toSecond;
  toSecond.rip = RipId{100};
  toSecond.mvip = VipId{11};
  ASSERT_TRUE(w.fleet.addRip(VipId{10}, toSecond).ok());
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{0}, VipId{0}, w.app).ok());
  RipEntry toFirst;
  toFirst.rip = RipId{0};
  toFirst.mvip = VipId{10};
  ASSERT_TRUE(w.fleet.addRip(VipId{0}, toFirst).ok());
  w.dns.addVip(w.app, VipId{0}, 1.0);
  w.routes.advertise(VipId{0}, AccessRouterId{0}, w.sim.now());
  w.routes.settle(w.sim.now());

  const EpochReport r = w.engine->step();
  EXPECT_EQ(r.unroutedRps, 0.0);
  const double gbps = 20'000.0 * 0.04 / 1000.0;
  EXPECT_NEAR(r.accessLinkUtil[0], gbps, 1e-9);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_NEAR(r.switchUtil[s], gbps, 1e-9) << "switch " << s;
  }
  EXPECT_NEAR(w.hosts.vm(vm).offeredRps, 20'000.0, 1e-6);
  // The silo uplink is the only saturated link: served = 0.5/0.8 of demand.
  EXPECT_NEAR(r.appServedRps.at(w.app), 20'000.0 * 0.5 / gbps, 1e-6);
}

TEST(FluidEngine, UnroutedCausesAccounted) {
  World w{1000.0};
  // Case: VIP exposed in DNS but not configured on any switch.
  w.dns.addVip(w.app, VipId{5}, 1.0);
  w.routes.advertise(VipId{5}, AccessRouterId{0}, w.sim.now());
  w.routes.settle(w.sim.now());
  const EpochReport r = w.engine->step();
  EXPECT_NEAR(r.unroutedByCause.at("no_owner"), 1000.0, 1e-6);
}

TEST(FluidEngine, NoRouteMeansUnrouted) {
  World w{1000.0};
  const VmId vm = w.vm(ServerId{0}, 5'000.0);
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{0}, VipId{0}, w.app).ok());
  RipEntry e;
  e.rip = RipId{0};
  e.vm = vm;
  ASSERT_TRUE(w.fleet.addRip(VipId{0}, e).ok());
  w.dns.addVip(w.app, VipId{0}, 1.0);
  // never advertised
  const EpochReport r = w.engine->step();
  EXPECT_NEAR(r.unroutedByCause.at("no_route"), 1000.0, 1e-6);
}

TEST(FluidEngine, MultiRouterVipSplitsAcrossLinks) {
  World w{8000.0};
  const VmId vm = w.vm(ServerId{0}, 20'000.0);
  w.wireVip(VipId{0}, SwitchId{0}, 0, {{vm, 1.0}});
  // Also advertise the same VIP at the second router.
  w.routes.advertise(VipId{0}, AccessRouterId{1}, w.sim.now());
  w.routes.settle(w.sim.now());
  const EpochReport r = w.engine->step();
  EXPECT_NEAR(r.accessLinkUtil[0], r.accessLinkUtil[1], 1e-9);
  EXPECT_NEAR(r.accessLinkUtil[0], 4000.0 * 0.04 / 1000.0, 1e-9);
}

TEST(FluidEngine, SeriesRecorded) {
  World w{1000.0};
  const VmId vm = w.vm(ServerId{0}, 5'000.0);
  w.wireVip(VipId{0}, SwitchId{0}, 0, {{vm, 1.0}});
  int epochs = 0;
  w.engine->start([&](const EpochReport&) { ++epochs; });
  w.sim.runUntil(w.sim.now() + 26.0);
  EXPECT_GE(epochs, 5);
  EXPECT_EQ(w.engine->satisfaction().size(),
            static_cast<std::size_t>(epochs));
  EXPECT_NEAR(w.engine->satisfaction().last(), 1.0, 1e-9);
}

}  // namespace
}  // namespace mdc
