// Equivalence and invalidation tests for the incremental epoch engine.
//
// The load-bearing property: a FluidEngine in incremental mode — with any
// worker count — produces EpochReports *bit-identical* to full-recompute
// mode.  The randomized tests below drive several engines over the same
// shared world through hundreds of epochs of VIP transfers, DNS weight
// shifts, switch crashes/repairs, and VM deaths, comparing every report
// field exactly (not within a tolerance).  The replay oracle compares
// them with a direct computation that caches nothing: descent with
// demand and shares applied inline.  The targeted tests pin down
// the invalidation matrix: which mutations must dirty an app's cache and
// which must not.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "mdc/scenario/fluid_engine.hpp"

namespace mdc {
namespace {

FluidEngine::Options engineOptions(bool incremental, unsigned workers) {
  FluidEngine::Options o;
  o.incremental = incremental;
  o.workers = workers;
  return o;
}

/// Exact, field-for-field report comparison.  The engine-observability
/// counters (engineAppsRecomputed/engineAppsCached) are deliberately
/// excluded: they describe the computation, not the modelled system.
void expectSameReport(const EpochReport& a, const EpochReport& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.accessLinkUtil, b.accessLinkUtil);
  EXPECT_EQ(a.switchUtil, b.switchUtil);
  EXPECT_EQ(a.appDemandRps, b.appDemandRps);
  EXPECT_EQ(a.appServedRps, b.appServedRps);
  EXPECT_EQ(a.vipDemandGbps, b.vipDemandGbps);
  EXPECT_EQ(a.externalOfferedGbps, b.externalOfferedGbps);
  EXPECT_EQ(a.externalServedGbps, b.externalServedGbps);
  EXPECT_EQ(a.unroutedRps, b.unroutedRps);
  EXPECT_EQ(a.unroutedByCause, b.unroutedByCause);
  EXPECT_EQ(a.degradedRoutedRps, b.degradedRoutedRps);
  EXPECT_EQ(a.faultPlanSeed, b.faultPlanSeed);
  EXPECT_EQ(a.gauges, b.gauges);
}

/// Diurnal demand that switches some apps off in turns: app a has no
/// demand in every epoch-second window where (a + window) % 5 == 0, so
/// trees go unused and come back with a different demand.
class OnOffDiurnal final : public DemandModel {
 public:
  explicit OnOffDiurnal(std::vector<double> base)
      : diurnal_(std::move(base), 0.8, 60.0, /*seed=*/7) {}
  [[nodiscard]] double rps(AppId app, SimTime t) const override {
    const auto window = static_cast<std::uint64_t>(t);
    return (app.value() + window) % 5 == 0 ? 0.0 : diurnal_.rps(app, t);
  }

 private:
  DiurnalDemand diurnal_;
};

enum class DemandShape { Static, Diurnal, OnOffDiurnal };

// A multi-app world with three engines observing the *same* stores: a
// full-recompute reference, an incremental engine, and an incremental
// engine with a worker pool.  Stepping all three at the same sim time is
// safe: ResolverPopulation::advance is idempotent within a timestamp
// (dt = 0 for the second and third calls) and RouteRegistry::settle
// re-settles nothing.
struct TriWorld {
  Simulation sim;
  Topology topo;
  AppRegistry apps;
  AuthoritativeDns dns;
  RouteRegistry routes{0.0};
  SwitchFleet fleet;
  HostFleet hosts;
  std::unique_ptr<ResolverPopulation> resolvers;
  std::unique_ptr<DemandModel> demand;
  std::unique_ptr<FluidEngine> full;
  std::unique_ptr<FluidEngine> inc;
  std::unique_ptr<FluidEngine> par;

  std::vector<AppId> appIds;
  std::vector<std::vector<VipId>> appVips;  // per app
  std::vector<std::vector<VmId>> appVms;    // per app, alive
  std::vector<VmId> aliveVms;

  static TopologyConfig topoConfig(std::uint32_t servers,
                                   std::uint32_t switches) {
    TopologyConfig cfg;
    cfg.numServers = servers;
    cfg.serverCapacity = CapacityVec{32.0, 128.0, 2.0};
    cfg.numIsps = 2;
    cfg.accessLinksPerIsp = 2;
    cfg.accessLinkGbps = 4.0;
    cfg.numSwitches = switches;
    cfg.switchTrunkGbps = 2.0;
    return cfg;
  }

  TriWorld(std::uint32_t numApps, std::uint32_t servers,
           std::uint32_t switches, std::uint32_t seed,
           double rpsLo = 500.0, double rpsHi = 4000.0, int fanout = 2,
           DemandShape shape = DemandShape::Static)
      : topo(topoConfig(servers, switches)),
        hosts(topo, sim, HostCostModel{}) {
    // The equivalence property under test is "any worker count produces
    // the same bits", which needs real multi-worker pools even on
    // single-core CI machines — skip the hardware clamp.
    ::setenv("MDC_ALLOW_OVERSUBSCRIBE", "1", 1);
    std::mt19937 rng(seed);
    for (std::uint32_t i = 0; i < switches; ++i) {
      fleet.addSwitch(SwitchLimits{});
    }
    std::uniform_real_distribution<double> rpsDist(rpsLo, rpsHi);
    std::vector<double> rates;
    for (std::uint32_t a = 0; a < numApps; ++a) {
      const double rps = rpsDist(rng);
      rates.push_back(rps);
      appIds.push_back(
          apps.create("app-" + std::to_string(a), AppSla{}, rps));
      dns.registerApp(appIds.back());
    }
    switch (shape) {
      case DemandShape::Static:
        demand = std::make_unique<StaticDemand>(rates);
        break;
      case DemandShape::Diurnal:
        demand = std::make_unique<DiurnalDemand>(rates, 0.8, 60.0, seed);
        break;
      case DemandShape::OnOffDiurnal:
        demand = std::make_unique<OnOffDiurnal>(rates);
        break;
    }
    resolvers = std::make_unique<ResolverPopulation>(dns, ResolverConfig{});
    full = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                         routes, fleet, hosts, *demand,
                                         engineOptions(false, 1));
    inc = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                        routes, fleet, hosts, *demand,
                                        engineOptions(true, 1));
    par = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                        routes, fleet, hosts, *demand,
                                        engineOptions(true, 3));

    // Wire every app: 1-2 VIPs, each with 1-2 VM RIPs.
    std::uniform_int_distribution<std::uint32_t> srvDist(0, servers - 1);
    std::uniform_int_distribution<std::uint32_t> swDist(0, switches - 1);
    std::uniform_int_distribution<std::uint32_t> arDist(
        0, topo.config().numIsps * topo.config().accessLinksPerIsp - 1);
    std::uniform_int_distribution<int> countDist(1, fanout);
    std::uniform_real_distribution<double> weightDist(0.5, 2.0);
    appVips.resize(numApps);
    appVms.resize(numApps);
    for (std::uint32_t a = 0; a < numApps; ++a) {
      const AppId app = appIds[a];
      const int vips = countDist(rng);
      for (int v = 0; v < vips; ++v) {
        const VipId vip{a * 4 + static_cast<std::uint32_t>(v)};
        EXPECT_TRUE(fleet.configureVip(SwitchId{swDist(rng)}, vip, app).ok());
        const int rips = countDist(rng);
        for (int r = 0; r < rips; ++r) {
          // Random placement; probe forward past full servers.
          const CapacityVec slice = apps.app(app).sla.sliceFor(rates[a], 1.0);
          Result<VmId> vm{Error{"unplaced", ""}};
          const std::uint32_t start = srvDist(rng);
          for (std::uint32_t probe = 0; probe < servers && !vm.ok();
               ++probe) {
            vm = hosts.createVm(app, ServerId{(start + probe) % servers},
                                slice);
          }
          EXPECT_TRUE(vm.ok());
          aliveVms.push_back(vm.value());
          appVms[a].push_back(vm.value());
          RipEntry e;
          e.rip = RipId{vip.value() * 16 + static_cast<std::uint32_t>(r)};
          e.vm = vm.value();
          e.weight = weightDist(rng);
          EXPECT_TRUE(fleet.addRip(vip, e).ok());
        }
        dns.addVip(app, vip, weightDist(rng));
        routes.advertise(vip, AccessRouterId{arDist(rng)}, sim.now());
        appVips[a].push_back(vip);
      }
    }
    sim.runUntil(61.0);  // boot every VM
    routes.settle(sim.now());
  }

  /// Steps all three engines at the current time and checks exact
  /// equality; returns the reference report.
  EpochReport stepAll(const std::string& what) {
    const EpochReport ref = full->step();
    const EpochReport fromCache = inc->step();
    const EpochReport sharded = par->step();
    expectSameReport(ref, fromCache, what + " [incremental]");
    expectSameReport(ref, sharded, what + " [incremental+workers]");
    return ref;
  }

  /// Destroys one live VM (keeping a few alive).
  void killVm(std::mt19937& rng) {
    if (aliveVms.size() <= 4) return;
    const std::size_t i = rng() % aliveVms.size();
    const VmId vm = aliveVms[i];
    hosts.destroyVm(vm);
    aliveVms.erase(aliveVms.begin() + static_cast<std::ptrdiff_t>(i));
    for (std::vector<VmId>& vms : appVms) std::erase(vms, vm);
  }
};

/// Random churn over a TriWorld: <= 3 mutations per round (VIP transfer,
/// DNS weight shift, switch crash and repair, VM death, RIP weight
/// change), every engine stepped and compared each round.
void runRandomizedChurn(TriWorld& w, int epochs) {
  std::mt19937 rng(0x5EED);
  std::uniform_int_distribution<int> mutCount(0, 3);
  std::uniform_int_distribution<int> mutKind(0, 5);
  std::uniform_real_distribution<double> weightDist(0.0, 3.0);
  std::uniform_int_distribution<std::size_t> appPick(0, w.appIds.size() - 1);
  std::uniform_int_distribution<std::uint32_t> swPick(
      0, static_cast<std::uint32_t>(w.fleet.size()) - 1);

  for (int round = 0; round < epochs; ++round) {
    const int mutations = mutCount(rng);
    for (int m = 0; m < mutations; ++m) {
      const std::size_t a = appPick(rng);
      const std::vector<VipId>& vips = w.appVips[a];
      const VipId vip = vips[rng() % vips.size()];
      switch (mutKind(rng)) {
        case 0:  // VIP transfer (may fail: same switch, down switch, ...)
          (void)w.fleet.transferVip(vip, SwitchId{swPick(rng)});
          break;
        case 1:  // DNS weight shift
          w.dns.setWeight(w.appIds[a], vip, weightDist(rng));
          break;
        case 2: {  // switch crash (keep at least one up)
          const SwitchId sw{swPick(rng)};
          if (w.fleet.at(sw).up() && w.fleet.upCount() > 1) {
            (void)w.fleet.crashSwitch(sw, w.sim.now());
          }
          break;
        }
        case 3: {  // switch repair
          const SwitchId sw{swPick(rng)};
          if (!w.fleet.at(sw).up()) w.fleet.recoverSwitch(sw);
          break;
        }
        case 4:  // VM death
          w.killVm(rng);
          break;
        case 5:  // RIP weight change (rip id may not exist: ignored)
          (void)w.fleet.setRipWeight(vip, RipId{vip.value() * 16},
                                     weightDist(rng));
          break;
      }
    }
    w.sim.runUntil(w.sim.now() + 1.0);
    (void)w.stepAll("round " + std::to_string(round));
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      break;  // don't spam
    }
  }

  // The cache must actually have been doing work: with <= 3 mutations per
  // round over 24 apps, most epochs serve most apps from cache — whatever
  // the demand does, since demand is applied at replay.
  EXPECT_GT(w.inc->appsFromCache(), w.inc->appsRecomputed());
  // Full mode never reports engine stats.
  EXPECT_EQ(w.full->latest().engineAppsRecomputed, 0u);
  EXPECT_EQ(w.full->latest().engineAppsCached, 0u);
}

TEST(EpochCacheEquivalence, RandomizedChurn) {
  TriWorld w(24, 16, 6, /*seed=*/0xE15);
  runRandomizedChurn(w, 220);
}

TEST(EpochCacheEquivalence, RandomizedChurnDiurnalDemand) {
  // Every app's demand moves every epoch; cached trees replay it.
  TriWorld w(24, 16, 6, /*seed=*/0xE15, 500.0, 4000.0, 2,
             DemandShape::Diurnal);
  runRandomizedChurn(w, 220);
}

TEST(EpochCacheEquivalence, ThreeWorkersMatchSequentialAtVolume) {
  // Enough apps that every worker of the 3-worker engine descends and
  // serves a real share of them; its reports must equal the sequential
  // reference bit-for-bit.
  TriWorld w(1200, 32, 8, /*seed=*/0xE15 + 1, /*rpsLo=*/200.0,
             /*rpsHi=*/600.0, /*fanout=*/1);
  for (int round = 0; round < 3; ++round) {
    w.sim.runUntil(w.sim.now() + 1.0);
    (void)w.stepAll("volume round " + std::to_string(round));
  }
  EXPECT_EQ(w.par->workerCount(), 3u);
}

TEST(EpochCacheEquivalence, BitIdenticalAcrossWorkerCountsUnderChurn) {
  // The engine's determinism at every pool size it supports: engines
  // with 2 and 8 workers (parallel descent and serving over static
  // ranges) must reproduce the single-worker reference bit-for-bit
  // through 50 randomized mutation epochs.
  TriWorld w(32, 16, 6, /*seed=*/0xE15 + 2);
  auto eng2 = std::make_unique<FluidEngine>(
      w.sim, w.topo, w.apps, w.dns, *w.resolvers, w.routes, w.fleet,
      w.hosts, *w.demand, engineOptions(true, 2));
  auto eng8 = std::make_unique<FluidEngine>(
      w.sim, w.topo, w.apps, w.dns, *w.resolvers, w.routes, w.fleet,
      w.hosts, *w.demand, engineOptions(true, 8));
  ASSERT_EQ(eng2->workerCount(), 2u);
  ASSERT_EQ(eng8->workerCount(), 8u);

  std::mt19937 rng(0x5EED + 1);
  std::uniform_real_distribution<double> weightDist(0.0, 3.0);
  std::uniform_int_distribution<std::size_t> appPick(0, w.appIds.size() - 1);
  for (int round = 0; round < 50; ++round) {
    const std::size_t a = appPick(rng);
    const std::vector<VipId>& vips = w.appVips[a];
    const VipId vip = vips[rng() % vips.size()];
    if (round % 3 == 0) {
      w.dns.setWeight(w.appIds[a], vip, weightDist(rng));
    } else {
      (void)w.fleet.setRipWeight(vip, RipId{vip.value() * 16},
                                 weightDist(rng));
    }
    w.sim.runUntil(w.sim.now() + 1.0);
    const EpochReport ref = w.full->step();
    const EpochReport two = eng2->step();
    const EpochReport eight = eng8->step();
    const std::string what = "workers round " + std::to_string(round);
    expectSameReport(ref, two, what + " [2 workers]");
    expectSameReport(ref, eight, what + " [8 workers]");
    if (HasFatalFailure() || HasNonfatalFailure()) break;  // don't spam
  }
}

// --- Replay oracle -----------------------------------------------------
//
// The engine caches demand-free flow trees and replays them with each
// epoch's demand and shares.  directStep() keeps the computation the
// replay stands in for: every app is descended with its demand and
// shares applied inline, then the same serial emit and the same serving
// pass run.  It writes nothing into the world; it returns the report and
// each VM's (offered, served) load.

struct DirectResult {
  EpochReport report;
  std::vector<std::pair<double, double>> vmLoad;  // by VmId index
};

DirectResult directStep(TriWorld& w) {
  constexpr double kEps = 1e-9;
  const SimTime now = w.sim.now();
  w.resolvers->advance(now);
  w.routes.settle(now);

  DirectResult out;
  EpochReport& report = out.report;
  report.time = now;
  const Network& net = w.topo.network();
  std::vector<double> linkOffered(net.linkCount(), 0.0);
  std::map<VipId::value_type, double> vipGbps;
  struct Flow {
    AppId app;
    VmId vm;
    double rps;
    std::vector<LinkId> path;
  };
  std::vector<Flow> flows;
  const auto unrouted = [&report](const char* cause, double rps) {
    report.unroutedRps += rps;
    report.unroutedByCause[cause] += rps;
  };

  // Emission is folded into the descent: every accumulator receives its
  // additions in app order and, within an app, in visit order.
  std::function<void(const Application&, VipId, double, std::vector<LinkId>,
                     int)>
      descend = [&](const Application& app, VipId vip, double rps,
                    std::vector<LinkId> path, int depth) {
        if (rps <= kEps) return;
        if (depth >= 3) return unrouted("depth", rps);
        const auto owner = w.fleet.ownerOf(vip);
        if (!owner.has_value()) return unrouted("no_owner", rps);
        const VipEntry* entry = w.fleet.at(*owner).findVip(vip);
        const double total = entry->totalWeight();
        if (entry->rips.empty() || total <= 0.0) {
          return unrouted("no_rips", rps);
        }
        vipGbps[vip.value()] += rps * app.sla.gbpsPerKrps / 1000.0;
        path.push_back(w.topo.switchTrunk(*owner));
        for (const RipEntry& rip : entry->rips) {
          const double ripRps = rps * rip.weight / total;
          if (ripRps <= kEps) continue;
          if (!rip.targetsVm()) {
            descend(app, rip.mvip, ripRps, path, depth + 1);
            continue;
          }
          if (!w.hosts.vmExists(rip.vm)) {
            unrouted("dead_vm", ripRps);
            continue;
          }
          std::vector<LinkId> leaf = path;
          leaf.push_back(w.topo.server(w.hosts.vm(rip.vm).server).nic);
          const double gbps = ripRps * app.sla.gbpsPerKrps / 1000.0;
          for (const LinkId l : leaf) linkOffered[l.index()] += gbps;
          flows.push_back(Flow{app.id, rip.vm, ripRps, std::move(leaf)});
        }
      };

  for (const Application& app : w.apps.all()) {
    const double demand = w.demand->rps(app.id, now);
    report.appDemandRps[app.id] = demand;
    if (demand <= kEps) continue;
    if (!w.dns.hasApp(app.id)) {
      unrouted("no_dns", demand);
      continue;
    }
    const std::vector<VipWeight> shares = w.resolvers->shares(app.id);
    double shareSum = 0.0;
    for (const VipWeight& sh : shares) shareSum += sh.weight;
    if (shares.empty() || shareSum <= kEps) {
      unrouted("no_shares", demand);
      continue;
    }
    for (const VipWeight& sh : shares) {
      const double vipRps = demand * sh.weight;
      if (vipRps <= kEps) continue;
      auto routers = w.routes.activeRouters(sh.vip);
      bool degraded = false;
      if (routers.empty()) {
        routers = w.routes.reachableRouters(sh.vip);
        degraded = !routers.empty();
      }
      if (routers.empty()) {
        unrouted("no_route", vipRps);
        continue;
      }
      if (degraded) report.degradedRoutedRps += vipRps;
      const double perRouter = vipRps / static_cast<double>(routers.size());
      for (const AccessRouterId ar : routers) {
        descend(app, sh.vip, perRouter, {w.topo.accessLinkFor(ar).link}, 0);
      }
    }
  }
  for (const auto& [vi, gbps] : vipGbps) report.vipDemandGbps[VipId{vi}] = gbps;

  // Serving: network fraction per flow, then each VM's cap, app by app.
  out.vmLoad.assign(w.hosts.vmIndexBound(), {0.0, 0.0});
  std::vector<double> netRps(w.hosts.vmIndexBound(), 0.0);
  std::size_t f = 0;
  for (const Application& app : w.apps.all()) {
    std::vector<VmId> touched;
    for (; f < flows.size() && flows[f].app == app.id; ++f) {
      double fraction = 1.0;
      for (const LinkId l : flows[f].path) {
        const double cap = net.link(l).capacityGbps;
        const double off = linkOffered[l.index()];
        if (off > cap) {
          fraction = std::min(fraction, cap > 0.0 ? cap / off : 0.0);
        }
      }
      const VmId vm = flows[f].vm;
      if (std::find(touched.begin(), touched.end(), vm) == touched.end()) {
        touched.push_back(vm);
      }
      out.vmLoad[vm.index()].first += flows[f].rps;
      netRps[vm.index()] += flows[f].rps * fraction;
    }
    if (touched.empty()) continue;
    double served = 0.0;
    for (const VmId vm : touched) {
      const double cap = app.sla.servableRps(w.hosts.vm(vm).effectiveSlice);
      out.vmLoad[vm.index()].second = std::min(netRps[vm.index()], cap);
      served += out.vmLoad[vm.index()].second;
    }
    report.appServedRps[app.id] = served;
  }

  report.accessLinkUtil.resize(w.topo.accessLinkCount());
  for (std::size_t i = 0; i < w.topo.accessLinkCount(); ++i) {
    const Link& l = net.link(w.topo.accessLink(i).link);
    const double off = linkOffered[l.id.index()];
    report.accessLinkUtil[i] = l.capacityGbps > 0.0
                                   ? off / l.capacityGbps
                                   : (off > 0.0 ? 1e9 : 0.0);
    report.externalOfferedGbps += off;
    report.externalServedGbps += std::min(off, l.capacityGbps);
  }
  report.switchUtil.resize(w.topo.switchCount());
  for (std::size_t i = 0; i < w.topo.switchCount(); ++i) {
    const Link& trunk =
        net.link(w.topo.switchTrunk(SwitchId{static_cast<std::uint32_t>(i)}));
    const double off = linkOffered[trunk.id.index()];
    report.switchUtil[i] =
        trunk.capacityGbps > 0.0 ? off / trunk.capacityGbps : 0.0;
  }
  return out;
}

/// The engine's report and the VM gauges it just wrote must equal the
/// direct computation bit for bit.
void expectMatchesDirect(const DirectResult& direct, const EpochReport& got,
                         const HostFleet& hosts, const std::string& what) {
  expectSameReport(direct.report, got, what);
  SCOPED_TRACE(what);
  for (std::size_t vi = 0; vi < direct.vmLoad.size(); ++vi) {
    const VmId vm{static_cast<VmId::value_type>(vi)};
    if (!hosts.vmExists(vm)) continue;
    EXPECT_EQ(hosts.vm(vm).offeredRps, direct.vmLoad[vi].first) << "vm " << vi;
    EXPECT_EQ(hosts.vm(vm).servedRps, direct.vmLoad[vi].second) << "vm " << vi;
  }
}

TEST(EpochReplayOracle, CachedReplayMatchesDirectComputation) {
  // Demand is diurnal and switches apps off in turns; DNS weights shift
  // every epoch, so shares relax every epoch; on top runs the structural
  // churn: VIP transfer, switch crash and repair, VM death, RIP weight
  // change, route pad and re-advertise, new VIPs appended to an app's
  // DNS set (some as standby VIPs at weight 0, exposed later) and VIPs
  // dropped from it.  A third of the apps route one VIP through an m-VIP.
  TriWorld w(30, 16, 6, /*seed=*/0x0AC1E, 500.0, 4000.0, 2,
             DemandShape::OnOffDiurnal);
  auto two = std::make_unique<FluidEngine>(
      w.sim, w.topo, w.apps, w.dns, *w.resolvers, w.routes, w.fleet,
      w.hosts, *w.demand, engineOptions(true, 2));
  ASSERT_EQ(w.par->workerCount(), 3u);

  std::mt19937 rng(0x0AC1E);
  std::uniform_int_distribution<std::uint32_t> swPick(
      0, static_cast<std::uint32_t>(w.fleet.size()) - 1);
  std::uniform_int_distribution<std::uint32_t> arPick(
      0, static_cast<std::uint32_t>(w.topo.accessLinkCount()) - 1);
  std::uniform_int_distribution<std::size_t> appPick(0, w.appIds.size() - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // A weight of exactly 0 in a quarter of the draws: zero shares and
  // zero-weight RIPs are where the kEpsRps cut-offs act.
  const auto weight = [&] { return unit(rng) < 0.25 ? 0.0 : 3.0 * unit(rng); };

  std::vector<VipId> mvips;
  for (std::size_t a = 0; a < w.appIds.size(); a += 3) {
    const VipId mvip{20'000 + static_cast<std::uint32_t>(a)};
    ASSERT_TRUE(
        w.fleet.configureVip(SwitchId{swPick(rng)}, mvip, w.appIds[a]).ok());
    RipEntry leaf;
    leaf.rip = RipId{mvip.value() * 16};
    leaf.vm = w.appVms[a].front();
    ASSERT_TRUE(w.fleet.addRip(mvip, leaf).ok());
    RipEntry hop;
    hop.rip = RipId{w.appVips[a].front().value() * 16 + 8};
    hop.mvip = mvip;
    ASSERT_TRUE(w.fleet.addRip(w.appVips[a].front(), hop).ok());
    mvips.push_back(mvip);
  }

  std::uint32_t nextVip = 10'000;
  std::vector<std::pair<AppId, VipId>> standby;
  for (int round = 0; round < 160; ++round) {
    const SimTime now = w.sim.now();
    // DNS weight shifts every epoch.
    for (int k = 0; k < 2; ++k) {
      const std::size_t a = appPick(rng);
      const auto exposed = w.dns.vips(w.appIds[a]);
      if (!exposed.empty()) {
        w.dns.setWeight(w.appIds[a], exposed[rng() % exposed.size()].vip,
                        weight());
      }
    }
    const std::size_t a = appPick(rng);
    const AppId app = w.appIds[a];
    const VipId vip = w.appVips[a][rng() % w.appVips[a].size()];
    switch (rng() % 10) {
      case 0:
        (void)w.fleet.transferVip(vip, SwitchId{swPick(rng)});
        break;
      case 1:
        if (!mvips.empty()) {
          (void)w.fleet.transferVip(mvips[rng() % mvips.size()],
                                    SwitchId{swPick(rng)});
        }
        break;
      case 2: {
        const SwitchId sw{swPick(rng)};
        if (w.fleet.at(sw).up() && w.fleet.upCount() > 1) {
          (void)w.fleet.crashSwitch(sw, now);
        } else if (!w.fleet.at(sw).up()) {
          w.fleet.recoverSwitch(sw);
        }
        break;
      }
      case 3:
        w.killVm(rng);
        break;
      case 4:
        (void)w.fleet.setRipWeight(vip, RipId{vip.value() * 16}, weight());
        break;
      case 5: {  // pad the VIP's route, or re-advertise a padded one
        const auto active = w.routes.activeRouters(vip);
        if (!active.empty()) {
          w.routes.pad(vip, active.front(), now);
        } else {
          for (const AccessRouterId ar : w.routes.reachableRouters(vip)) {
            w.routes.advertise(vip, ar, now);
          }
        }
        break;
      }
      case 6: {  // append a new VIP to the app's DNS set
        if (w.appVms[a].empty()) break;
        const VipId fresh{nextVip++};
        if (!w.fleet.configureVip(SwitchId{swPick(rng)}, fresh, app).ok()) {
          break;
        }
        RipEntry e;
        e.rip = RipId{fresh.value() * 16};
        e.vm = w.appVms[a][rng() % w.appVms[a].size()];
        ASSERT_TRUE(w.fleet.addRip(fresh, e).ok());
        // Weight 0 without a route: a standby VIP, configured but not
        // exposed; its share stays exactly 0 until case 8 exposes it.
        const double dnsWeight = weight();
        w.dns.addVip(app, fresh, dnsWeight);
        if (dnsWeight > 0.0) {
          w.routes.advertise(fresh, AccessRouterId{arPick(rng)}, now);
        } else {
          standby.emplace_back(app, fresh);
        }
        w.appVips[a].push_back(fresh);
        break;
      }
      case 7: {  // drop a VIP from DNS; clients linger on it
        const auto exposed = w.dns.vips(app);
        if (exposed.size() > 1) {
          w.dns.removeVip(app, exposed[rng() % exposed.size()].vip);
        }
        break;
      }
      case 8:  // expose a standby VIP
        if (!standby.empty()) {
          const auto [owner, idle] = standby.back();
          standby.pop_back();
          w.dns.setWeight(owner, idle, 0.5 + unit(rng));
          w.routes.advertise(idle, AccessRouterId{arPick(rng)}, now);
        }
        break;
      default:
        break;
    }

    w.sim.runUntil(now + 1.0);
    const std::string what = "oracle round " + std::to_string(round);
    const DirectResult direct = directStep(w);
    expectMatchesDirect(direct, w.full->step(), w.hosts, what + " [full]");
    expectMatchesDirect(direct, w.inc->step(), w.hosts, what + " [1 worker]");
    expectMatchesDirect(direct, two->step(), w.hosts, what + " [2 workers]");
    expectMatchesDirect(direct, w.par->step(), w.hosts, what + " [3 workers]");
    if (HasFatalFailure() || HasNonfatalFailure()) break;  // don't spam
  }
  // Moving demand and shares must not have cost the cache its hits.
  EXPECT_GT(w.inc->appsFromCache(), 2 * w.inc->appsRecomputed());
}

TEST(EpochReplayOracle, ZeroWeightBranchesReportNothing) {
  // Branches that carry no demand stay out of the report: a zero-weight
  // RIP to a dead VM is no dead_vm demand, and a VIP whose DNS weight is
  // 0 (so its share is exactly 0) and that has no route yet is no
  // no_route demand.  The direct descent cuts both off; so must the
  // replay of a tree that holds them.
  TriWorld w(3, 8, 3, /*seed=*/0x0AC1F, 500.0, 4000.0, /*fanout=*/1);
  const AppId app0 = w.appIds[0];
  const VipId vip0 = w.appVips[0].front();
  const auto doomed = w.hosts.createVm(
      app0, ServerId{7}, w.apps.app(app0).sla.sliceFor(100.0, 1.0));
  ASSERT_TRUE(doomed.ok());
  RipEntry idle;
  idle.rip = RipId{vip0.value() * 16 + 1};
  idle.vm = doomed.value();
  idle.weight = 0.0;
  ASSERT_TRUE(w.fleet.addRip(vip0, idle).ok());

  const AppId app1 = w.appIds[1];
  const VipId hidden{9'000};
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{0}, hidden, app1).ok());
  RipEntry toVm;
  toVm.rip = RipId{hidden.value() * 16};
  toVm.vm = w.appVms[1].front();
  ASSERT_TRUE(w.fleet.addRip(hidden, toVm).ok());
  w.dns.addVip(app1, hidden, 0.0);

  for (int round = 0; round < 4; ++round) {
    if (round == 2) w.hosts.destroyVm(doomed.value());
    w.sim.runUntil(w.sim.now() + 1.0);
    const std::string what = "zero-weight round " + std::to_string(round);
    const DirectResult direct = directStep(w);
    EXPECT_FALSE(direct.report.unroutedByCause.contains("dead_vm"));
    EXPECT_FALSE(direct.report.unroutedByCause.contains("no_route"));
    expectMatchesDirect(direct, w.full->step(), w.hosts, what + " [full]");
    expectMatchesDirect(direct, w.inc->step(), w.hosts, what + " [1 worker]");
    expectMatchesDirect(direct, w.par->step(), w.hosts, what + " [3 workers]");
  }
}

// --- Targeted invalidation-matrix tests --------------------------------

struct SmallWorld {
  Simulation sim;
  Topology topo;
  AppRegistry apps;
  AuthoritativeDns dns;
  RouteRegistry routes{0.0};
  SwitchFleet fleet;
  HostFleet hosts;
  std::unique_ptr<ResolverPopulation> resolvers;
  std::unique_ptr<DemandModel> demand;
  std::unique_ptr<FluidEngine> engine;
  AppId app;
  VmId vm;

  static TopologyConfig topoConfig() {
    TopologyConfig cfg;
    cfg.numServers = 4;
    cfg.serverCapacity = CapacityVec{32.0, 128.0, 2.0};
    cfg.numIsps = 2;
    cfg.accessLinksPerIsp = 1;
    cfg.accessLinkGbps = 1.0;
    cfg.numSwitches = 3;
    cfg.switchTrunkGbps = 1.0;
    return cfg;
  }

  explicit SmallWorld(double appRps = 5000.0,
                      DemandShape shape = DemandShape::Static)
      : topo(topoConfig()), hosts(topo, sim, HostCostModel{}) {
    for (int i = 0; i < 3; ++i) fleet.addSwitch(SwitchLimits{});
    app = apps.create("web", AppSla{}, appRps);
    dns.registerApp(app);
    resolvers = std::make_unique<ResolverPopulation>(dns, ResolverConfig{});
    if (shape == DemandShape::Diurnal) {
      demand = std::make_unique<DiurnalDemand>(std::vector<double>{appRps},
                                               0.8, 120.0, /*seed=*/3);
    } else {
      demand = std::make_unique<StaticDemand>(std::vector<double>{appRps});
    }
    engine = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                           routes, fleet, hosts, *demand,
                                           engineOptions(true, 1));
    const auto v =
        hosts.createVm(app, ServerId{0},
                       apps.app(app).sla.sliceFor(2.0 * appRps, 1.0));
    EXPECT_TRUE(v.ok());
    vm = v.value();
    sim.runUntil(61.0);
    EXPECT_TRUE(fleet.configureVip(SwitchId{0}, VipId{0}, app).ok());
    RipEntry e;
    e.rip = RipId{0};
    e.vm = vm;
    EXPECT_TRUE(fleet.addRip(VipId{0}, e).ok());
    dns.addVip(app, VipId{0}, 1.0);
    routes.advertise(VipId{0}, AccessRouterId{0}, sim.now());
    routes.settle(sim.now());
  }

  EpochReport stepAt(double dt) {
    sim.runUntil(sim.now() + dt);
    return engine->step();
  }

  [[nodiscard]] std::unique_ptr<FluidEngine> fullRecomputeEngine() {
    return std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                         routes, fleet, hosts, *demand,
                                         engineOptions(false, 1));
  }

  /// Steps the cached engine, checks that it re-descended nothing, and
  /// returns the VM's offered load after checking it against `full`
  /// stepped at the same time.
  double replayedLoadMatchesFull(FluidEngine& full, double dt) {
    const EpochReport r = stepAt(dt);
    EXPECT_EQ(r.engineAppsRecomputed, 0u);
    EXPECT_EQ(r.engineAppsCached, 1u);
    const double offered = hosts.vm(vm).offeredRps;
    (void)full.step();
    EXPECT_EQ(hosts.vm(vm).offeredRps, offered);  // bit for bit
    return offered;
  }
};

TEST(EpochCache, SteadyStateServesFromCache) {
  SmallWorld w;
  const EpochReport first = w.stepAt(1.0);
  EXPECT_EQ(first.engineAppsRecomputed, 1u);
  EpochReport second = w.stepAt(1.0);
  EXPECT_EQ(second.engineAppsRecomputed, 0u);
  EXPECT_EQ(second.engineAppsCached, 1u);
  // Identical world, identical report (modulo the epoch timestamp).
  second.time = first.time;
  expectSameReport(first, second, "steady state");
  EXPECT_EQ(w.engine->appsRecomputed(), 1u);
  EXPECT_EQ(w.engine->appsFromCache(), 1u);
}

TEST(EpochCache, RipWeightChangeInvalidates) {
  SmallWorld w;
  (void)w.stepAt(1.0);
  ASSERT_TRUE(w.fleet.setRipWeight(VipId{0}, RipId{0}, 2.0).ok());
  const EpochReport r = w.stepAt(1.0);
  EXPECT_EQ(r.engineAppsRecomputed, 1u);
}

TEST(EpochCache, UnchangedRipWeightKeepsAppCached) {
  SmallWorld w;
  (void)w.stepAt(1.0);
  const double weight =
      w.fleet.findVip(VipId{0})->findRip(RipId{0})->weight;
  ASSERT_TRUE(w.fleet.setRipWeight(VipId{0}, RipId{0}, weight).ok());
  const EpochReport r = w.stepAt(1.0);
  EXPECT_EQ(r.engineAppsRecomputed, 0u);
  EXPECT_EQ(r.engineAppsCached, 1u);
}

TEST(EpochCache, DnsWeightShiftReplaysCachedTree) {
  SmallWorld w;
  auto full = w.fullRecomputeEngine();
  // A second VIP so the (normalized) share vector can actually shift.
  const auto v2 = w.hosts.createVm(
      w.app, ServerId{1}, w.apps.app(w.app).sla.sliceFor(10'000.0, 1.0));
  ASSERT_TRUE(v2.ok());
  w.sim.runUntil(w.sim.now() + 61.0);
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{1}, VipId{1}, w.app).ok());
  RipEntry e;
  e.rip = RipId{16};
  e.vm = v2.value();
  ASSERT_TRUE(w.fleet.addRip(VipId{1}, e).ok());
  w.dns.addVip(w.app, VipId{1}, 1.0);
  w.routes.advertise(VipId{1}, AccessRouterId{1}, w.sim.now());
  w.routes.settle(w.sim.now());
  (void)w.stepAt(1.0);
  (void)w.stepAt(1.0);  // settle into the cache
  double before = w.hosts.vm(w.vm).offeredRps;

  // Resolver shares relax toward the new weights over the TTL.  The tree
  // holds no shares, so it stays cached, yet every relax step must move
  // the VM's load — the replay must not freeze a moving share — to
  // exactly what a full recompute computes.
  w.dns.setWeight(w.app, VipId{0}, 0.25);
  for (int step = 0; step < 5; ++step) {
    SCOPED_TRACE("relax step " + std::to_string(step));
    const double offered = w.replayedLoadMatchesFull(*full, 1.0);
    EXPECT_LT(offered, before);
    before = offered;
  }
}

TEST(EpochCache, DiurnalDemandReplaysCachedTree) {
  SmallWorld w(5000.0, DemandShape::Diurnal);
  auto full = w.fullRecomputeEngine();
  (void)w.stepAt(1.0);  // the cold epoch builds the tree
  double before = w.hosts.vm(w.vm).offeredRps;
  // The demand moves every epoch; the tree stays cached and the replayed
  // load follows it exactly.
  for (int step = 0; step < 5; ++step) {
    SCOPED_TRACE("diurnal step " + std::to_string(step));
    const double offered = w.replayedLoadMatchesFull(*full, 5.0);
    EXPECT_NE(offered, before);
    before = offered;
  }
}

TEST(EpochCache, ExposingStandbyVipRedescends) {
  // A VIP DNS does not expose has share exactly 0 and stays unresolved in
  // the cached tree; the epoch its share leaves 0 must re-descend the app
  // and route the new share, after which the tree is cached again.
  SmallWorld w;
  auto full = w.fullRecomputeEngine();
  const auto v2 = w.hosts.createVm(
      w.app, ServerId{1}, w.apps.app(w.app).sla.sliceFor(10'000.0, 1.0));
  ASSERT_TRUE(v2.ok());
  w.sim.runUntil(w.sim.now() + 61.0);
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{1}, VipId{1}, w.app).ok());
  RipEntry e;
  e.rip = RipId{16};
  e.vm = v2.value();
  ASSERT_TRUE(w.fleet.addRip(VipId{1}, e).ok());
  w.dns.addVip(w.app, VipId{1}, 0.0);  // standby
  w.routes.advertise(VipId{1}, AccessRouterId{1}, w.sim.now());
  w.routes.settle(w.sim.now());
  (void)w.stepAt(1.0);
  EXPECT_EQ(w.stepAt(1.0).engineAppsRecomputed, 0u);
  EXPECT_EQ(w.hosts.vm(v2.value()).offeredRps, 0.0);

  w.dns.setWeight(w.app, VipId{1}, 1.0);
  EXPECT_EQ(w.stepAt(1.0).engineAppsRecomputed, 1u);
  const double exposed = w.hosts.vm(v2.value()).offeredRps;
  EXPECT_GT(exposed, 0.0);
  (void)full->step();
  EXPECT_EQ(w.hosts.vm(v2.value()).offeredRps, exposed);
  // Resolved now: the next relax step replays the cached tree again.
  EXPECT_GT(w.replayedLoadMatchesFull(*full, 1.0), 0.0);
  EXPECT_GT(w.hosts.vm(v2.value()).offeredRps, exposed);
}

TEST(EpochCache, VmDeathInvalidatesAndReportsDeadVm) {
  SmallWorld w;
  (void)w.stepAt(1.0);
  w.hosts.destroyVm(w.vm);
  const EpochReport r = w.stepAt(1.0);
  EXPECT_EQ(r.engineAppsRecomputed, 1u);
  EXPECT_NEAR(r.unroutedByCause.at("dead_vm"), 5000.0, 1e-6);
}

TEST(EpochCache, VipTransferInvalidates) {
  SmallWorld w;
  const EpochReport before = w.stepAt(1.0);
  EXPECT_GT(before.switchUtil[0], 0.0);
  ASSERT_TRUE(w.fleet.transferVip(VipId{0}, SwitchId{1}).ok());
  const EpochReport r = w.stepAt(1.0);
  EXPECT_EQ(r.engineAppsRecomputed, 1u);
  EXPECT_EQ(r.switchUtil[0], 0.0);
  EXPECT_GT(r.switchUtil[1], 0.0);
}

TEST(EpochCache, SwitchCrashInvalidates) {
  SmallWorld w;
  (void)w.stepAt(1.0);
  (void)w.fleet.crashSwitch(SwitchId{0}, w.sim.now());
  const EpochReport r = w.stepAt(1.0);
  EXPECT_EQ(r.engineAppsRecomputed, 1u);
  EXPECT_NEAR(r.unroutedByCause.at("no_owner"), 5000.0, 1e-6);
}

TEST(EpochCache, DegradedRoutedRpsTracksPaddedFallback) {
  SmallWorld w;
  const EpochReport healthy = w.stepAt(1.0);
  EXPECT_EQ(healthy.degradedRoutedRps, 0.0);
  // Pad the only route: no Active route remains, the engine falls back
  // to reachable (padded) routes and flags the traffic as degraded.
  w.routes.pad(VipId{0}, AccessRouterId{0}, w.sim.now());
  const EpochReport r = w.stepAt(1.0);
  EXPECT_NEAR(r.degradedRoutedRps, 5000.0, 1e-6);
  EXPECT_NEAR(r.appServedRps.at(w.app), 5000.0, 1e-6);
  EXPECT_EQ(r.unroutedRps, 0.0);
}

TEST(EpochCache, FullRecomputeFallbackKnob) {
  SmallWorld w;
  // Swap in a full-recompute engine over the same world.
  auto fullEngine = std::make_unique<FluidEngine>(
      w.sim, w.topo, w.apps, w.dns, *w.resolvers, w.routes, w.fleet,
      w.hosts, *w.demand, engineOptions(false, 1));
  w.sim.runUntil(w.sim.now() + 1.0);
  const EpochReport inc = w.engine->step();
  const EpochReport full = fullEngine->step();
  expectSameReport(full, inc, "fallback knob");
  EXPECT_EQ(full.engineAppsRecomputed, 0u);
  EXPECT_EQ(full.engineAppsCached, 0u);
  EXPECT_EQ(fullEngine->appsRecomputed(), 0u);
}

}  // namespace
}  // namespace mdc
