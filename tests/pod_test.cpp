// Unit tests for the pod registry and pod manager.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "mdc/core/pod.hpp"

namespace mdc {
namespace {

/// Records RIP requests instead of touching switches.
class RecordingSink final : public RipRequestSink {
 public:
  void requestNewRip(AppId app, VmId vm, double weight) override {
    newRips.push_back({app, vm, weight});
  }
  void requestRipRemoval(VmId vm, std::function<void()> onDone) override {
    removals.push_back(vm);
    if (onDone) onDone();  // pretend the switch update applied instantly
  }
  void requestRipWeight(VmId vm, double weight) override {
    weightUpdates.push_back({vm, weight});
  }

  struct NewRip {
    AppId app;
    VmId vm;
    double weight;
  };
  std::vector<NewRip> newRips;
  std::vector<VmId> removals;
  std::vector<std::pair<VmId, double>> weightUpdates;
};

struct Fixture {
  Simulation sim;
  Topology topo;
  HostFleet hosts;
  AppRegistry apps;
  PodRegistry registry;
  RecordingSink sink;
  std::vector<std::unique_ptr<PodManager>> pods;

  static TopologyConfig topoConfig() {
    TopologyConfig cfg;
    cfg.numServers = 8;
    cfg.serverCapacity = CapacityVec{8.0, 32.0, 1.0};
    cfg.numSwitches = 1;
    return cfg;
  }
  static HostCostModel costs() {
    HostCostModel c;
    c.vmBootSeconds = 4.0;
    c.vmCloneSeconds = 1.0;
    c.capacityAdjustSeconds = 0.5;
    c.migrationGbps = 32.0;  // 1 GB in 0.25 s
    return c;
  }
  static PodManager::Options podOptions() {
    PodManager::Options o;
    o.controlPeriod = 5.0;
    return o;
  }

  explicit Fixture(const TopologyConfig& cfg = topoConfig())
      : topo(cfg), hosts(topo, sim, costs()), registry(cfg.numServers) {}

  PodManager& makePod(std::vector<ServerId> servers) {
    const PodId id{static_cast<PodId::value_type>(pods.size())};
    pods.push_back(std::make_unique<PodManager>(
        id, sim, hosts, apps, topo, registry,
        std::make_shared<PlacementController>(), sink, podOptions()));
    for (ServerId s : servers) pods.back()->adoptServer(s);
    return *pods.back();
  }
};

TEST(PodRegistry, AssignAndMove) {
  PodRegistry reg{4};
  reg.assign(ServerId{0}, PodId{0});
  reg.assign(ServerId{1}, PodId{0});
  reg.assign(ServerId{2}, PodId{1});
  EXPECT_EQ(reg.podOf(ServerId{0}), PodId{0});
  EXPECT_EQ(reg.serversOf(PodId{0}).size(), 2u);
  EXPECT_FALSE(reg.podOf(ServerId{3}).valid());

  reg.assign(ServerId{1}, PodId{1});
  EXPECT_EQ(reg.serversOf(PodId{0}).size(), 1u);
  EXPECT_EQ(reg.serversOf(PodId{1}).size(), 2u);
}

TEST(PodRegistry, ReassignToSamePodIsNoop) {
  PodRegistry reg{2};
  reg.assign(ServerId{0}, PodId{0});
  reg.assign(ServerId{0}, PodId{0});
  EXPECT_EQ(reg.serversOf(PodId{0}).size(), 1u);
}

TEST(PodRegistry, UnknownServerThrows) {
  PodRegistry reg{2};
  EXPECT_THROW(reg.assign(ServerId{9}, PodId{0}), PreconditionError);
  EXPECT_THROW((void)reg.podOf(ServerId{9}), PreconditionError);
}

TEST(PodManager, ControlLoopCreatesVmsForDemand) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}, ServerId{2}});
  const AppId app = f.apps.create("web", AppSla{}, 1000.0);
  pod.setAppDemand(app, 2000.0);
  pod.runControlLoop();
  // VMs created (still booting); RIP requests arrive on activation.
  EXPECT_GT(f.hosts.activeVmCount(), 0u);
  f.sim.runUntil(2.0);  // clones activate
  EXPECT_FALSE(f.sink.newRips.empty());
  EXPECT_EQ(f.sink.newRips[0].app, app);
  // Demand is actually servable by the created slices.
  double servable = 0.0;
  for (const auto& nr : f.sink.newRips) {
    servable +=
        f.apps.app(app).sla.servableRps(f.hosts.vm(nr.vm).effectiveSlice);
  }
  EXPECT_GE(servable, 2000.0);
}

TEST(PodManager, StatsReflectDecision) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  const AppId app = f.apps.create("web", AppSla{}, 1000.0);
  pod.setAppDemand(app, 1000.0);
  pod.runControlLoop();
  const PodStats& st = pod.stats();
  EXPECT_EQ(st.pod, pod.id());
  EXPECT_EQ(st.servers, 2u);
  EXPECT_DOUBLE_EQ(st.demandRps, 1000.0);
  EXPECT_NEAR(st.satisfiedRatio, 1.0, 1e-9);
  EXPECT_GT(st.decisionSeconds, 0.0);
  EXPECT_GT(st.placementChanges, 0u);
}

TEST(PodManager, ShrinksWhenDemandVanishes) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  const AppId app = f.apps.create("web", AppSla{}, 1000.0);
  pod.setAppDemand(app, 2000.0);
  pod.runControlLoop();
  f.sim.runUntil(25.0);  // past the young-VM grace period
  const auto vmsBefore = f.hosts.activeVmCount();
  ASSERT_GT(vmsBefore, 0u);

  pod.setAppDemand(app, 0.0);
  pod.runControlLoop();
  f.sim.runUntil(40.0);
  EXPECT_EQ(f.hosts.activeVmCount(), 0u);
  EXPECT_EQ(f.sink.removals.size(), vmsBefore);
}

TEST(PodManager, RetiresSurplusVmOfOneAppOnOneServer) {
  // Two managed VMs of one app on one server are one placement instance:
  // the pod manager keeps the last one listed and retires the other,
  // instead of leaving it unmanaged forever.
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}});
  const AppId app = f.apps.create("web", AppSla{}, 1000.0);
  const CapacityVec slice = AppSla{}.sliceFor(500.0, kSliceHeadroom);
  std::vector<VmId> vms;
  for (int i = 0; i < 2; ++i) {
    const auto vm = f.hosts.createVm(app, ServerId{0}, slice);
    ASSERT_TRUE(vm.ok());
    f.apps.addInstance(app, vm.value());
    vms.push_back(vm.value());
  }
  f.sim.runUntil(25.0);  // both active and past the young-VM grace period

  pod.setAppDemand(app, 1000.0);
  pod.runControlLoop();
  ASSERT_EQ(f.sink.removals, std::vector<VmId>{vms[0]});
  EXPECT_FALSE(f.hosts.vmExists(vms[0]));
  EXPECT_TRUE(f.hosts.vmExists(vms[1]));
  EXPECT_EQ(f.apps.app(app).instances, std::vector<VmId>{vms[1]});

  // The kept VM now carries the app's demand alone and stays.
  f.sim.runUntil(30.0);
  pod.runControlLoop();
  EXPECT_EQ(f.sink.removals.size(), 1u);
  EXPECT_GE(f.apps.app(app).sla.servableRps(f.hosts.vm(vms[1]).slice),
            1000.0);
}

TEST(PodManager, DemandOnlyAppsEnterPlacementInAppOrder) {
  // One server with room for two instances (an instance's memory is a
  // fixed 2 GB): a resident app grows, and two apps with equal demand but
  // no instance compete for the one free slot.  Placement breaks the tie
  // by input order, which for such apps is ascending app id whatever the
  // order of the setAppDemand calls, so every decision must repeat.
  struct Calls {
    std::vector<std::tuple<AppId, ServerId, CapacityVec>> created;
    std::uint64_t resizes = 0;
    std::vector<std::tuple<AppId, VmId, double>> newRips;
    std::vector<std::pair<VmId, double>> weights;
    std::vector<VmId> removals;
  };
  const auto run = [](bool ascending) {
    TopologyConfig cfg = Fixture::topoConfig();
    cfg.numServers = 1;
    cfg.serverCapacity = CapacityVec{8.0, 5.0, 1.0};
    Fixture f{cfg};
    PodManager& pod = f.makePod({ServerId{0}});
    const AppId resident = f.apps.create("resident", AppSla{}, 1.0);
    const AppId x = f.apps.create("x", AppSla{}, 1.0);
    const AppId y = f.apps.create("y", AppSla{}, 1.0);
    pod.setAppDemand(resident, 1000.0);
    pod.runControlLoop();
    f.sim.runUntil(2.0);  // the resident clone is active

    pod.clearAppDemand();
    std::vector<std::pair<AppId, double>> demand{
        {resident, 3000.0}, {x, 1000.0}, {y, 1000.0}};
    if (!ascending) std::reverse(demand.begin(), demand.end());
    for (const auto& [app, rps] : demand) pod.setAppDemand(app, rps);
    pod.runControlLoop();
    f.sim.runUntil(4.0);  // the new clone is active, the resize applied

    Calls calls;
    for (std::uint32_t v = 0; v < f.hosts.vmIndexBound(); ++v) {
      const VmRecord& rec = f.hosts.vm(VmId{v});
      calls.created.emplace_back(rec.app, rec.server, rec.slice);
    }
    calls.resizes = f.hosts.capacityAdjustments();
    for (const auto& r : f.sink.newRips) {
      calls.newRips.emplace_back(r.app, r.vm, r.weight);
    }
    calls.weights = f.sink.weightUpdates;
    calls.removals = f.sink.removals;
    return calls;
  };

  const Calls asc = run(/*ascending=*/true);
  const Calls desc = run(/*ascending=*/false);
  EXPECT_EQ(asc.created, desc.created);
  EXPECT_EQ(asc.resizes, desc.resizes);
  EXPECT_EQ(asc.newRips, desc.newRips);
  EXPECT_EQ(asc.weights, desc.weights);
  EXPECT_EQ(asc.removals, desc.removals);
  // The resident grew in place and the lower app id took the free slot.
  ASSERT_EQ(asc.created.size(), 2u);
  EXPECT_EQ(std::get<0>(asc.created[1]), AppId{1});
  EXPECT_EQ(asc.resizes, 1u);
  ASSERT_EQ(asc.newRips.size(), 2u);
  EXPECT_EQ(asc.weights.size(), 1u);
}

TEST(PodManager, PeriodicLoopRuns) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  pod.setAppDemand(app, 100.0);
  pod.start();
  f.sim.runUntil(11.0);  // loops at 0, 5, 10 (phase 0)
  EXPECT_GT(f.hosts.activeVmCount(), 0u);
}

TEST(PodManager, AdoptAndDonorSelection) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}, ServerId{2}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  // Load server 0 only.
  ASSERT_TRUE(
      f.hosts.createVm(app, ServerId{0}, CapacityVec{4.0, 8.0, 0.5}).ok());
  const auto donors = pod.pickDonorServers(2);
  ASSERT_EQ(donors.size(), 2u);
  EXPECT_NE(donors[0], ServerId{0});
  EXPECT_NE(donors[1], ServerId{0});
}

TEST(PodManager, VacateServerMigratesAndFires) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  const auto vm =
      f.hosts.createVm(app, ServerId{0}, CapacityVec{2.0, 4.0, 0.25});
  ASSERT_TRUE(vm.ok());
  f.sim.runUntil(5.0);  // VM active

  ServerId freed;
  ASSERT_TRUE(pod.vacateServer(ServerId{0},
                               [&](ServerId s) { freed = s; }));
  f.sim.runUntil(10.0);
  EXPECT_EQ(freed, ServerId{0});
  EXPECT_EQ(f.hosts.vm(vm.value()).server, ServerId{1});
  EXPECT_EQ(f.hosts.usedCapacity(ServerId{0}), CapacityVec{});
}

TEST(PodManager, VacateEmptyServerFiresImmediately) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  bool fired = false;
  ASSERT_TRUE(pod.vacateServer(ServerId{0}, [&](ServerId) { fired = true; }));
  EXPECT_TRUE(fired);
}

TEST(PodManager, VacateFailsWhenNoRoom) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  // Fill both servers so neither can absorb the other.
  ASSERT_TRUE(
      f.hosts.createVm(app, ServerId{0}, CapacityVec{6.0, 24.0, 0.8}).ok());
  ASSERT_TRUE(
      f.hosts.createVm(app, ServerId{1}, CapacityVec{6.0, 24.0, 0.8}).ok());
  f.sim.runUntil(5.0);
  EXPECT_FALSE(pod.vacateServer(ServerId{0}, {}));
}

TEST(PodManager, VacateFailsWithBootingVm) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  ASSERT_TRUE(
      f.hosts.createVm(app, ServerId{0}, CapacityVec{1.0, 2.0, 0.1}).ok());
  // Still booting at t=0.
  EXPECT_FALSE(pod.vacateServer(ServerId{0}, {}));
}

TEST(PodManager, CoveredApps) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}});
  const AppId a = f.apps.create("a", AppSla{}, 1.0);
  const AppId b = f.apps.create("b", AppSla{}, 1.0);
  ASSERT_TRUE(
      f.hosts.createVm(a, ServerId{0}, CapacityVec{1.0, 2.0, 0.1}).ok());
  ASSERT_TRUE(
      f.hosts.createVm(b, ServerId{0}, CapacityVec{1.0, 2.0, 0.1}).ok());
  const auto covered = pod.coveredApps();
  EXPECT_EQ(covered.size(), 2u);
}

TEST(PodManager, ElephantTransferMovesServersWithVms) {
  // Moving a server between pods with its VM intact is pure bookkeeping.
  Fixture f;
  PodManager& podA = f.makePod({ServerId{0}, ServerId{1}});
  PodManager& podB = f.makePod({ServerId{2}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  const auto vm =
      f.hosts.createVm(app, ServerId{0}, CapacityVec{2.0, 4.0, 0.2});
  ASSERT_TRUE(vm.ok());

  podB.adoptServer(ServerId{0});  // elephant-relief path
  EXPECT_EQ(f.registry.podOf(ServerId{0}), podB.id());
  EXPECT_EQ(podA.servers().size(), 1u);
  EXPECT_EQ(podB.servers().size(), 2u);
  // VM untouched.
  EXPECT_EQ(f.hosts.vm(vm.value()).server, ServerId{0});
}

}  // namespace
}  // namespace mdc
