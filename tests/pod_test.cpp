// Unit tests for the pod registry and pod manager.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mdc/core/pod.hpp"
#include "mdc/sim/rng.hpp"

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

// The pod's weight checkpoint table against a std::map under random
// churn: sets, overwrites, erases of present and absent VMs, clears and
// regrowth.  The narrow id ranges keep the table small and crowded, so
// probe runs collide and wrap, and every erase shifts them back.
TEST(VmWeightTable, MatchesMapUnderRandomChurn) {
  for (const std::uint64_t idRange : {40u, 700u, 1u << 30}) {
    SCOPED_TRACE("id range " + std::to_string(idRange));
    Rng rng{0x7ab1e5u + idRange};
    VmWeightTable table;
    std::map<VmId, double> want;
    std::vector<VmId> setIds;
    for (int step = 0; step < 20000; ++step) {
      VmId vm{static_cast<VmId::value_type>(rng.uniformInt(idRange))};
      const std::uint64_t action = rng.uniformInt(100);
      if (action < 50) {
        const double w = rng.uniform(0.0, 10.0);
        table.set(vm, w);
        want[vm] = w;
        setIds.push_back(vm);
      } else if (action < 95) {
        if (action < 85 && !setIds.empty()) {
          vm = setIds[rng.uniformInt(setIds.size())];
        }
        table.erase(vm);
        want.erase(vm);
      } else if (action == 95) {
        table.clear();
        want.clear();
      }
      const double* got = table.find(vm);
      const auto it = want.find(vm);
      ASSERT_EQ(got != nullptr, it != want.end()) << "step " << step;
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second);
      }
      ASSERT_EQ(table.size(), want.size());
      if (step % 997 == 0 || step == 19999) {
        const std::vector<std::pair<VmId, double>> all(want.begin(),
                                                       want.end());
        ASSERT_EQ(table.sorted(), all) << "step " << step;
      }
    }
  }
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

TEST(PodManager, StatsCountAVmMigratingInsideThePodOnce) {
  // While a vacate moves a VM to another server of the pod, the VM is
  // attached to both servers; the pod still holds one VM, not two.
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  const auto vm =
      f.hosts.createVm(app, ServerId{0}, CapacityVec{2.0, 4.0, 0.25});
  ASSERT_TRUE(vm.ok());
  f.sim.runUntil(5.0);  // VM active

  ASSERT_TRUE(pod.vacateServer(ServerId{0}, {}));
  ASSERT_EQ(f.hosts.vm(vm.value()).state, VmState::Migrating);
  ASSERT_EQ(f.hosts.vmsOn(ServerId{1}), std::vector<VmId>{vm.value()});
  pod.setAppDemand(app, 0.0);
  pod.runControlLoop();
  EXPECT_EQ(pod.stats().vms, 1u);

  f.sim.runUntil(10.0);  // the move completed
  ASSERT_EQ(f.hosts.vm(vm.value()).server, ServerId{1});
  pod.runControlLoop();
  EXPECT_EQ(pod.stats().vms, 1u);
}

// --- The pod round vs the map-based round it replaced ---------------------
//
// `reference::PodRound` is PodManager's control round as it was before it
// walked flat arrays: apps interned through a hash map, the existing
// placement and its surplus found through a std::map keyed by (app index,
// server index), instance membership by a walk over the app's instances.
// Its order of problem apps, current assignments and calls is the
// contract the flat round must keep, so it stays here as the reference.
namespace reference {

constexpr double kResizeDeadband = 0.15;
constexpr double kWeightDeadband = 0.20;
constexpr SimTime kYoungVmGraceSeconds = 20.0;

class PodRound {
 public:
  PodRound(PodId id, Simulation& sim, HostFleet& hosts, AppRegistry& apps,
           const Topology& topo, const PodRegistry& registry,
           const PlacementAlgorithm& algorithm, RipRequestSink& rips)
      : id_(id),
        sim_(sim),
        hosts_(hosts),
        apps_(apps),
        topo_(topo),
        registry_(registry),
        algorithm_(algorithm),
        rips_(rips) {}

  FlatMap<AppId, double>& demand() { return demand_; }

  void run() {
    if (demand_.empty()) return;
    std::vector<ServerId> serverIds;
    for (ServerId s : registry_.serversOf(id_)) {
      if (hosts_.serverUp(s)) serverIds.push_back(s);
    }
    if (serverIds.empty()) return;

    std::unordered_map<AppId, std::uint32_t> appIndex;
    std::vector<AppId> appIds;
    auto internApp = [&](AppId app) {
      const auto [it, inserted] =
          appIndex.emplace(app, static_cast<std::uint32_t>(appIds.size()));
      if (inserted) appIds.push_back(app);
      return it->second;
    };
    PlacementInput input;
    for (ServerId s : serverIds) {
      input.servers.push_back(PlacementServer{topo_.server(s).capacity});
    }
    ExistingVms existing;
    std::vector<std::pair<VmId, Assignment>> resident;
    for (std::uint32_t si = 0; si < serverIds.size(); ++si) {
      for (VmId vm : hosts_.vmsOn(serverIds[si])) {
        if (!hosts_.vmExists(vm)) continue;
        const VmRecord& rec = hosts_.vm(vm);
        if (rec.server != serverIds[si]) continue;
        if (!isManagedInstance(rec.app, vm)) continue;
        const std::uint32_t ai = internApp(rec.app);
        const double rps = apps_.app(rec.app).sla.servableRps(rec.slice) /
                           kSliceHeadroom;
        resident.emplace_back(vm, Assignment{ai, si, rps});
        existing[{ai, si}] = vm;
      }
    }
    std::vector<VmId> surplus;
    for (const auto& [vm, a] : resident) {
      if (existing.at({a.app, a.server}) == vm) {
        input.current.push_back(a);
      } else {
        surplus.push_back(vm);
      }
    }
    for (const auto& [app, rps] : demand_) internApp(app);
    input.apps.resize(appIds.size());
    for (std::uint32_t ai = 0; ai < appIds.size(); ++ai) {
      const auto it = demand_.find(appIds[ai]);
      input.apps[ai] = PlacementApp{apps_.app(appIds[ai]).sla,
                                    it == demand_.end() ? 0.0 : it->second};
    }

    const PlacementResult result = algorithm_.place(input);
    applyAssignment(input, result, appIds, serverIds, existing);
    for (VmId vm : surplus) retire(vm);
  }

 private:
  using ExistingVms = std::map<std::pair<std::uint32_t, std::uint32_t>, VmId>;

  void applyAssignment(const PlacementInput& input,
                       const PlacementResult& result,
                       const std::vector<AppId>& appIds,
                       const std::vector<ServerId>& serverIds,
                       const ExistingVms& existing) {
    for (const Assignment& a : result.assignment) {
      if (a.rps <= 1e-9) continue;
      const AppId app = appIds[a.app];
      const ServerId server = serverIds[a.server];
      const CapacityVec slice =
          input.apps[a.app].sla.sliceFor(a.rps, kSliceHeadroom);
      const auto ex = existing.find({a.app, a.server});
      if (ex == existing.end()) {
        const double weight = a.rps;
        auto created = hosts_.createVm(
            app, server, slice, /*clone=*/true,
            [this, app, weight](VmId vm) {
              rips_.requestNewRip(app, vm, weight);
            });
        if (created.ok()) apps_.addInstance(app, created.value());
      } else {
        const VmId vm = ex->second;
        const VmRecord& rec = hosts_.vm(vm);
        if (rec.state != VmState::Active) continue;
        const double curRps = apps_.app(app).sla.servableRps(rec.slice) /
                              kSliceHeadroom;
        if (std::abs(curRps - a.rps) >
            kResizeDeadband * std::max(curRps, 1.0)) {
          (void)hosts_.adjustVmCapacity(vm, slice);
        }
        const auto lw = lastWeight_.find(vm);
        if (lw == lastWeight_.end() ||
            std::abs(lw->second - a.rps) >
                kWeightDeadband * std::max(lw->second, 1.0)) {
          rips_.requestRipWeight(vm, a.rps);
          lastWeight_[vm] = a.rps;
        }
      }
    }
    const auto wanted = [&](std::pair<std::uint32_t, std::uint32_t> key) {
      const auto it = std::lower_bound(
          result.assignment.begin(), result.assignment.end(), key,
          [](const Assignment& a, std::pair<std::uint32_t, std::uint32_t> k) {
            return std::pair{a.app, a.server} < k;
          });
      return it != result.assignment.end() && it->app == key.first &&
             it->server == key.second && it->rps > 1e-9;
    };
    for (const auto& [key, vm] : existing) {
      if (!wanted(key)) retire(vm);
    }
  }

  void retire(VmId vm) {
    if (!hosts_.vmExists(vm)) return;
    const VmRecord& rec = hosts_.vm(vm);
    if (rec.state == VmState::Migrating) return;
    if (sim_.now() - rec.createdAt < kYoungVmGraceSeconds) return;
    apps_.removeInstance(rec.app, vm);
    lastWeight_.erase(vm);
    rips_.requestRipRemoval(vm, [this, vm] {
      if (hosts_.vmExists(vm) && hosts_.vm(vm).state != VmState::Migrating) {
        hosts_.destroyVm(vm);
      }
    });
  }

  [[nodiscard]] bool isManagedInstance(AppId app, VmId vm) const {
    const auto& inst = apps_.app(app).instances;
    return std::find(inst.begin(), inst.end(), vm) != inst.end();
  }

  PodId id_;
  Simulation& sim_;
  HostFleet& hosts_;
  AppRegistry& apps_;
  const Topology& topo_;
  const PodRegistry& registry_;
  const PlacementAlgorithm& algorithm_;
  RipRequestSink& rips_;
  FlatMap<AppId, double> demand_;
  std::unordered_map<VmId, double> lastWeight_;
};

}  // namespace reference

/// Records every problem it is handed and answers with a scripted
/// decision drawn from its seed and the call count: each current pair is
/// kept at about its rate, resized, listed at or below the 1e-9 floor, or
/// dropped, and a few new pairs start (some below the floor).
class ScriptedPlacement final : public PlacementAlgorithm {
 public:
  explicit ScriptedPlacement(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] PlacementResult place(
      const PlacementInput& input) const override {
    inputs.push_back(input);
    Rng rng{seed_ * 1000 + inputs.size()};
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> current;
    for (const Assignment& a : input.current) {
      current[{a.app, a.server}] = a.rps;
    }
    PlacementResult r;
    for (std::uint32_t a = 0; a < input.apps.size(); ++a) {
      r.demandRps += input.apps[a].demandRps;
      for (std::uint32_t s = 0; s < input.servers.size(); ++s) {
        const auto it = current.find({a, s});
        double rps = -1.0;  // not listed
        if (it != current.end()) {
          const double u = rng.uniform();
          if (u < 0.3) {
            rps = it->second * rng.uniform(0.9, 1.1);
          } else if (u < 0.6) {
            rps = it->second * rng.uniform(0.3, 2.5);
          } else if (u < 0.7) {
            rps = rng.bernoulli(0.5) ? 0.0 : 1e-10;
          }
        } else if (rng.bernoulli(0.06)) {
          rps = rng.bernoulli(0.15) ? 1e-10 : rng.uniform(100.0, 1500.0);
        }
        if (rps < 0.0) continue;
        r.assignment.push_back(Assignment{a, s, rps});
        r.satisfiedRps += rps;
      }
    }
    return r;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "scripted";
  }

  mutable std::vector<PlacementInput> inputs;

 private:
  std::uint64_t seed_;
};

/// One call a pod round made, stamped with how many VMs had been created
/// and resized before it, so creates and resizes are ordered against the
/// RIP requests too.
struct RoundCall {
  char kind = '?';  // 'N'ew RIP, 'W'eight, 'R'emoval
  VmId vm;
  AppId app;
  double value = 0.0;
  std::size_t created = 0;
  std::uint64_t resized = 0;
  bool operator==(const RoundCall&) const = default;
};

class StampingSink final : public RipRequestSink {
 public:
  explicit StampingSink(const HostFleet& hosts) : hosts_(hosts) {}
  void requestNewRip(AppId app, VmId vm, double weight) override {
    record('N', vm, app, weight);
  }
  void requestRipRemoval(VmId vm, std::function<void()> onDone) override {
    record('R', vm, AppId{}, 0.0);
    if (onDone) onDone();
  }
  void requestRipWeight(VmId vm, double weight) override {
    record('W', vm, AppId{}, weight);
  }
  std::vector<RoundCall> calls;

 private:
  void record(char kind, VmId vm, AppId app, double value) {
    calls.push_back(RoundCall{kind, vm, app, value, hosts_.vmIndexBound(),
                              hosts_.capacityAdjustments()});
  }
  const HostFleet& hosts_;
};

/// A world of 10 servers, 7 of them in pod 0, driven by one script: the
/// same seed builds and evolves two copies identically as long as their
/// pod rounds decide identically.
struct RoundWorld {
  static constexpr std::uint32_t kServers = 10;
  static constexpr std::uint32_t kPodServers = 7;

  static TopologyConfig topoConfig() {
    TopologyConfig cfg;
    cfg.numServers = kServers;
    cfg.serverCapacity = CapacityVec{16.0, 24.0, 2.0};
    cfg.numSwitches = 1;
    return cfg;
  }
  static HostCostModel costs() {
    HostCostModel c;
    c.vmBootSeconds = 4.0;
    c.vmCloneSeconds = 1.0;
    c.capacityAdjustSeconds = 0.5;
    c.migrationGbps = 0.5;  // a 2-GB VM moves in 32 s: across rounds
    return c;
  }

  explicit RoundWorld(std::uint64_t seed)
      : topo(topoConfig()),
        hosts(topo, sim, costs()),
        registry(kServers),
        sink(hosts),
        algorithm(std::make_shared<ScriptedPlacement>(seed)) {
    for (std::uint32_t s = 0; s < kPodServers; ++s) {
      registry.assign(ServerId{s}, PodId{0});
    }
  }

  Simulation sim;
  Topology topo;
  HostFleet hosts;
  AppRegistry apps;
  PodRegistry registry;
  StampingSink sink;
  std::shared_ptr<ScriptedPlacement> algorithm;
};

/// What the script saw of the pod's corner cases before one round.
struct RoundCoverage {
  std::uint64_t sharedPairs = 0;    // extra managed VMs of a pair
  std::uint64_t migratingIn = 0;    // target copies on pod servers
  std::uint64_t detached = 0;       // live unmanaged VMs on pod servers
  std::uint64_t demandOnly = 0;     // problem apps without a current pair
};

RoundCoverage coverageOf(const RoundWorld& w, const PlacementInput* input) {
  RoundCoverage c;
  std::map<std::pair<AppId, ServerId>, int> managed;
  for (std::uint32_t s = 0; s < RoundWorld::kPodServers; ++s) {
    for (VmId vm : w.hosts.vmsOn(ServerId{s})) {
      if (!w.hosts.vmExists(vm)) continue;
      const VmRecord& rec = w.hosts.vm(vm);
      if (rec.server != ServerId{s}) {
        ++c.migratingIn;
      } else if (!w.apps.isInstance(rec.app, vm)) {
        ++c.detached;
      } else if (++managed[{rec.app, rec.server}] > 1) {
        ++c.sharedPairs;
      }
    }
  }
  if (input != nullptr) {
    std::set<std::uint32_t> withPair;
    for (const Assignment& a : input->current) withPair.insert(a.app);
    c.demandOnly = input->apps.size() - withPair.size();
  }
  return c;
}

/// Seeds the world: apps (a few never get a VM), managed VMs with
/// several per (app, server) pair, detached VMs, inside and outside the
/// pod, then lets them boot past the young-VM grace period.
void seedWorld(RoundWorld& w, Rng& rng) {
  const std::size_t apps = 4 + rng.uniformInt(6);
  for (std::size_t a = 0; a < apps; ++a) {
    AppSla sla;
    sla.cpuPerKrps = rng.uniform(0.5, 2.0);
    sla.memPerInstanceGb = rng.bernoulli(0.5) ? 1.0 : 2.0;
    w.apps.create("app" + std::to_string(a), sla, 1.0);
  }
  const std::size_t vms = 12 + rng.uniformInt(16);
  for (std::size_t v = 0; v < vms; ++v) {
    // Apps 0..apps-3 only: the last two start with demand but no VM.
    const AppId app{static_cast<AppId::value_type>(rng.uniformInt(apps - 2))};
    // Half of the VMs crowd onto servers 0-1, so pairs repeat.
    const ServerId server{static_cast<ServerId::value_type>(
        rng.bernoulli(0.5) ? rng.uniformInt(2)
                           : rng.uniformInt(RoundWorld::kServers))};
    const CapacityVec slice = w.apps.app(app).sla.sliceFor(
        rng.uniform(100.0, 1500.0), kSliceHeadroom);
    const auto vm = w.hosts.createVm(app, server, slice);
    if (vm.ok() && rng.bernoulli(0.85)) w.apps.addInstance(app, vm.value());
  }
  w.sim.runUntil(25.0);
}

/// One step of the script before a round: new demand (in a shuffled call
/// order), a few migrations into, out of and inside the pod, and a few
/// managed VMs detached as if being retired.
template <typename SetDemand>
void perturb(RoundWorld& w, Rng& rng, SetDemand&& setDemand) {
  std::vector<std::pair<AppId, double>> demand;
  for (std::uint32_t a = 0; a < w.apps.size(); ++a) {
    if (rng.bernoulli(0.8)) {
      demand.emplace_back(AppId{a},
                          rng.bernoulli(0.15) ? 0.0
                                              : rng.uniform(50.0, 3000.0));
    }
  }
  for (std::size_t i = demand.size(); i > 1; --i) {
    std::swap(demand[i - 1], demand[rng.uniformInt(i)]);
  }
  for (const auto& [app, rps] : demand) setDemand(app, rps);

  const std::size_t bound = w.hosts.vmIndexBound();
  for (int m = 0; m < 3 && bound > 0; ++m) {
    const VmId vm{static_cast<VmId::value_type>(rng.uniformInt(bound))};
    const ServerId dst{static_cast<ServerId::value_type>(
        rng.uniformInt(RoundWorld::kServers))};
    if (w.hosts.vmExists(vm) && w.hosts.vm(vm).state == VmState::Active) {
      (void)w.hosts.migrateVm(vm, dst);
    }
  }
  for (int d = 0; d < 2 && bound > 0; ++d) {
    const VmId vm{static_cast<VmId::value_type>(rng.uniformInt(bound))};
    if (rng.bernoulli(0.5) && w.hosts.vmExists(vm) &&
        w.apps.isInstance(w.hosts.vm(vm).app, vm)) {
      w.apps.removeInstance(w.hosts.vm(vm).app, vm);
    }
  }
}

void expectSameInput(const PlacementInput& got, const PlacementInput& want) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(got.servers.size(), want.servers.size());
  for (std::size_t s = 0; s < want.servers.size(); ++s) {
    ASSERT_EQ(got.servers[s].capacity, want.servers[s].capacity);
  }
  ASSERT_EQ(got.apps.size(), want.apps.size());
  for (std::size_t a = 0; a < want.apps.size(); ++a) {
    ASSERT_EQ(bits(got.apps[a].demandRps), bits(want.apps[a].demandRps))
        << "app index " << a;
    ASSERT_EQ(bits(got.apps[a].sla.cpuPerKrps),
              bits(want.apps[a].sla.cpuPerKrps));
    ASSERT_EQ(bits(got.apps[a].sla.memPerInstanceGb),
              bits(want.apps[a].sla.memPerInstanceGb));
    ASSERT_EQ(bits(got.apps[a].sla.gbpsPerKrps),
              bits(want.apps[a].sla.gbpsPerKrps));
  }
  ASSERT_EQ(got.current.size(), want.current.size());
  for (std::size_t i = 0; i < want.current.size(); ++i) {
    ASSERT_EQ(got.current[i].app, want.current[i].app) << "current " << i;
    ASSERT_EQ(got.current[i].server, want.current[i].server);
    ASSERT_EQ(bits(got.current[i].rps), bits(want.current[i].rps));
  }
}

void expectSameWorld(const RoundWorld& got, const RoundWorld& want) {
  ASSERT_EQ(got.sink.calls, want.sink.calls);
  ASSERT_EQ(got.hosts.vmIndexBound(), want.hosts.vmIndexBound());
  ASSERT_EQ(got.hosts.capacityAdjustments(), want.hosts.capacityAdjustments());
  for (std::uint32_t v = 0; v < want.hosts.vmIndexBound(); ++v) {
    const VmRecord& g = got.hosts.vm(VmId{v});
    const VmRecord& w = want.hosts.vm(VmId{v});
    ASSERT_EQ(g.app, w.app) << "vm " << v;
    ASSERT_EQ(g.server, w.server) << "vm " << v;
    ASSERT_EQ(g.slice, w.slice) << "vm " << v;
    ASSERT_EQ(g.state, w.state) << "vm " << v;
  }
  for (std::uint32_t a = 0; a < want.apps.size(); ++a) {
    ASSERT_EQ(got.apps.app(AppId{a}).instances,
              want.apps.app(AppId{a}).instances)
        << "app " << a;
  }
}

TEST(PodManager, FlatRoundMatchesMapRound) {
  RoundCoverage seen;
  std::uint64_t creates = 0, resizes = 0, weights = 0, removals = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RoundWorld flat{seed};
    RoundWorld ref{seed};
    PodManager pod{PodId{0}, flat.sim, flat.hosts, flat.apps, flat.topo,
                   flat.registry, flat.algorithm, flat.sink,
                   PodManager::Options{}};
    reference::PodRound round{PodId{0}, ref.sim, ref.hosts, ref.apps,
                              ref.topo, ref.registry, *ref.algorithm,
                              ref.sink};
    Rng flatScript{seed};
    Rng refScript{seed};
    seedWorld(flat, flatScript);
    seedWorld(ref, refScript);
    for (int r = 0; r < 4; ++r) {
      SCOPED_TRACE("round " + std::to_string(r));
      pod.clearAppDemand();
      round.demand().clear();
      perturb(flat, flatScript,
              [&](AppId app, double rps) { pod.setAppDemand(app, rps); });
      perturb(ref, refScript,
              [&](AppId app, double rps) { round.demand()[app] = rps; });
      const RoundCoverage before = coverageOf(flat, nullptr);
      const std::size_t callsBefore = flat.sink.calls.size();
      const std::size_t vmsBefore = flat.hosts.vmIndexBound();
      const std::uint64_t resizesBefore = flat.hosts.capacityAdjustments();

      pod.runControlLoop();
      round.run();
      ASSERT_EQ(flat.algorithm->inputs.size(), ref.algorithm->inputs.size());
      ASSERT_NO_FATAL_FAILURE(expectSameInput(flat.algorithm->inputs.back(),
                                              ref.algorithm->inputs.back()));
      ASSERT_NO_FATAL_FAILURE(expectSameWorld(flat, ref));

      seen.sharedPairs += before.sharedPairs;
      seen.migratingIn += before.migratingIn;
      seen.detached += before.detached;
      seen.demandOnly +=
          coverageOf(flat, &flat.algorithm->inputs.back()).demandOnly;
      creates += flat.hosts.vmIndexBound() - vmsBefore;
      resizes += flat.hosts.capacityAdjustments() - resizesBefore;
      for (std::size_t i = callsBefore; i < flat.sink.calls.size(); ++i) {
        weights += flat.sink.calls[i].kind == 'W' ? 1u : 0u;
        removals += flat.sink.calls[i].kind == 'R' ? 1u : 0u;
      }
      // Clones activate (and bind RIPs) and resizes settle between rounds;
      // some rounds come before a clone is up.
      const double gap = r % 2 == 0 ? 0.5 : 3.0;
      flat.sim.runUntil(flat.sim.now() + gap);
      ref.sim.runUntil(ref.sim.now() + gap);
    }
  }
  // The script must reach every corner the two rounds could disagree on.
  EXPECT_GT(seen.sharedPairs, 100u);
  EXPECT_GT(seen.migratingIn, 100u);
  EXPECT_GT(seen.detached, 100u);
  EXPECT_GT(seen.demandOnly, 100u);
  EXPECT_GT(creates, 100u);
  EXPECT_GT(resizes, 100u);
  EXPECT_GT(weights, 100u);
  EXPECT_GT(removals, 100u);
}

}  // namespace
}  // namespace mdc
