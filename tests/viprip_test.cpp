// Unit tests for the serialized VIP/RIP manager.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "mdc/core/viprip_manager.hpp"

namespace mdc {
namespace {

struct Fixture {
  Simulation sim;
  Topology topo;
  SwitchFleet fleet;
  AuthoritativeDns dns;
  RouteRegistry routes{2.0};
  AppRegistry apps;
  VipRipManager viprip;

  static TopologyConfig topoConfig() {
    TopologyConfig cfg;
    cfg.numServers = 8;
    cfg.numIsps = 2;
    cfg.accessLinksPerIsp = 1;
    cfg.numSwitches = 3;
    return cfg;
  }

  static VipRipManager::Options options() {
    VipRipManager::Options o;
    o.processSeconds = 0.1;
    o.reconfigSeconds = 1.0;
    return o;
  }

  static SwitchLimits smallSwitch() {
    SwitchLimits lim;
    lim.maxVips = 4;
    lim.maxRips = 8;
    return lim;
  }

  Fixture() : topo(topoConfig()),
              viprip(sim, fleet, dns, routes, apps, topo, options()) {
    for (int i = 0; i < 3; ++i) fleet.addSwitch(smallSwitch());
  }

  AppId makeApp() { return apps.create("a", AppSla{}, 100.0); }
};

TEST(VipRipManager, CreateVipNowPlacesOnEmptiestSwitch) {
  Fixture f;
  const AppId app = f.makeApp();
  const auto vip = f.viprip.createVipNow(app);
  ASSERT_TRUE(vip.ok());
  // Registered everywhere: fleet, DNS, app, route.
  EXPECT_TRUE(f.fleet.ownerOf(vip.value()).has_value());
  EXPECT_TRUE(f.dns.hasApp(app));
  EXPECT_EQ(f.dns.vips(app).size(), 1u);
  EXPECT_EQ(f.apps.app(app).vips.size(), 1u);
  EXPECT_NO_THROW((void)f.viprip.routerOf(vip.value()));
}

TEST(VipRipManager, VipsSpreadAcrossSwitches) {
  Fixture f;
  const AppId app = f.makeApp();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(f.viprip.createVipNow(app).ok());
  }
  // 6 VIPs over 3 switches -> 2 each with the occupancy-first policy.
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(f.fleet.at(SwitchId{s}).vipCount(), 2u);
  }
}

TEST(VipRipManager, VipsSpreadAcrossAccessRouters) {
  Fixture f;
  const AppId app = f.makeApp();
  ASSERT_TRUE(f.viprip.createVipNow(app).ok());
  ASSERT_TRUE(f.viprip.createVipNow(app).ok());
  const auto& vips = f.apps.app(app).vips;
  EXPECT_NE(f.viprip.routerOf(vips[0]), f.viprip.routerOf(vips[1]));
}

TEST(VipRipManager, CreateVipFailsWhenAllTablesFull) {
  Fixture f;
  const AppId app = f.makeApp();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(f.viprip.createVipNow(app).ok());
  }
  // Table exhaustion is a branchable error, not a contract violation —
  // recovery code retries on it.
  const auto r = f.viprip.createVipNow(app);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "vip_table_full");
}

TEST(VipRipManager, RejectedRequestStillInvokesDoneAndIsCounted) {
  Fixture f;
  const AppId app = f.makeApp();
  bool called = false;
  VipRipRequest req;
  req.op = VipRipOp::NewRip;  // fails: the app has no VIPs yet
  req.app = app;
  req.vm = VmId{0};
  req.done = [&](Status s) {
    called = true;
    EXPECT_EQ(s.error().code, "app_has_no_vips");
  };
  f.viprip.submit(std::move(req));
  f.sim.runUntil(5.0);
  EXPECT_TRUE(called);  // callers must always learn the outcome
  EXPECT_EQ(f.viprip.rejectedRequests(), 1u);
  ASSERT_EQ(f.viprip.rejectionsByCode().count("app_has_no_vips"), 1u);
  EXPECT_EQ(f.viprip.rejectionsByCode().at("app_has_no_vips"), 1u);
}

TEST(VipRipManager, RejectionsBrokenDownByErrorCode) {
  Fixture f;
  const AppId app = f.makeApp();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(f.viprip.createVipNow(app).ok());
  }
  auto submitOp = [&](VipRipOp op) {
    VipRipRequest req;
    req.op = op;
    req.app = app;
    req.vm = VmId{0};
    f.viprip.submit(std::move(req));
  };
  submitOp(VipRipOp::NewVip);     // vip_table_full (all 12 slots taken)
  submitOp(VipRipOp::NewVip);     // vip_table_full again
  submitOp(VipRipOp::SetWeight);  // vm_has_no_rips
  f.sim.runUntil(10.0);
  const auto& byCode = f.viprip.rejectionsByCode();
  ASSERT_EQ(byCode.count("vip_table_full"), 1u);
  EXPECT_EQ(byCode.at("vip_table_full"), 2u);
  EXPECT_EQ(byCode.count("vm_has_no_rips"), 1u);
  EXPECT_EQ(f.viprip.rejectedRequests(), 3u);
}

TEST(VipRipManager, RestoreVipRehostsOrphanWithOriginalRips) {
  Fixture f;
  const AppId app = f.makeApp();
  const auto vip = f.viprip.createVipNow(app);
  ASSERT_TRUE(vip.ok());
  ASSERT_TRUE(f.viprip.createRipNow(app, VmId{0}, 2.0).ok());
  ASSERT_TRUE(f.viprip.createRipNow(app, VmId{1}, 3.0).ok());

  const SwitchId owner = *f.fleet.ownerOf(vip.value());
  ASSERT_EQ(f.fleet.crashSwitch(owner, f.sim.now()), 1u);
  auto orphans = f.fleet.takeOrphans(owner);
  ASSERT_EQ(orphans.size(), 1u);

  VipRipRequest req;
  req.op = VipRipOp::RestoreVip;
  req.app = orphans[0].app;
  req.vip = orphans[0].vip;
  req.rips = orphans[0].rips;
  Status result = Status::fail("pending");
  req.done = [&](Status s) { result = s; };
  f.viprip.submit(std::move(req));
  f.sim.runUntil(10.0);

  EXPECT_TRUE(result.ok());
  const auto newOwner = f.fleet.ownerOf(vip.value());
  ASSERT_TRUE(newOwner.has_value());
  EXPECT_NE(*newOwner, owner);  // the crashed switch is still down
  const VipEntry* e = f.fleet.findVip(vip.value());
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->rips.size(), 2u);  // original RIP ids and weights survive
  EXPECT_DOUBLE_EQ(e->findRip(f.viprip.ripsOf(VmId{1})[0].rip)->weight, 3.0);

  // The VM bookkeeping still routes weight updates to the new home.
  VipRipRequest w;
  w.op = VipRipOp::SetWeight;
  w.vm = VmId{0};
  w.weight = 7.0;
  f.viprip.submit(std::move(w));
  f.sim.runUntil(20.0);
  const auto refs = f.viprip.ripsOf(VmId{0});
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_DOUBLE_EQ(f.fleet.findVip(refs[0].vip)->findRip(refs[0].rip)->weight,
                   7.0);
}

TEST(VipRipManager, AdoptedRipIdIsNeverIssuedAgain) {
  Fixture f;
  const AppId app = f.makeApp();
  const auto vip = f.viprip.createVipNow(app);
  ASSERT_TRUE(vip.ok());
  ASSERT_TRUE(f.viprip.createRipNow(app, VmId{0}, 1.0).ok());
  const RipId lost = f.viprip.ripsOf(VmId{0})[0].rip;

  // The AddRip record is the journal's tail, and a crash mid-write tears
  // it: the recovered intent (and id watermark) predate the RIP, while
  // the switch still holds it.
  ASSERT_TRUE(f.viprip.stateMachine().changelog().tearTail(/*entropy=*/5));
  f.viprip.crash();
  f.viprip.recoverAsLeader(2);
  ASSERT_TRUE(f.viprip.ripsOf(VmId{0}).empty());

  // The switch dies; restoring its orphan adopts the lost id back into
  // intent from the switch table.
  const SwitchId owner = *f.fleet.ownerOf(vip.value());
  ASSERT_EQ(f.fleet.crashSwitch(owner, f.sim.now()), 1u);
  auto orphans = f.fleet.takeOrphans(owner);
  ASSERT_EQ(orphans.size(), 1u);
  ASSERT_EQ(orphans[0].rips.size(), 1u);
  ASSERT_EQ(orphans[0].rips[0].rip, lost);
  VipRipRequest restore;
  restore.op = VipRipOp::RestoreVip;
  restore.app = orphans[0].app;
  restore.vip = orphans[0].vip;
  restore.rips = orphans[0].rips;
  Status restored = Status::fail("pending");
  restore.done = [&](Status s) { restored = s; };
  f.viprip.submit(std::move(restore));
  f.sim.runUntil(f.sim.now() + 10.0);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(f.viprip.ripsOf(VmId{0}).size(), 1u);
  EXPECT_EQ(f.viprip.ripsOf(VmId{0})[0].rip, lost);

  // A following NewRip (same app, so the same VIP) gets a fresh id.
  VipRipRequest add;
  add.op = VipRipOp::NewRip;
  add.app = app;
  add.vm = VmId{1};
  add.weight = 1.0;
  Status added = Status::fail("pending");
  add.done = [&](Status s) { added = s; };
  f.viprip.submit(std::move(add));
  f.sim.runUntil(f.sim.now() + 10.0);
  ASSERT_TRUE(added.ok());
  ASSERT_EQ(f.viprip.ripsOf(VmId{1}).size(), 1u);
  EXPECT_NE(f.viprip.ripsOf(VmId{1})[0].rip, lost);
  EXPECT_EQ(f.fleet.findVip(vip.value())->rips.size(), 2u);
}

TEST(VipRipManager, RestoreThatDropsARipUnbindsItsVm) {
  Fixture f;
  const AppId app = f.makeApp();
  const auto vip = f.viprip.createVipNow(app);
  ASSERT_TRUE(vip.ok());
  ASSERT_TRUE(f.viprip.createRipNow(app, VmId{0}, 2.0).ok());
  ASSERT_TRUE(f.viprip.createRipNow(app, VmId{1}, 3.0).ok());
  const RipId dropped = f.viprip.ripsOf(VmId{0})[0].rip;

  const SwitchId owner = *f.fleet.ownerOf(vip.value());
  ASSERT_EQ(f.fleet.crashSwitch(owner, f.sim.now()), 1u);
  auto orphans = f.fleet.takeOrphans(owner);
  ASSERT_EQ(orphans.size(), 1u);

  // The orphaned table lacks VM 0's RIP, which intent holds.  VM 1's RIP
  // stays, so the VIP keeps a backend and nothing re-binds VM 0.
  VipRipRequest req;
  req.op = VipRipOp::RestoreVip;
  req.app = orphans[0].app;
  req.vip = orphans[0].vip;
  for (const RipEntry& r : orphans[0].rips) {
    if (r.rip != dropped) req.rips.push_back(r);
  }
  ASSERT_EQ(req.rips.size(), 1u);
  Status restored = Status::fail("pending");
  req.done = [&](Status s) { restored = s; };
  f.viprip.submit(std::move(req));
  f.sim.runUntil(10.0);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(f.viprip.intent().find(vip.value())->findRip(dropped), nullptr);
  EXPECT_TRUE(f.viprip.ripsOf(VmId{0}).empty());
  EXPECT_EQ(f.viprip.ripsOf(VmId{1}).size(), 1u);

  // The manager knows VM 0 is unbound, so its owner hears it and can
  // re-bind the VM.
  VipRipRequest w;
  w.op = VipRipOp::SetWeight;
  w.vm = VmId{0};
  w.weight = 5.0;
  std::string code = "pending";
  w.done = [&](Status s) { code = s.ok() ? "ok" : s.error().code; };
  f.viprip.submit(std::move(w));
  f.sim.runUntil(20.0);
  EXPECT_EQ(code, "vm_has_no_rips");
}

// --- intent journal: recovery over the manager's own changelog ------------
// The fixture's manager takes no periodic snapshots, so every recovery is a
// full replay of its changelog.

/// Journals four AddVip records (VIPs 0..3) and nothing else.
void addFourVips(Fixture& f, AppId app) {
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(f.viprip.createVipNow(app).ok());
  ASSERT_EQ(f.viprip.stateMachine().changelog().size(), 4u);
}

TEST(IntentJournalDurability, ReplayStopsAtFirstMalformedRecord) {
  // A crash mid-write tears the last frame; bit rot fails its CRC.  Either
  // way recovery replays the valid prefix and cuts the damaged record off.
  for (const bool torn : {true, false}) {
    SCOPED_TRACE(torn ? "torn tail" : "corrupt record");
    Fixture f;
    const AppId app = f.makeApp();
    addFourVips(f, app);
    state::Changelog& log = f.viprip.stateMachine().changelog();
    ASSERT_TRUE(torn ? log.tearTail(/*entropy=*/5)
                     : log.corruptTail(/*entropy=*/0x3cu));

    f.viprip.rebuildIntentFromJournal();
    const IntentStore& intent = f.viprip.intent();
    EXPECT_EQ(intent.vipCount(), 3u);
    EXPECT_NE(intent.find(VipId{2}), nullptr);
    EXPECT_EQ(intent.find(VipId{3}), nullptr);
    EXPECT_EQ(f.viprip.stateMachine().lastRecovery().replayedRecords, 3u);
    EXPECT_GT(f.viprip.stateMachine().lastRecovery().truncatedBytes, 0u);
    EXPECT_EQ(log.size(), 3u);
    // The VIP the recovered history never created is retracted from DNS.
    EXPECT_EQ(f.dns.vips(app).size(), 3u);
  }
}

TEST(IntentJournalDurability, ResyncAfterTruncationDropsDeadRecords) {
  Fixture f;
  addFourVips(f, f.makeApp());
  f.viprip.crash();
  f.viprip.recoverAsLeader(3);
  f.viprip.crash();
  f.viprip.recoverAsLeader(7);
  ASSERT_EQ(f.viprip.durableTerm(), 7u);

  // The term-7 record is the torn tail: recovery drops it, so the durable
  // term falls back to the earlier one, while every intent record before
  // it survives.
  state::Changelog& log = f.viprip.stateMachine().changelog();
  ASSERT_TRUE(log.tearTail(/*entropy=*/9));
  f.viprip.rebuildIntentFromJournal();
  EXPECT_EQ(f.viprip.durableTerm(), 3u);
  EXPECT_EQ(f.viprip.intent().vipCount(), 4u);
  EXPECT_EQ(log.size(), 5u);  // four AddVips and the term-3 record
}

TEST(IntentJournalDurability, SemanticallyMalformedRecordStopsReplay) {
  // CRC-valid records the store must refuse: an AddRip to a VIP that does
  // not exist, AddVips whose VIP or switch id is invalid, and a MoveVip to
  // an invalid switch (no table can index those).  Recovery treats the
  // refusal as end-of-trustworthy-prefix.
  IntentRecord ripOfUnknownVip;
  ripOfUnknownVip.op = IntentOp::AddRip;
  ripOfUnknownVip.vip = VipId{77};
  ripOfUnknownVip.rip = RipEntry{RipId{1}, VmId{1}, VipId{}, 1.0};
  IntentRecord invalidVip;
  invalidVip.op = IntentOp::AddVip;
  invalidVip.app = AppId{0};
  invalidVip.sw = SwitchId{0};
  IntentRecord invalidSwitch;
  invalidSwitch.op = IntentOp::AddVip;
  invalidSwitch.vip = VipId{5};
  invalidSwitch.app = AppId{0};
  IntentRecord moveToInvalidSwitch;
  moveToInvalidSwitch.op = IntentOp::MoveVip;
  moveToInvalidSwitch.vip = VipId{0};
  const std::pair<const char*, IntentRecord> cases[] = {
      {"AddRip to an unknown vip", ripOfUnknownVip},
      {"AddVip with an invalid vip id", invalidVip},
      {"AddVip with an invalid switch id", invalidSwitch},
      {"MoveVip to an invalid switch id", moveToInvalidSwitch}};
  for (const auto& [name, bad] : cases) {
    SCOPED_TRACE(name);
    Fixture f;
    const AppId app = f.makeApp();
    ASSERT_TRUE(f.viprip.createVipNow(app).ok());  // VIP 0
    ASSERT_FALSE(f.viprip.intent().canApply(bad));
    state::ByteWriter bytes;
    encodeIntentRecord(bad, bytes);
    state::Changelog& log = f.viprip.stateMachine().changelog();
    log.append(bytes.bytes());
    ASSERT_TRUE(f.viprip.createVipNow(app).ok());  // after the stop

    f.viprip.rebuildIntentFromJournal();
    const IntentStore& intent = f.viprip.intent();
    EXPECT_EQ(intent.vipCount(), 1u);
    EXPECT_NE(intent.find(VipId{0}), nullptr);
    EXPECT_EQ(intent.find(VipId{1}), nullptr);
    EXPECT_EQ(f.viprip.stateMachine().lastRecovery().replayedRecords, 1u);
    EXPECT_EQ(log.size(), 1u);  // the refused record and its successor are cut
  }
}

TEST(VipRipManager, RipGoesToSwitchHostingAppVip) {
  Fixture f;
  const AppId app = f.makeApp();
  const auto vip = f.viprip.createVipNow(app);
  ASSERT_TRUE(vip.ok());
  ASSERT_TRUE(f.viprip.createRipNow(app, VmId{0}, 2.0).ok());
  const auto owner = f.fleet.ownerOf(vip.value());
  EXPECT_EQ(f.fleet.at(*owner).ripCount(), 1u);
  const auto refs = f.viprip.ripsOf(VmId{0});
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].vip, vip.value());
}

TEST(VipRipManager, RipFailsWithoutVips) {
  Fixture f;
  const AppId app = f.makeApp();
  const Status s = f.viprip.createRipNow(app, VmId{0}, 1.0);
  EXPECT_EQ(s.error().code, "app_has_no_vips");
}

TEST(VipRipManager, QueueProcessesSeriallyWithLatency) {
  Fixture f;
  const AppId app = f.makeApp();
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.done = [&](Status s) {
      EXPECT_TRUE(s.ok());
      ++done;
    };
    f.viprip.submit(std::move(req));
  }
  // Decisions serialize at 0.1 s each (0.1, 0.2, 0.3); the 1.0 s switch
  // reconfigurations run in parallel, completing at 1.1, 1.2, 1.3.
  f.sim.runUntil(1.0);
  EXPECT_EQ(done, 0);
  f.sim.runUntil(1.15);
  EXPECT_EQ(done, 1);
  f.sim.runUntil(1.25);
  EXPECT_EQ(done, 2);
  f.sim.runUntil(3.5);
  EXPECT_EQ(done, 3);
  EXPECT_EQ(f.viprip.processedRequests(), 3u);
  EXPECT_EQ(f.viprip.queueLength(), 0u);
}

TEST(VipRipManager, PriorityJumpsTheQueue) {
  Fixture f;
  const AppId app = f.makeApp();
  std::vector<int> order;
  auto mk = [&](int priority, int tag) {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.priority = priority;
    req.done = [&order, tag](Status) { order.push_back(tag); };
    return req;
  };
  // All three arrive before the manager's first pump, so strict priority
  // order applies across the whole batch.
  f.viprip.submit(mk(0, 1));
  f.viprip.submit(mk(0, 2));
  f.viprip.submit(mk(5, 3));
  f.sim.runUntil(10.0);
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

TEST(VipRipManager, EqualPriorityFifoSurvivesCrashRecover) {
  Fixture f;
  const AppId app = f.makeApp();
  std::vector<int> order;
  std::vector<std::string> codes;
  auto mk = [&](int tag) {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.done = [&, tag](Status s) {
      order.push_back(tag);
      codes.push_back(s.ok() ? "ok" : s.error().code);
    };
    return req;
  };
  f.viprip.submit(mk(1));
  f.viprip.submit(mk(2));
  f.viprip.submit(mk(3));
  f.sim.runUntil(1.15);  // 1 landed at 1.1; 2 and 3 are mid-flight
  ASSERT_EQ(order, (std::vector<int>{1}));

  f.viprip.crash();
  f.sim.runUntil(2.0);
  // The doomed requests settle as cancelled in their submission order.
  ASSERT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(codes[1], "cancelled");
  EXPECT_EQ(codes[2], "cancelled");

  // After recovery, equal-priority work is again strictly FIFO — the
  // admission queue's (priority, seq) order carries across the restart.
  f.viprip.recoverAsLeader(2);
  f.viprip.submit(mk(4));
  f.viprip.submit(mk(5));
  f.viprip.submit(mk(6));
  f.sim.runUntil(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(codes[3], "ok");
  EXPECT_EQ(codes[4], "ok");
  EXPECT_EQ(codes[5], "ok");
}

TEST(VipRipManager, SetWeightAndDeleteRip) {
  Fixture f;
  const AppId app = f.makeApp();
  ASSERT_TRUE(f.viprip.createVipNow(app).ok());
  ASSERT_TRUE(f.viprip.createRipNow(app, VmId{3}, 1.0).ok());

  VipRipRequest w;
  w.op = VipRipOp::SetWeight;
  w.vm = VmId{3};
  w.weight = 9.0;
  f.viprip.submit(std::move(w));
  f.sim.runUntil(5.0);
  const auto refs = f.viprip.ripsOf(VmId{3});
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_DOUBLE_EQ(
      f.fleet.findVip(refs[0].vip)->findRip(refs[0].rip)->weight, 9.0);

  VipRipRequest d;
  d.op = VipRipOp::DeleteRip;
  d.vm = VmId{3};
  f.viprip.submit(std::move(d));
  f.sim.runUntil(10.0);
  EXPECT_TRUE(f.viprip.ripsOf(VmId{3}).empty());
  EXPECT_EQ(f.fleet.totalRips(), 0u);
}

TEST(VipRipManager, DeleteVipCleansEverything) {
  Fixture f;
  const AppId app = f.makeApp();
  const auto vip = f.viprip.createVipNow(app);
  ASSERT_TRUE(vip.ok());
  ASSERT_TRUE(f.viprip.createRipNow(app, VmId{0}, 1.0).ok());

  VipRipRequest req;
  req.op = VipRipOp::DeleteVip;
  req.vip = vip.value();
  f.viprip.submit(std::move(req));
  f.sim.runUntil(5.0);
  EXPECT_FALSE(f.fleet.ownerOf(vip.value()).has_value());
  EXPECT_TRUE(f.apps.app(app).vips.empty());
  EXPECT_TRUE(f.dns.vips(app).empty());
  EXPECT_TRUE(f.viprip.ripsOf(VmId{0}).empty());
}

TEST(VipRipManager, MoveVipRouteUpdatesDirectoryAndDrains) {
  Fixture f;
  const AppId app = f.makeApp();
  const auto vip = f.viprip.createVipNow(app);
  ASSERT_TRUE(vip.ok());
  const AccessRouterId from = f.viprip.routerOf(vip.value());
  const AccessRouterId to{from.value() == 0 ? 1u : 0u};
  f.sim.runUntil(3.0);  // let the first advertisement converge
  f.routes.settle(f.sim.now());
  ASSERT_TRUE(f.routes.isActive(vip.value(), from));

  f.viprip.moveVipRoute(vip.value(), to);
  EXPECT_EQ(f.viprip.routerOf(vip.value()), to);
  // Old route drains (padded, reachable) then is withdrawn.
  f.routes.settle(f.sim.now());
  EXPECT_FALSE(f.routes.isActive(vip.value(), from));
  EXPECT_TRUE(f.routes.isReachable(vip.value(), from));
  f.sim.runUntil(f.sim.now() + 120.0);
  f.routes.settle(f.sim.now());
  EXPECT_FALSE(f.routes.isReachable(vip.value(), from));
  EXPECT_TRUE(f.routes.isActive(vip.value(), to));
}

TEST(VipRipManager, RequestLatencyHistogramFills) {
  Fixture f;
  const AppId app = f.makeApp();
  VipRipRequest req;
  req.op = VipRipOp::NewVip;
  req.app = app;
  f.viprip.submit(std::move(req));
  f.sim.runUntil(5.0);
  EXPECT_EQ(f.viprip.requestLatency().count(), 1u);
  EXPECT_NEAR(f.viprip.requestLatency().meanValue(), 1.1, 0.2);
}

}  // namespace
}  // namespace mdc
