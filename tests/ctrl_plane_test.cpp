// Tests for the unreliable control channel and the anti-entropy
// reconciliation of the VIP/RIP control plane (E14): commands must apply
// exactly once through drops, duplicates, reorders, and partitions; every
// request completion must fire exactly once; and the reconciler must
// drive intended-vs-actual drift to zero.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "mdc/ctrl/command_sender.hpp"
#include "mdc/ctrl/control_channel.hpp"
#include "mdc/ctrl/done_guard.hpp"
#include "mdc/ctrl/switch_agent.hpp"
#include "mdc/fault/fault_injector.hpp"
#include "mdc/scenario/megadc.hpp"

namespace mdc {
namespace {

TEST(CtrlPlane, ReliableChannelDeliversInline) {
  Simulation sim;
  ControlChannel channel{sim, 1};
  ASSERT_TRUE(channel.faults().reliable());

  bool delivered = false;
  channel.send(SwitchId{0}, [&] { delivered = true; });
  EXPECT_TRUE(delivered);  // synchronous: no sim step needed
  EXPECT_EQ(channel.messagesSent(), 1u);
  EXPECT_EQ(channel.messagesDropped(), 0u);

  channel.setPartitioned(SwitchId{0}, true);
  EXPECT_EQ(channel.partitionedLinks(), 1u);
  bool second = false;
  channel.send(SwitchId{0}, [&] { second = true; });
  sim.runUntil(10.0);
  EXPECT_FALSE(second);  // partitioned: dropped even on a reliable link
  EXPECT_EQ(channel.messagesDropped(), 1u);

  channel.setPartitioned(SwitchId{0}, false);
  EXPECT_EQ(channel.partitionedLinks(), 0u);
}

TEST(CtrlPlane, LossyChannelIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    Simulation sim;
    ControlChannel channel{sim, seed};
    ChannelFaults faults;
    faults.dropRate = 0.3;
    faults.duplicateRate = 0.2;
    faults.reorderRate = 0.2;
    faults.delaySeconds = 0.05;
    faults.delayJitterSeconds = 0.1;
    channel.setFaults(faults);
    std::vector<std::pair<int, SimTime>> deliveries;
    for (int i = 0; i < 64; ++i) {
      channel.send(SwitchId{0},
                   [&deliveries, &sim, i] { deliveries.emplace_back(i, sim.now()); });
    }
    sim.runUntil(100.0);
    return std::make_tuple(deliveries, channel.messagesDropped(),
                           channel.messagesDuplicated(),
                           channel.messagesReordered());
  };
  const auto a = run(99);
  const auto b = run(99);
  EXPECT_GT(std::get<1>(a), 0u);  // the fault model actually engaged
  EXPECT_EQ(a, b);                // and replays bit-identically
}

TEST(CtrlPlane, AgentAppliesDuplicateDeliveriesOnce) {
  SwitchFleet fleet;
  const SwitchId sw = fleet.addSwitch(SwitchLimits{});
  SwitchAgent agent{fleet, sw};
  std::vector<CommandAck> acks;
  const auto onAck = [&acks](const CommandAck& a) { acks.push_back(a); };

  const VipId vip{7};
  SwitchCommand cfg;
  cfg.kind = CmdKind::ConfigureVip;
  cfg.vip = vip;
  cfg.app = AppId{1};
  cfg.seq = 0;
  agent.deliver(cfg, onAck);
  agent.deliver(cfg, onAck);  // duplicate: re-acked, not re-applied
  EXPECT_EQ(fleet.at(sw).vipCount(), 1u);

  SwitchCommand add;
  add.kind = CmdKind::AddRip;
  add.vip = vip;
  add.rip = RipEntry{RipId{3}, VmId{5}, VipId{}, 2.0};
  add.seq = 1;
  agent.deliver(add, onAck);
  agent.deliver(add, onAck);  // would be "rip_exists" if applied twice
  EXPECT_EQ(fleet.at(sw).ripCount(), 1u);

  SwitchCommand rem;
  rem.kind = CmdKind::RemoveRip;
  rem.vip = vip;
  rem.rip.rip = RipId{3};
  rem.seq = 2;
  agent.deliver(rem, onAck);
  agent.deliver(rem, onAck);  // would be "rip_unknown" if applied twice
  EXPECT_EQ(fleet.at(sw).ripCount(), 0u);

  ASSERT_EQ(acks.size(), 6u);
  for (const CommandAck& a : acks) EXPECT_TRUE(a.status.ok());
  EXPECT_EQ(agent.commandsApplied(), 3u);
  EXPECT_EQ(agent.duplicatesDropped(), 3u);

  // The sender's piggybacked watermark prunes the outcome cache, and a
  // duplicate older than the watermark is dropped without an ack (the
  // sender has already seen it acked).
  SwitchCommand next;
  next.kind = CmdKind::SetRipWeight;
  next.vip = vip;
  next.rip.rip = RipId{9};  // unknown: outcome is an error, still cached
  next.seq = 3;
  next.ackedBelow = 3;
  agent.deliver(next, onAck);
  EXPECT_EQ(agent.outcomeCacheSize(), 1u);  // seqs 0..2 pruned
  const std::size_t before = acks.size();
  agent.deliver(cfg, onAck);  // seq 0 < watermark: silent drop
  EXPECT_EQ(acks.size(), before);
  EXPECT_EQ(fleet.at(sw).vipCount(), 1u);
}

TEST(CtrlPlane, SenderRetriesUntilEveryCommandAppliesExactlyOnce) {
  Simulation sim;
  SwitchFleet fleet;
  const SwitchId sw = fleet.addSwitch(SwitchLimits{});
  ControlChannel channel{sim, 4242};
  CommandSender::Options opt;
  opt.ackTimeoutSeconds = 0.5;
  opt.maxAttempts = 0;  // never give up
  CommandSender sender{sim, channel, fleet, opt};

  const VipId vip{1};
  // Install the VIP on the still-reliable channel, then turn the faults
  // on for the RIP burst (the bootstrap/steady-state split).
  int cfgDone = 0;
  SwitchCommand cfg;
  cfg.kind = CmdKind::ConfigureVip;
  cfg.vip = vip;
  cfg.app = AppId{0};
  sender.send(sw, cfg, [&cfgDone](Status s) {
    ++cfgDone;
    EXPECT_TRUE(s.ok());
  });
  EXPECT_EQ(cfgDone, 1);  // reliable: round trip completed inline

  ChannelFaults faults;
  faults.dropRate = 0.4;
  faults.duplicateRate = 0.2;
  faults.reorderRate = 0.2;
  faults.delaySeconds = 0.02;
  faults.delayJitterSeconds = 0.05;
  channel.setFaults(faults);

  constexpr int kRips = 24;
  std::vector<int> fired(kRips, 0);
  for (int i = 0; i < kRips; ++i) {
    SwitchCommand add;
    add.kind = CmdKind::AddRip;
    add.vip = vip;
    add.rip = RipEntry{RipId{static_cast<RipId::value_type>(i)},
                       VmId{static_cast<VmId::value_type>(i)}, VipId{}, 1.0};
    sender.send(sw, add, [&fired, i](Status s) {
      ++fired[static_cast<std::size_t>(i)];
      EXPECT_TRUE(s.ok()) << s.error().code;
    });
    EXPECT_TRUE(sender.vipBusy(vip));
  }
  sim.runUntil(600.0);

  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], 1) << "rip " << i;
  }
  EXPECT_EQ(fleet.at(sw).ripCount(), static_cast<std::uint32_t>(kRips));
  EXPECT_GT(sender.retransmits(), 0u);
  EXPECT_GT(sender.agentOf(sw).duplicatesDropped(), 0u);
  EXPECT_EQ(sender.agentOf(sw).commandsApplied(), 1u + kRips);
  EXPECT_EQ(sender.inflight(), 0u);
  EXPECT_FALSE(sender.vipBusy(vip));

  // One more (reliable) command carries the everything-acked watermark,
  // pruning every older outcome: the cache is bounded by the in-flight
  // window, not by history.
  channel.setFaults(ChannelFaults{});
  SwitchCommand w;
  w.kind = CmdKind::SetRipWeight;
  w.vip = vip;
  w.rip.rip = RipId{0};
  w.weight = 3.0;
  sender.send(sw, w, [](Status s) { EXPECT_TRUE(s.ok()); });
  EXPECT_EQ(sender.agentOf(sw).outcomeCacheSize(), 1u);
}

TEST(CtrlPlane, PartitionedCommandTimesOutExactlyOnce) {
  Simulation sim;
  SwitchFleet fleet;
  const SwitchId sw = fleet.addSwitch(SwitchLimits{});
  ControlChannel channel{sim, 5};
  CommandSender::Options opt;
  opt.ackTimeoutSeconds = 0.5;
  opt.maxAttempts = 3;
  CommandSender sender{sim, channel, fleet, opt};
  channel.setPartitioned(sw, true);

  const VipId vip{1};
  int fired = 0;
  Status outcome;
  SwitchCommand cfg;
  cfg.kind = CmdKind::ConfigureVip;
  cfg.vip = vip;
  cfg.app = AppId{0};
  sender.send(sw, cfg, [&](Status s) {
    ++fired;
    outcome = std::move(s);
  });
  sim.runUntil(120.0);

  EXPECT_EQ(fired, 1);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, "ctrl_timeout");
  EXPECT_EQ(sender.timeouts(), 1u);
  EXPECT_EQ(sender.inflight(), 0u);
  EXPECT_FALSE(sender.vipBusy(vip));
  EXPECT_FALSE(fleet.at(sw).hasVip(vip));  // never landed
}

TEST(CtrlPlane, InjectedPartitionHealsAndCommandLands) {
  Simulation sim;
  TopologyConfig tcfg;
  tcfg.numServers = 4;
  tcfg.numIsps = 2;
  tcfg.numSwitches = 2;
  Topology topo{tcfg};
  SwitchFleet fleet;
  for (int i = 0; i < 2; ++i) fleet.addSwitch(SwitchLimits{});
  HostFleet hosts{topo, sim, HostCostModel{}};
  FaultInjector injector{sim, topo, fleet, hosts, FaultInjector::Options{3}};

  ControlChannel channel{sim, 6};
  CommandSender::Options opt;
  opt.ackTimeoutSeconds = 0.5;
  opt.maxAttempts = 0;
  CommandSender sender{sim, channel, fleet, opt};
  injector.attachChannel(&channel);

  const SwitchId sw{0};
  injector.partitionChannel(sw, 1.0, /*repairAfter=*/10.0);
  sim.runUntil(2.0);
  ASSERT_TRUE(channel.isPartitioned(sw));
  ASSERT_EQ(injector.history().size(), 1u);
  EXPECT_EQ(injector.history().front().kind, FaultKind::ChannelPartition);

  int fired = 0;
  SwitchCommand cfg;
  cfg.kind = CmdKind::ConfigureVip;
  cfg.vip = VipId{1};
  cfg.app = AppId{0};
  sender.send(sw, cfg, [&fired](Status s) {
    ++fired;
    EXPECT_TRUE(s.ok());
  });
  sim.runUntil(10.5);
  EXPECT_EQ(fired, 0);  // still marooned behind the partition
  sim.runUntil(60.0);   // healed at t=11: a retransmit gets through
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(channel.isPartitioned(sw));
  EXPECT_EQ(injector.repairsApplied(), 1u);
  EXPECT_TRUE(fleet.at(sw).hasVip(VipId{1}));
  EXPECT_EQ(sender.agentOf(sw).commandsApplied(), 1u);
}

TEST(CtrlPlane, DoneGuardFiresExactlyOnceOnEveryPath) {
  int fired = 0;
  Status got;
  {
    DoneGuard g([&](Status s) {
      ++fired;
      got = std::move(s);
    });
    g.fire(Status::okStatus());
    g.fire(Status::fail("late"));  // no-op: already spent
    EXPECT_TRUE(g.fired());
  }
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(got.ok());

  // A dropped guard delivers the fallback from its destructor.
  {
    DoneGuard g([&](Status s) {
      ++fired;
      got = std::move(s);
    });
    DoneGuard copy = g;  // copies share the fire-at-most-once state
    (void)copy;
  }
  EXPECT_EQ(fired, 2);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, "request_dropped");

  DoneGuard null;  // default guard: fire is a safe no-op
  null.fire(Status::okStatus());
  EXPECT_TRUE(null.fired());
}

// --- anti-entropy reconciliation -----------------------------------------

std::pair<VipId, SwitchId> someIntendedVip(const IntentStore& intent,
                                           std::vector<VipId> excluding,
                                           bool wantRips) {
  VipId pick;
  SwitchId home;
  intent.forEach([&](VipId vip, const VipIntent& in) {
    if (pick.valid()) return;
    if (wantRips && in.rips.empty()) return;
    for (VipId ex : excluding) {
      if (ex == vip) return;
    }
    pick = vip;
    home = in.sw;
  });
  return {pick, home};
}

TEST(CtrlPlane, ReconcilerRepairsInjectedDrift) {
  MegaDc dc{testScaleConfig()};
  dc.bootstrap();
  dc.runUntil(50.0);

  Reconciler& rec = dc.manager->reconciler();
  const IntentStore& intent = dc.manager->viprip().intent();
  const AppId anyApp = dc.apps.all().front().id;

  // 1. A stray VIP nobody intends (e.g. a timed-out command that landed
  //    after its VIP was deleted).
  const VipId stray{4242};
  ASSERT_TRUE(dc.fleet.applyConfigureVip(SwitchId{1}, stray, anyApp).ok());

  // 2. An intended VIP alive on a second switch (a retried restore that
  //    landed twice).
  const auto [dupVip, dupHome] = someIntendedVip(intent, {stray}, false);
  ASSERT_TRUE(dupVip.valid());
  const SwitchId other{dupHome == SwitchId{0} ? 1u : 0u};
  ASSERT_TRUE(
      dc.fleet.applyConfigureVip(other, dupVip, intent.find(dupVip)->app).ok());
  ASSERT_EQ(dc.fleet.hostsOf(dupVip).size(), 2u);

  // 3. An intended RIP missing from the actual table (a lost AddRip).
  const auto [thinVip, thinHome] =
      someIntendedVip(intent, {stray, dupVip}, true);
  ASSERT_TRUE(thinVip.valid());
  const RipId lostRip = intent.find(thinVip)->rips.front().rip;
  ASSERT_TRUE(dc.fleet.applyRemoveRip(thinHome, thinVip, lostRip).ok());

  // 4. An intended VIP missing entirely (a lost ConfigureVip).
  const auto [goneVip, goneHome] =
      someIntendedVip(intent, {stray, dupVip, thinVip}, true);
  ASSERT_TRUE(goneVip.valid());
  ASSERT_TRUE(dc.fleet.applyRemoveVip(goneHome, goneVip, true).ok());

  // 5. An actual RIP nobody intends (a lost RemoveRip).
  const auto [fatVip, fatHome] =
      someIntendedVip(intent, {stray, dupVip, thinVip, goneVip}, true);
  ASSERT_TRUE(fatVip.valid());
  RipEntry extra = intent.find(fatVip)->rips.front();
  extra.rip = RipId{900'000};
  ASSERT_TRUE(dc.fleet.applyAddRip(fatHome, fatVip, extra).ok());

  // 6. A VIP moved by a transfer the journal missed: it lives only on
  //    another switch, RIPs and all.
  const auto [movedVip, movedHome] = someIntendedVip(
      intent, {stray, dupVip, thinVip, goneVip, fatVip}, true);
  ASSERT_TRUE(movedVip.valid());
  const SwitchId movedTo{movedHome == SwitchId{2} ? 3u : 2u};
  const VipEntry movedEntry = *dc.fleet.at(movedHome).findVip(movedVip);
  ASSERT_TRUE(dc.fleet.applyRemoveVip(movedHome, movedVip, true).ok());
  ASSERT_TRUE(dc.fleet.applyConfigureVip(movedTo, movedVip, movedEntry.app)
                  .ok());
  for (const RipEntry& r : movedEntry.rips) {
    ASSERT_TRUE(dc.fleet.applyAddRip(movedTo, movedVip, r).ok());
  }

  // 7. A RIP weight written straight to the fleet (as the inter-pod
  //    balancer does).
  const auto [heavyVip, heavyHome] = someIntendedVip(
      intent, {stray, dupVip, thinVip, goneVip, fatVip, movedVip}, true);
  ASSERT_TRUE(heavyVip.valid());
  const RipId heavyRip = intent.find(heavyVip)->rips.front().rip;
  const double heavyWeight = intent.find(heavyVip)->rips.front().weight + 1.5;
  ASSERT_TRUE(
      dc.fleet.applySetRipWeight(heavyHome, heavyVip, heavyRip, heavyWeight)
          .ok());

  // 8. An intended VIP re-placed at the end of its switch's table, right
  //    behind a second stray: the switch pass notes the VIP at the last
  //    position, and removing the stray inline swap-and-pops it off that
  //    position before the intent pass reads it.
  const auto [lastVip, lastHome] = someIntendedVip(
      intent, {stray, dupVip, thinVip, goneVip, fatVip, movedVip, heavyVip},
      true);
  ASSERT_TRUE(lastVip.valid());
  const VipEntry lastEntry = *dc.fleet.at(lastHome).findVip(lastVip);
  const VipId stray2{4243};
  ASSERT_TRUE(dc.fleet.applyRemoveVip(lastHome, lastVip, true).ok());
  ASSERT_TRUE(dc.fleet.applyConfigureVip(lastHome, stray2, anyApp).ok());
  ASSERT_TRUE(
      dc.fleet.applyConfigureVip(lastHome, lastVip, lastEntry.app).ok());
  for (const RipEntry& r : lastEntry.rips) {
    ASSERT_TRUE(dc.fleet.applyAddRip(lastHome, lastVip, r).ok());
  }
  const auto positionOf = [&dc](SwitchId sw, VipId vip) {
    const auto table = dc.fleet.at(sw).vips();
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (table[i].vip == vip) return i;
    }
    return table.size();
  };
  const std::size_t lastAt = positionOf(lastHome, lastVip);
  ASSERT_EQ(lastAt + 1, dc.fleet.at(lastHome).vipCount());
  ASSERT_EQ(positionOf(lastHome, stray2) + 1, lastAt);

  const auto before = rec.driftByKind();
  const auto delta = [&](const char* kind) {
    const auto now = rec.driftByKind().find(kind);
    const auto was = before.find(kind);
    return (now == rec.driftByKind().end() ? 0 : now->second) -
           (was == before.end() ? 0 : was->second);
  };
  const std::uint64_t placements = rec.placementsAdopted();
  const std::uint64_t weights = rec.weightsAdopted();
  rec.auditRound();  // detects all six and repairs inline (reliable)
  EXPECT_EQ(delta("stray_vip"), 2u);
  EXPECT_GE(delta("duplicate_vip"), 1u);
  EXPECT_EQ(delta("missing_rip"), 1u);
  EXPECT_EQ(delta("missing_vip"), 1u);
  EXPECT_EQ(delta("orphan_rip"), 1u);
  EXPECT_EQ(delta("wrong_switch"), 1u);
  EXPECT_GE(rec.repairsSucceeded(), 6u);
  // Each adoption went through its hook into the intent.
  EXPECT_EQ(rec.placementsAdopted(), placements + 1);
  EXPECT_EQ(intent.find(movedVip)->sw, movedTo);
  EXPECT_EQ(rec.weightsAdopted(), weights + 1);
  EXPECT_EQ(intent.find(heavyVip)->findRip(heavyRip)->weight, heavyWeight);
  EXPECT_EQ(dc.fleet.at(fatHome).findVip(fatVip)->findRip(extra.rip), nullptr);
  // The swap-and-popped VIP was read where it now is: no repair touched
  // it, and it keeps every intended RIP.
  EXPECT_TRUE(dc.fleet.hostsOf(stray2).empty());
  EXPECT_LT(positionOf(lastHome, lastVip), lastAt);
  EXPECT_EQ(dc.fleet.at(lastHome).findVip(lastVip)->rips.size(),
            intent.find(lastVip)->rips.size());

  EXPECT_TRUE(dc.fleet.hostsOf(stray).empty());
  EXPECT_EQ(dc.fleet.hostsOf(dupVip),
            std::vector<SwitchId>{dupHome});  // the unintended copy died
  const VipEntry* thin = dc.fleet.at(thinHome).findVip(thinVip);
  ASSERT_NE(thin, nullptr);
  EXPECT_NE(thin->findRip(lostRip), nullptr);
  EXPECT_EQ(dc.fleet.hostsOf(goneVip), std::vector<SwitchId>{goneHome});

  rec.auditRound();  // converged: nothing left to repair
  EXPECT_EQ(rec.divergenceLastRound(), 0u);
}

TEST(CtrlPlane, JournalRebuildSurvivesManagerCrash) {
  MegaDc dc{testScaleConfig()};
  dc.bootstrap();
  dc.runUntil(60.0);

  VipRipManager& vm = dc.manager->viprip();
  const std::size_t vips = vm.intent().vipCount();
  ASSERT_GT(vips, 0u);
  ASSERT_GT(vm.stateMachine().changelog().size(), 0u);

  // Simulated manager crash: in-memory intent is lost and rebuilt from
  // the write-ahead journal alone.
  vm.rebuildIntentFromJournal();
  EXPECT_EQ(vm.intent().vipCount(), vips);

  // The rebuilt intent matches observable reality: one audit adopts any
  // balancer-written weights, the next finds zero drift.
  Reconciler& rec = dc.manager->reconciler();
  rec.auditRound();
  rec.auditRound();
  EXPECT_EQ(rec.divergenceLastRound(), 0u);

  // And the rebuilt manager still takes requests (id allocators were
  // advanced past every journaled id, so nothing collides).
  int fired = 0;
  VipRipRequest req;
  req.op = VipRipOp::NewVip;
  req.app = dc.apps.all().front().id;
  req.done = [&fired](Status s) {
    ++fired;
    EXPECT_TRUE(s.ok()) << s.error().code;
  };
  vm.submit(std::move(req));
  dc.runUntil(dc.sim.now() + 10.0);
  EXPECT_EQ(fired, 1);

  dc.runUntil(dc.sim.now() + 30.0);
  const EpochReport& r = dc.engine->latest();
  EXPECT_GT(r.totalServedRps() / r.totalDemandRps(), 0.9);
}

TEST(CtrlPlane, LossyScenarioConvergesToZeroDrift) {
  MegaDcConfig cfg = testScaleConfig();
  cfg.ctrlFaults.dropRate = 0.2;
  cfg.ctrlFaults.duplicateRate = 0.2;
  cfg.ctrlFaults.reorderRate = 0.2;
  cfg.ctrlFaults.delaySeconds = 0.05;
  cfg.ctrlFaults.delayJitterSeconds = 0.1;
  cfg.manager.viprip.ctrl.ackTimeoutSeconds = 1.0;
  cfg.manager.reconciler.periodSeconds = 10.0;
  MegaDc dc{cfg};
  dc.bootstrap();  // bootstrap runs on the still-reliable channel
  dc.runUntil(100.0);

  // Turbulence: a crash (restores traverse the lossy channel) and a
  // control partition (commands maroon, time out, reconciler cleans up).
  dc.faults->crashSwitch(SwitchId{0}, 100.5, /*repairAfter=*/20.0);
  dc.faults->partitionChannel(SwitchId{1}, 110.0, /*repairAfter=*/15.0);

  // Requests submitted into the storm: every done fires exactly once.
  std::vector<int> fired(3, 0);
  const Application& app = dc.apps.all().front();
  {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app.id;
    req.done = [&fired](Status) { ++fired[0]; };
    dc.manager->viprip().submit(std::move(req));
  }
  ASSERT_FALSE(app.instances.empty());
  {
    VipRipRequest req;
    req.op = VipRipOp::SetWeight;
    req.vm = app.instances.front();
    req.weight = 2.0;
    req.done = [&fired](Status) { ++fired[1]; };
    dc.manager->viprip().submit(std::move(req));
  }
  {
    VipRipRequest req;
    req.op = VipRipOp::NewRip;
    req.app = app.id;
    req.vm = app.instances.front();
    req.weight = 1.0;
    req.done = [&fired](Status) { ++fired[2]; };
    dc.manager->viprip().submit(std::move(req));
  }

  dc.runUntil(300.0);
  const ControlChannel& channel = dc.manager->viprip().ctrlChannel();
  const CommandSender& sender = dc.manager->viprip().ctrlSender();
  EXPECT_GT(channel.messagesDropped(), 0u);
  EXPECT_GT(sender.retransmits(), 0u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], 1) << "request " << i;
  }

  // Bounded convergence: within a bounded number of audit rounds the
  // reconciler reports intended == actual with nothing in flight.
  const Reconciler& rec = dc.manager->reconciler();
  bool converged = false;
  for (int round = 0; round < 40 && !converged; ++round) {
    dc.runUntil(dc.sim.now() + cfg.manager.reconciler.periodSeconds);
    converged = rec.divergenceLastRound() == 0 && sender.inflight() == 0;
  }
  EXPECT_TRUE(converged) << "still " << rec.divergenceLastRound()
                         << " divergent entries after bounded rounds";

  // After reconciliation no VIP is live on two switches, and nothing
  // stayed orphaned.
  EXPECT_EQ(dc.fleet.pendingOrphans(), 0u);
  for (const Application& a : dc.apps.all()) {
    for (VipId vip : a.vips) {
      EXPECT_LE(dc.fleet.hostsOf(vip).size(), 1u) << "vip " << vip.value();
    }
  }
  const EpochReport& r = dc.engine->latest();
  EXPECT_GT(r.totalServedRps() / r.totalDemandRps(), 0.85);
  // The epoch report carries the gauges.
  EXPECT_GT(r.gauges.at("mdc.ctrl.retransmits"), 0.0);
}

TEST(CtrlPlane, HoldDownDampsFlappingSwitch) {
  MegaDcConfig cfg = testScaleConfig();
  cfg.health.holdDownSeconds = 20.0;
  MegaDc dc{cfg};
  dc.bootstrap();
  dc.runUntil(100.0);

  const SwitchId victim{0};
  std::size_t hosted = 0;
  for (const Application& a : dc.apps.all()) {
    for (VipId vip : a.vips) {
      if (dc.fleet.ownerOf(vip) == victim) ++hosted;
    }
  }
  ASSERT_GT(hosted, 0u);

  // Flap: crash, reboot, crash again while the first declaration's
  // hold-down is still running.  Without damping the second down-spell
  // would be declared the moment it hits the missed threshold.
  dc.faults->crashSwitch(victim, 100.6, /*repairAfter=*/5.8);
  dc.faults->crashSwitch(victim, 107.0, /*repairAfter=*/40.0);
  dc.runUntil(130.0);

  EXPECT_EQ(dc.health->switchFailuresDetected(), 2u);
  EXPECT_GT(dc.health->flapSuppressions(), 0u);  // deferred, not dropped
  EXPECT_EQ(dc.health->vipsRestored(), hosted);
  EXPECT_EQ(dc.fleet.pendingOrphans(), 0u);
}

TEST(CtrlPlane, RepairInsideHoldDownNeitherRedeclaresNorLeaks) {
  MegaDcConfig cfg = testScaleConfig();
  cfg.health.holdDownSeconds = 30.0;
  MegaDc dc{cfg};
  dc.bootstrap();
  dc.runUntil(100.0);

  const SwitchId victim{0};
  std::size_t hosted = 0;
  for (const Application& a : dc.apps.all()) {
    for (VipId vip : a.vips) {
      if (dc.fleet.ownerOf(vip) == victim) ++hosted;
    }
  }
  ASSERT_GT(hosted, 0u);

  // Crash at 100.6 -> declared at ~104.5, hold-down runs to ~134.5.  The
  // repair lands at 125.6, *inside* the window.
  dc.faults->crashSwitch(victim, 100.6, /*repairAfter=*/25.0);
  dc.runUntil(126.0);
  EXPECT_TRUE(dc.fleet.isUp(victim));
  EXPECT_EQ(dc.health->switchFailuresDetected(), 1u);
  EXPECT_EQ(dc.health->vipsRestored(), hosted);

  // Through the hold-down expiry: a switch repaired inside its window
  // must not be re-declared failed when the window lapses (that would
  // re-submit recovery for a healthy switch), and the orphan bookkeeping
  // must not retain a stale batch.
  dc.runUntil(160.0);
  EXPECT_EQ(dc.health->switchFailuresDetected(), 1u);
  EXPECT_EQ(dc.health->vipsRestored(), hosted);
  EXPECT_EQ(dc.fleet.pendingOrphans(), 0u);

  // And detection re-armed: a fresh crash after the window is declared
  // within the ordinary detection bound, not suppressed by leftover
  // hold-down state.
  dc.faults->crashSwitch(victim, 165.0, /*repairAfter=*/40.0);
  dc.runUntil(165.0 + dc.health->detectionDelayBound() + 1.0);
  EXPECT_EQ(dc.health->switchFailuresDetected(), 2u);
  dc.runUntil(260.0);
  EXPECT_EQ(dc.fleet.pendingOrphans(), 0u);
}

TEST(CtrlPlane, RetryBackoffJitterStaysInWindowAndIsSeedDeterministic) {
  // Every retransmit gap must land inside the jitter window
  // [(1-j), (1+j)] x nominal backoff, and the whole retry timeline must
  // be a pure function of the jitter seed.
  auto run = [](std::uint64_t jitterSeed) {
    Simulation sim;
    SwitchFleet fleet;
    const SwitchId sw = fleet.addSwitch(SwitchLimits{});
    ControlChannel channel{sim, 7};
    Tracer tracer{sim, Tracer::Options{1u << 12, true}};
    CommandSender::Options opt;
    opt.ackTimeoutSeconds = 1.0;
    opt.maxBackoffSeconds = 8.0;
    opt.maxAttempts = 6;
    opt.backoffJitter = 0.1;
    opt.jitterSeed = jitterSeed;
    CommandSender sender{sim, channel, fleet, opt};
    sender.setTracer(&tracer);
    channel.setPartitioned(sw, true);  // every attempt is lost

    SwitchCommand cfg;
    cfg.kind = CmdKind::ConfigureVip;
    cfg.vip = VipId{1};
    cfg.app = AppId{0};
    cfg.trace = tracer.begin();
    sender.send(sw, cfg, [](Status) {});
    sim.runUntil(300.0);

    std::vector<double> at;
    for (const TraceEvent& e : tracer.ring().snapshot()) {
      if (e.hop == HopKind::CmdTransmit) at.push_back(e.at);
    }
    return at;
  };

  const auto at = run(0xfeedf00dull);
  ASSERT_EQ(at.size(), 6u);  // maxAttempts transmits, then ctrl_timeout
  for (std::size_t k = 0; k + 1 < at.size(); ++k) {
    const double nominal =
        std::min(8.0, std::pow(2.0, static_cast<double>(k)));
    const double gap = at[k + 1] - at[k];
    EXPECT_GE(gap, nominal * 0.9 - 1e-12) << "attempt " << k;
    EXPECT_LE(gap, nominal * 1.1 + 1e-12) << "attempt " << k;
    EXPECT_NE(gap, nominal);  // the jitter actually engaged
  }
  EXPECT_EQ(run(0xfeedf00dull), at);  // fixed seed: bit-identical replay
  EXPECT_NE(run(0x12345678ull), at);  // a different seed moves the draws
}

}  // namespace
}  // namespace mdc
