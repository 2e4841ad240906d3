#include "mdc/fault/fault_injector.hpp"

#include "mdc/core/global_manager.hpp"
#include "mdc/core/pod.hpp"
#include "mdc/ctrl/control_channel.hpp"
#include "mdc/util/expect.hpp"

namespace mdc {

FaultInjector::FaultInjector(Simulation& sim, Topology& topo,
                             SwitchFleet& fleet, HostFleet& hosts,
                             Options options)
    : sim_(sim), topo_(topo), fleet_(fleet), hosts_(hosts),
      seed_(options.seed), rng_(options.seed) {}

void FaultInjector::attachPods(std::vector<PodManager*> pods) {
  for (const PodManager* p : pods) {
    MDC_EXPECT(p != nullptr, "null pod manager");
  }
  pods_ = std::move(pods);
}

void FaultInjector::attachChannel(ControlChannel* channel) {
  MDC_EXPECT(channel != nullptr, "null control channel");
  channel_ = channel;
}

void FaultInjector::attachManager(GlobalManager* manager) {
  MDC_EXPECT(manager != nullptr, "null global manager");
  manager_ = manager;
}

PodManager* FaultInjector::podById(PodId pod) const {
  for (PodManager* p : pods_) {
    if (p->id() == pod) return p;
  }
  return nullptr;
}

void FaultInjector::crashSwitch(SwitchId sw, SimTime at,
                                SimTime repairAfter) {
  sim_.at(at, [this, sw, repairAfter] {
    if (!fleet_.isUp(sw)) return;  // already down; overlapping fault
    fleet_.crashSwitch(sw, sim_.now());
    ++faults_;
    history_.push_back(FaultRecord{
        FaultKind::SwitchCrash, sw.value(), sim_.now(),
        repairAfter >= 0.0 ? sim_.now() + repairAfter : kNoRepair});
    if (repairAfter >= 0.0) {
      sim_.after(repairAfter, [this, sw] {
        if (fleet_.isUp(sw)) return;  // someone else rebooted it
        fleet_.recoverSwitch(sw);
        ++repairs_;
      });
    }
  });
}

void FaultInjector::crashServer(ServerId server, SimTime at,
                                SimTime repairAfter) {
  sim_.at(at, [this, server, repairAfter] {
    if (!hosts_.serverUp(server)) return;
    hosts_.crashServer(server);
    ++faults_;
    history_.push_back(FaultRecord{
        FaultKind::ServerCrash, server.value(), sim_.now(),
        repairAfter >= 0.0 ? sim_.now() + repairAfter : kNoRepair});
    if (repairAfter >= 0.0) {
      sim_.after(repairAfter, [this, server] {
        if (hosts_.serverUp(server)) return;
        hosts_.recoverServer(server);
        ++repairs_;
      });
    }
  });
}

void FaultInjector::cutLink(LinkId link, SimTime at, SimTime repairAfter) {
  sim_.at(at, [this, link, repairAfter] {
    if (savedCapacity_.contains(link)) return;  // already cut/degraded
    savedCapacity_.emplace(link, topo_.network().link(link).capacityGbps);
    topo_.network().setCapacity(link, 0.0);
    ++faults_;
    history_.push_back(FaultRecord{
        FaultKind::LinkCut, link.value(), sim_.now(),
        repairAfter >= 0.0 ? sim_.now() + repairAfter : kNoRepair});
    if (repairAfter >= 0.0) scheduleRepair(FaultKind::LinkCut, link.value(),
                                           repairAfter);
  });
}

void FaultInjector::degradeLink(LinkId link, double factor, SimTime at,
                                SimTime repairAfter) {
  MDC_EXPECT(factor > 0.0 && factor < 1.0, "degrade factor out of (0,1)");
  sim_.at(at, [this, link, factor, repairAfter] {
    if (savedCapacity_.contains(link)) return;
    const double orig = topo_.network().link(link).capacityGbps;
    savedCapacity_.emplace(link, orig);
    topo_.network().setCapacity(link, orig * factor);
    ++faults_;
    history_.push_back(FaultRecord{
        FaultKind::LinkDegrade, link.value(), sim_.now(),
        repairAfter >= 0.0 ? sim_.now() + repairAfter : kNoRepair});
    if (repairAfter >= 0.0) {
      scheduleRepair(FaultKind::LinkDegrade, link.value(), repairAfter);
    }
  });
}

void FaultInjector::scheduleRepair(FaultKind kind, std::uint32_t target,
                                   SimTime repairAfter) {
  (void)kind;  // link cut and degradation repair identically
  const LinkId link{target};
  sim_.after(repairAfter, [this, link] {
    const auto it = savedCapacity_.find(link);
    if (it == savedCapacity_.end()) return;
    topo_.network().setCapacity(link, it->second);
    savedCapacity_.erase(it);
    ++repairs_;
  });
}

void FaultInjector::podOutage(PodId pod, SimTime at, SimTime repairAfter) {
  sim_.at(at, [this, pod, repairAfter] {
    PodManager* p = podById(pod);
    MDC_EXPECT(p != nullptr, "pod outage: pod not attached");
    if (!p->online()) return;
    p->setOnline(false);
    ++faults_;
    history_.push_back(FaultRecord{
        FaultKind::PodOutage, pod.value(), sim_.now(),
        repairAfter >= 0.0 ? sim_.now() + repairAfter : kNoRepair});
    if (repairAfter >= 0.0) {
      sim_.after(repairAfter, [this, pod] {
        PodManager* mgr = podById(pod);
        if (mgr == nullptr || mgr->online()) return;
        mgr->setOnline(true);
        ++repairs_;
      });
    }
  });
}

void FaultInjector::partitionChannel(SwitchId sw, SimTime at,
                                     SimTime repairAfter) {
  MDC_EXPECT(channel_ != nullptr, "partitionChannel: no channel attached");
  sim_.at(at, [this, sw, repairAfter] {
    if (channel_->isPartitioned(sw)) return;  // overlapping partition
    channel_->setPartitioned(sw, true);
    ++faults_;
    history_.push_back(FaultRecord{
        FaultKind::ChannelPartition, sw.value(), sim_.now(),
        repairAfter >= 0.0 ? sim_.now() + repairAfter : kNoRepair});
    if (repairAfter >= 0.0) {
      sim_.after(repairAfter, [this, sw] {
        if (!channel_->isPartitioned(sw)) return;  // already healed
        channel_->setPartitioned(sw, false);
        ++repairs_;
      });
    }
  });
}

void FaultInjector::crashPodManager(PodId pod, SimTime at,
                                    SimTime repairAfter) {
  MDC_EXPECT(manager_ != nullptr, "crashPodManager: no manager attached");
  sim_.at(at, [this, pod, repairAfter] {
    PodManager* p = podById(pod);
    MDC_EXPECT(p != nullptr, "pod-manager crash: pod not attached");
    if (!p->online()) return;  // already down (crash or outage)
    manager_->crashPod(pod);
    ++faults_;
    history_.push_back(FaultRecord{
        FaultKind::PodManagerCrash, pod.value(), sim_.now(),
        repairAfter >= 0.0 ? sim_.now() + repairAfter : kNoRepair});
    if (repairAfter >= 0.0) {
      sim_.after(repairAfter, [this, pod] {
        PodManager* mgr = podById(pod);
        if (mgr == nullptr || mgr->online()) return;
        manager_->restartPod(pod);
        ++repairs_;
      });
    }
  });
}

void FaultInjector::crashGlobalManager(SimTime at, SimTime repairAfter) {
  MDC_EXPECT(manager_ != nullptr, "crashGlobalManager: no manager attached");
  sim_.at(at, [this, repairAfter] {
    if (!manager_->leaderUp()) return;  // already leaderless
    manager_->crashLeader();
    ++faults_;
    history_.push_back(FaultRecord{
        FaultKind::GlobalManagerCrash, 0, sim_.now(),
        repairAfter >= 0.0 ? sim_.now() + repairAfter : kNoRepair});
    if (repairAfter >= 0.0) {
      sim_.after(repairAfter, [this] {
        if (manager_->aliveManagers() >= 2) return;  // nothing to revive
        manager_->reviveInstance();
        ++repairs_;
      });
    }
  });
}

void FaultInjector::tornJournalWrite(SimTime at, SimTime repairAfter) {
  MDC_EXPECT(manager_ != nullptr, "tornJournalWrite: no manager attached");
  // Entropy drawn at schedule time so the plan stays a pure function of
  // the seed regardless of how many faults get skipped at run time.
  const std::uint64_t entropy = rng_.nextU64();
  sim_.at(at, [this, entropy, repairAfter] {
    if (!manager_->leaderUp()) return;  // nobody mid-append
    auto& machine = manager_->viprip().stateMachine();
    if (machine.changelog().size() == 0) return;  // nothing to tear
    manager_->crashLeader();
    machine.changelog().tearTail(entropy);
    ++faults_;
    history_.push_back(FaultRecord{
        FaultKind::JournalTornWrite, 0, sim_.now(),
        repairAfter >= 0.0 ? sim_.now() + repairAfter : kNoRepair});
    if (repairAfter >= 0.0) {
      sim_.after(repairAfter, [this] {
        if (manager_->aliveManagers() >= 2) return;
        manager_->reviveInstance();
        ++repairs_;
      });
    }
  });
}

void FaultInjector::corruptJournalRecord(SimTime at, SimTime repairAfter) {
  MDC_EXPECT(manager_ != nullptr, "corruptJournalRecord: no manager attached");
  const std::uint64_t entropy = rng_.nextU64();
  sim_.at(at, [this, entropy, repairAfter] {
    if (!manager_->leaderUp()) return;
    auto& machine = manager_->viprip().stateMachine();
    if (machine.changelog().size() == 0) return;  // nothing to corrupt
    manager_->crashLeader();
    machine.changelog().corruptTail(entropy);
    ++faults_;
    history_.push_back(FaultRecord{
        FaultKind::JournalCorruptRecord, 0, sim_.now(),
        repairAfter >= 0.0 ? sim_.now() + repairAfter : kNoRepair});
    if (repairAfter >= 0.0) {
      sim_.after(repairAfter, [this] {
        if (manager_->aliveManagers() >= 2) return;
        manager_->reviveInstance();
        ++repairs_;
      });
    }
  });
}

void FaultInjector::corruptSnapshot(SimTime at) {
  MDC_EXPECT(manager_ != nullptr, "corruptSnapshot: no manager attached");
  const std::uint64_t entropy = rng_.nextU64();
  sim_.at(at, [this, entropy] {
    auto& store = manager_->viprip().stateMachine().snapshots();
    if (store.count() == 0) return;  // nothing taken yet
    store.corruptLatest(entropy);
    ++faults_;
    history_.push_back(
        FaultRecord{FaultKind::SnapshotCorrupt, 0, sim_.now(), kNoRepair});
  });
}

void FaultInjector::commandStorm(SimTime at, std::uint32_t burst,
                                 SimTime windowSeconds) {
  MDC_EXPECT(manager_ != nullptr, "commandStorm: no manager attached");
  MDC_EXPECT(windowSeconds >= 0.0, "storm window must be non-negative");
  // Entropy drawn at schedule time so the plan stays a pure function of
  // the seed regardless of how many faults get skipped at run time.
  const std::uint64_t entropy = rng_.nextU64();
  sim_.at(at, [this, entropy, burst, windowSeconds] {
    if (!manager_->leaderUp()) return;  // a dead manager takes no requests
    // Targets: every VM currently serving as a RIP backend.  Requests
    // pile onto the same apps/VMs, so footprints conflict and the
    // admission layer must serialize or shed.
    std::vector<std::pair<AppId, VmId>> backends;
    for (std::size_t i = 0; i < fleet_.size(); ++i) {
      const LbSwitch& sw =
          fleet_.at(SwitchId{static_cast<SwitchId::value_type>(i)});
      if (!sw.up()) continue;
      for (const VipEntry& e : sw.vips()) {
        for (const RipEntry& r : e.rips) {
          if (r.targetsVm()) backends.emplace_back(e.app, r.vm);
        }
      }
    }
    if (backends.empty()) return;
    Rng storm(entropy);
    ++faults_;
    history_.push_back(
        FaultRecord{FaultKind::CommandStorm, burst, sim_.now(), kNoRepair});
    for (std::uint32_t i = 0; i < burst; ++i) {
      const auto [app, vm] = backends[storm.uniformInt(backends.size())];
      const SimTime when =
          windowSeconds <= 0.0 ? 0.0 : storm.uniform(0.0, windowSeconds);
      const double weight = storm.uniform(0.5, 4.0);
      // Mix: mostly weight churn (conflicting SetWeights coalesce and
      // serialize), a slice of same-app RIP adds and removals so write
      // footprints collide across request kinds too.
      const std::uint64_t kindDraw = storm.uniformInt(10);
      sim_.after(when, [this, app, vm, weight, kindDraw] {
        if (!manager_->leaderUp()) return;
        VipRipRequest req;
        if (kindDraw == 0) {
          req.op = VipRipOp::DeleteRip;
          req.vm = vm;
        } else if (kindDraw <= 2) {
          req.op = VipRipOp::NewRip;
          req.app = app;
          req.vm = vm;
          req.weight = weight;
        } else {
          req.op = VipRipOp::SetWeight;
          req.app = app;
          req.vm = vm;
          req.weight = weight;
        }
        (void)manager_->viprip().submit(std::move(req));
      });
    }
  });
}

void FaultInjector::schedulePlan(const RandomPlan& plan) {
  MDC_EXPECT(plan.end > plan.start, "plan window must be non-empty");
  auto when = [&] { return rng_.uniform(plan.start, plan.end); };
  for (std::uint32_t i = 0; i < plan.switchCrashes; ++i) {
    MDC_EXPECT(fleet_.size() > 0, "plan: no switches");
    crashSwitch(SwitchId{static_cast<SwitchId::value_type>(
                    rng_.uniformInt(fleet_.size()))},
                when(), plan.repairAfter);
  }
  for (std::uint32_t i = 0; i < plan.serverCrashes; ++i) {
    MDC_EXPECT(topo_.serverCount() > 0, "plan: no servers");
    crashServer(ServerId{static_cast<ServerId::value_type>(
                    rng_.uniformInt(topo_.serverCount()))},
                when(), plan.repairAfter);
  }
  for (std::uint32_t i = 0; i < plan.linkCuts; ++i) {
    MDC_EXPECT(topo_.accessLinkCount() > 0, "plan: no access links");
    const auto idx = rng_.uniformInt(topo_.accessLinkCount());
    cutLink(topo_.accessLink(static_cast<std::uint32_t>(idx)).link, when(),
            plan.repairAfter);
  }
  for (std::uint32_t i = 0; i < plan.podOutages; ++i) {
    MDC_EXPECT(!pods_.empty(), "plan: no pods attached");
    podOutage(pods_[rng_.uniformInt(pods_.size())]->id(), when(),
              plan.repairAfter);
  }
  for (std::uint32_t i = 0; i < plan.channelPartitions; ++i) {
    MDC_EXPECT(fleet_.size() > 0, "plan: no switches");
    partitionChannel(SwitchId{static_cast<SwitchId::value_type>(
                         rng_.uniformInt(fleet_.size()))},
                     when(), plan.repairAfter);
  }
  for (std::uint32_t i = 0; i < plan.podManagerCrashes; ++i) {
    MDC_EXPECT(!pods_.empty(), "plan: no pods attached");
    crashPodManager(pods_[rng_.uniformInt(pods_.size())]->id(), when(),
                    plan.repairAfter);
  }
  for (std::uint32_t i = 0; i < plan.globalManagerCrashes; ++i) {
    crashGlobalManager(when(), plan.repairAfter);
  }
  for (std::uint32_t i = 0; i < plan.journalTornWrites; ++i) {
    tornJournalWrite(when(), plan.repairAfter);
  }
  for (std::uint32_t i = 0; i < plan.journalCorruptRecords; ++i) {
    corruptJournalRecord(when(), plan.repairAfter);
  }
  for (std::uint32_t i = 0; i < plan.snapshotCorruptions; ++i) {
    corruptSnapshot(when());
  }
  for (std::uint32_t i = 0; i < plan.commandStorms; ++i) {
    commandStorm(when(), plan.stormBurst, plan.stormWindowSeconds);
  }
}

}  // namespace mdc
