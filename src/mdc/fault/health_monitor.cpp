#include "mdc/fault/health_monitor.hpp"

#include <algorithm>

#include "mdc/core/pod.hpp"
#include "mdc/util/expect.hpp"

namespace mdc {

HealthMonitor::HealthMonitor(Simulation& sim, SwitchFleet& fleet,
                             HostFleet& hosts, AppRegistry& apps,
                             AuthoritativeDns& dns, VipRipManager& viprip,
                             Options options)
    : sim_(sim),
      fleet_(fleet),
      hosts_(hosts),
      apps_(apps),
      dns_(dns),
      viprip_(viprip),
      options_(options) {
  MDC_EXPECT(options.heartbeatInterval > 0.0,
             "heartbeat interval must be positive");
  MDC_EXPECT(options.missedHeartbeats > 0, "missed threshold must be >= 1");
  MDC_EXPECT(options.holdDownSeconds >= 0.0, "negative hold-down");
}

void HealthMonitor::attachPods(std::vector<PodManager*> pods) {
  for (const PodManager* p : pods) {
    MDC_EXPECT(p != nullptr, "null pod manager");
  }
  pods_ = std::move(pods);
  missedPod_.assign(pods_.size(), 0);
  podWasOnline_.assign(pods_.size(), 1);
}

void HealthMonitor::start(SimTime phase) {
  sim_.every(options_.heartbeatInterval, [this] { heartbeat(); }, phase);
}

void HealthMonitor::heartbeat() {
  probeSwitches();
  probeServers();
  probePods();
}

void HealthMonitor::probeSwitches() {
  missedSwitch_.resize(fleet_.size(), 0);
  switchHoldDown_.resize(fleet_.size(), 0.0);
  for (std::uint32_t i = 0; i < fleet_.size(); ++i) {
    const SwitchId sw{i};
    if (!fleet_.isUp(sw)) {
      // Flap damping: a declaration due now but inside the hold-down
      // window is deferred — the counter stays just below the threshold
      // and re-arms on the next probe.
      if (missedSwitch_[i] + 1 == options_.missedHeartbeats &&
          sim_.now() < switchHoldDown_[i]) {
        ++flapSuppressions_;
        continue;
      }
      if (++missedSwitch_[i] == options_.missedHeartbeats) {
        ++switchFailuresDetected_;
        switchHoldDown_[i] = sim_.now() + options_.holdDownSeconds;
        recoverOrphans(sw);
      }
    } else {
      missedSwitch_[i] = 0;
    }
  }
  // A switch that crashed and rebooted between probes never accumulates
  // misses, but its VIPs are orphaned all the same.  Sweep orphan batches
  // whose blackout already exceeds the detection bound.
  std::vector<SwitchId> blipped;
  for (const auto& [sw, list] : fleet_.orphans()) {
    if (!fleet_.isUp(sw)) continue;  // the missed-counter path owns it
    MDC_ENSURE(!list.empty(), "empty orphan batch retained");
    if (sim_.now() - list.front().orphanedAt < detectionDelayBound()) {
      continue;
    }
    if (sim_.now() < switchHoldDown_[sw.index()]) {
      ++flapSuppressions_;  // flapping switch: defer past the hold-down
      continue;
    }
    blipped.push_back(sw);
  }
  for (SwitchId sw : blipped) {
    ++switchFailuresDetected_;
    switchHoldDown_[sw.index()] = sim_.now() + options_.holdDownSeconds;
    recoverOrphans(sw);
  }
}

void HealthMonitor::recoverOrphans(SwitchId sw) {
  for (OrphanedVip& orphan : fleet_.takeOrphans(sw)) {
    // Blackout: stop answering DNS queries with a VIP nobody hosts.  The
    // record itself survives (clients may linger on it, [18]); RestoreVip
    // re-syncs the weight from the re-added RIP set.
    if (dns_.hasApp(orphan.app)) {
      const auto vips = dns_.vips(orphan.app);
      const bool present =
          std::any_of(vips.begin(), vips.end(), [&](const VipWeight& vw) {
            return vw.vip == orphan.vip;
          });
      if (present) dns_.setWeight(orphan.app, orphan.vip, 0.0);
    }
    ++pendingVipRestores_;
    submitRestore(std::move(orphan), 0);
  }
}

void HealthMonitor::submitRestore(OrphanedVip orphan, std::uint32_t attempt) {
  VipRipRequest req;
  req.op = VipRipOp::RestoreVip;
  req.priority = kCriticalPriority;
  req.app = orphan.app;
  req.vip = orphan.vip;
  req.rips = orphan.rips;
  req.done = [this, orphan = std::move(orphan), attempt](Status s) mutable {
    if (s.ok()) {
      ++vipsRestored_;
      MDC_ENSURE(pendingVipRestores_ > 0, "restore pending underflow");
      --pendingVipRestores_;
      vipRecovery_.record(std::max(1e-3, sim_.now() - orphan.orphanedAt));
      return;
    }
    // Every failure here is transient: "no table space anywhere" clears
    // as drains and repairs free capacity, and a crashed manager's
    // cancelled/manager_down completions clear once the new leader's
    // queue reopens — so retry with exponential backoff instead of
    // abandoning the VIP.
    ++restoreRetries_;
    sim_.after(retryBackoff(attempt),
               [this, orphan = std::move(orphan), attempt]() mutable {
                 submitRestore(std::move(orphan), attempt + 1);
               });
  };
  viprip_.submit(std::move(req));
}

void HealthMonitor::probeServers() {
  missedServer_.resize(hosts_.serverCount(), 0);
  for (std::uint32_t i = 0; i < missedServer_.size(); ++i) {
    const ServerId s{i};
    if (!hosts_.serverUp(s)) {
      const std::uint32_t missed = ++missedServer_[i];
      if (missed == options_.missedHeartbeats) {
        ++serverFailuresDetected_;
        cleanupCasualties(s);
      } else if (missed > options_.missedHeartbeats &&
                 hosts_.crashCasualties().contains(s)) {
        // Repair + re-crash between probes: the counter sailed past the
        // threshold (the == trigger cannot re-fire) and the blip sweep
        // below only looks at servers that are up, so the re-crash's
        // casualty batch — and the pending-cleanup gauge with it — would
        // be stranded forever.  A fresh batch on a past-threshold server
        // is proof of a new failure; collect it now.
        ++serverFailuresDetected_;
        cleanupCasualties(s);
      }
    } else {
      missedServer_[i] = 0;
    }
  }
  // Blip sweep, mirroring the switch path.
  std::vector<ServerId> blipped;
  for (const auto& [server, list] : hosts_.crashCasualties()) {
    if (!hosts_.serverUp(server)) continue;
    MDC_ENSURE(!list.empty(), "empty casualty batch retained");
    if (sim_.now() - list.front().crashedAt >= detectionDelayBound()) {
      blipped.push_back(server);
    }
  }
  for (ServerId s : blipped) {
    ++serverFailuresDetected_;
    cleanupCasualties(s);
  }
}

void HealthMonitor::cleanupCasualties(ServerId server) {
  for (const CrashedVm& c : hosts_.takeCrashCasualties(server)) {
    // Detach the corpse from its application so control loops provision
    // replacements (an app left with zero live instances is re-seeded by
    // the global manager's demand fan-out).
    if (apps_.isInstance(c.app, c.vm)) apps_.removeInstance(c.app, c.vm);
    ++pendingVmCleanups_;
    submitCleanup(c, 0);
  }
}

void HealthMonitor::submitCleanup(CrashedVm casualty, std::uint32_t attempt) {
  // Purge the dead VM's dangling RIPs: until the switch tables stop
  // referencing it, its share of traffic is black-holed ("dead_vm").
  VipRipRequest req;
  req.op = VipRipOp::DeleteRip;
  req.priority = kCriticalPriority;
  req.vm = casualty.vm;
  req.done = [this, casualty, attempt](Status s) {
    if (s.ok()) {
      ++vmsCleanedUp_;
      MDC_ENSURE(pendingVmCleanups_ > 0, "cleanup pending underflow");
      --pendingVmCleanups_;
      vmCleanup_.record(std::max(1e-3, sim_.now() - casualty.crashedAt));
      return;
    }
    // A failure here means the manager crashed around this request
    // (DeleteRip itself is idempotent and cannot fail on table state).
    // Dropping it would leak the dead VM's RIPs forever *invisibly*:
    // intent still matches actual, so the reconciler never flags the
    // drift.  Resubmit until the purge lands.
    ++cleanupRetries_;
    sim_.after(retryBackoff(attempt), [this, casualty, attempt] {
      submitCleanup(casualty, attempt + 1);
    });
  };
  viprip_.submit(std::move(req));
}

void HealthMonitor::probePods() {
  for (std::size_t i = 0; i < pods_.size(); ++i) {
    PodManager* p = pods_[i];
    if (!p->online()) {
      podWasOnline_[i] = 0;
      if (++missedPod_[i] == options_.missedHeartbeats) {
        ++podFailuresDetected_;
        suspectPods_.insert(p->id());
      }
    } else {
      missedPod_[i] = 0;
      suspectPods_.erase(p->id());
      if (podWasOnline_[i] == 0) {
        podWasOnline_[i] = 1;
        // Pod-outage repair path: a pod-manager restart replays intended
        // weights, not VM liveness, so servers that crashed and came back
        // during the outage still hold uncollected casualty batches.
        // Purge them on repair instead of waiting out another detection
        // delay, so pendingVmCleanups_ rises and falls through the normal
        // submitCleanup path.
        for (const ServerId s : p->servers()) {
          if (hosts_.serverUp(s) && hosts_.crashCasualties().contains(s)) {
            ++serverFailuresDetected_;
            cleanupCasualties(s);
          }
        }
      }
    }
  }
}

void HealthMonitor::observe(const EpochReport& report) {
  if (lastReportTime_ >= 0.0 && report.time > lastReportTime_) {
    unavailabilityRpsSeconds_ +=
        report.unroutedRps * (report.time - lastReportTime_);
  }
  lastReportTime_ = report.time;
}

}  // namespace mdc
