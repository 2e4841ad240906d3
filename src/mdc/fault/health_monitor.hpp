// Heartbeat failure detector + self-healing recovery (the control plane's
// answer to the faults FaultInjector throws at it).
//
// Detection is not free: the monitor probes every component each
// heartbeat interval and declares a failure only after `missedHeartbeats`
// consecutive misses, so every recovery pays a measurable detection delay
// of up to heartbeatInterval * missedHeartbeats seconds before the first
// repair action even enters the (serialized, §III-C) VIP/RIP queue.
//
// Recovery uses only the paper's own knobs:
//  * switch crash  -> orphaned VIPs get their DNS weight zeroed (stop
//    answering queries with a black hole) and are re-hosted on healthy
//    switches via critical-priority RestoreVip requests, retried with
//    retryBackoff() while switch tables are full;
//  * server crash  -> dead VMs are detached from their applications and
//    their dangling RIPs purged (traffic to them is black-holed until
//    then); replacement capacity comes from the ordinary control loops,
//    which now see demand against fewer live instances;
//  * pod-manager outage -> the pod is marked suspect, freezing inter-pod
//    moves that would need its cooperation, until it reports back in.
//
// A heartbeat declares failures in ascending switch (server) id: threshold
// crossings first, then the blip sweep over the fleets' orphan and
// casualty batches, which iterate in ascending id too.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "mdc/app/app_registry.hpp"
#include "mdc/core/epoch_report.hpp"
#include "mdc/core/viprip_manager.hpp"
#include "mdc/dns/dns.hpp"
#include "mdc/host/host_fleet.hpp"
#include "mdc/lb/switch_fleet.hpp"
#include "mdc/metrics/histogram.hpp"
#include "mdc/sim/simulation.hpp"

namespace mdc {

class PodManager;

class HealthMonitor {
 public:
  struct Options {
    SimTime heartbeatInterval = 2.0;
    std::uint32_t missedHeartbeats = 2;
    /// Flap damping: after declaring a switch failed, further failure
    /// declarations for the same switch are deferred this long, so a
    /// flapping switch (crash/reboot/crash) cannot stampede the VIP/RIP
    /// queue with RestoreVip storms.  0 disables damping.
    SimTime holdDownSeconds = 5.0;
  };

  HealthMonitor(Simulation& sim, SwitchFleet& fleet, HostFleet& hosts,
                AppRegistry& apps, AuthoritativeDns& dns,
                VipRipManager& viprip, Options options);

  /// Registers the pod managers to probe for outages.
  void attachPods(std::vector<PodManager*> pods);

  /// Registers the heartbeat loop on the simulation.
  void start(SimTime phase = 0.0);

  /// One probe round (normally driven by start(); public for tests).
  void heartbeat();

  /// Epoch hook: integrates unavailability (unrouted rps x seconds).
  void observe(const EpochReport& report);

  /// Whether the pod's manager is currently suspected down (inter-pod
  /// moves involving it are frozen).
  [[nodiscard]] bool isPodSuspect(PodId pod) const {
    return suspectPods_.contains(pod);
  }

  // --- introspection ------------------------------------------------------

  /// Upper bound on time-to-detect: interval x missed-threshold.
  [[nodiscard]] SimTime detectionDelayBound() const noexcept {
    return options_.heartbeatInterval *
           static_cast<double>(options_.missedHeartbeats);
  }
  /// Orphaned-VIP crash -> re-hosted-and-exposed latency.
  [[nodiscard]] const Histogram& vipRecoverySeconds() const noexcept {
    return vipRecovery_;
  }
  /// Dead-VM crash -> dangling-RIP-purged latency.
  [[nodiscard]] const Histogram& vmCleanupSeconds() const noexcept {
    return vmCleanup_;
  }
  /// Integral of unrouted demand over time (lost rps x seconds).
  [[nodiscard]] double unavailabilityRpsSeconds() const noexcept {
    return unavailabilityRpsSeconds_;
  }
  [[nodiscard]] std::uint64_t switchFailuresDetected() const noexcept {
    return switchFailuresDetected_;
  }
  [[nodiscard]] std::uint64_t serverFailuresDetected() const noexcept {
    return serverFailuresDetected_;
  }
  [[nodiscard]] std::uint64_t podFailuresDetected() const noexcept {
    return podFailuresDetected_;
  }
  [[nodiscard]] std::uint64_t vipsRestored() const noexcept {
    return vipsRestored_;
  }
  [[nodiscard]] std::uint64_t vmsCleanedUp() const noexcept {
    return vmsCleanedUp_;
  }
  [[nodiscard]] std::uint64_t restoreRetries() const noexcept {
    return restoreRetries_;
  }
  [[nodiscard]] std::uint64_t cleanupRetries() const noexcept {
    return cleanupRetries_;
  }
  /// Orphaned VIPs taken for restore whose RestoreVip has not yet
  /// succeeded (includes backoff windows between retries).  Invariant
  /// checkers use this to distinguish "recovery in flight" from "lost".
  [[nodiscard]] std::uint64_t pendingVipRestores() const noexcept {
    return pendingVipRestores_;
  }
  /// Dead VMs taken for cleanup whose DeleteRip has not yet succeeded.
  [[nodiscard]] std::uint64_t pendingVmCleanups() const noexcept {
    return pendingVmCleanups_;
  }
  /// Switch-failure declarations deferred by the hold-down timer.
  [[nodiscard]] std::uint64_t flapSuppressions() const noexcept {
    return flapSuppressions_;
  }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  void probeSwitches();
  void probeServers();
  void probePods();
  void recoverOrphans(SwitchId sw);
  void cleanupCasualties(ServerId server);
  void submitRestore(OrphanedVip orphan, std::uint32_t attempt);
  void submitCleanup(CrashedVm casualty, std::uint32_t attempt);

  Simulation& sim_;
  SwitchFleet& fleet_;
  HostFleet& hosts_;
  AppRegistry& apps_;
  AuthoritativeDns& dns_;
  VipRipManager& viprip_;
  std::vector<PodManager*> pods_;
  Options options_;

  std::vector<std::uint32_t> missedSwitch_;
  std::vector<std::uint32_t> missedServer_;
  std::vector<std::uint32_t> missedPod_;
  /// Per-pod online state at the last probe, for the offline->online
  /// repair-path casualty sweep (uint8 because vector<bool> proxies).
  std::vector<std::uint8_t> podWasOnline_;
  /// Per-switch hold-down expiry (absolute sim time).
  std::vector<SimTime> switchHoldDown_;
  std::unordered_set<PodId> suspectPods_;

  Histogram vipRecovery_{0.001, 3600.0, 96};
  Histogram vmCleanup_{0.001, 3600.0, 96};
  double unavailabilityRpsSeconds_ = 0.0;
  SimTime lastReportTime_ = -1.0;
  std::uint64_t switchFailuresDetected_ = 0;
  std::uint64_t serverFailuresDetected_ = 0;
  std::uint64_t podFailuresDetected_ = 0;
  std::uint64_t vipsRestored_ = 0;
  std::uint64_t vmsCleanedUp_ = 0;
  std::uint64_t restoreRetries_ = 0;
  std::uint64_t cleanupRetries_ = 0;
  std::uint64_t pendingVipRestores_ = 0;
  std::uint64_t pendingVmCleanups_ = 0;
  std::uint64_t flapSuppressions_ = 0;
};

}  // namespace mdc
