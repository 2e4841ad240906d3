// The global manager's inter-pod balancing (§III-A, §IV-C/D/F).
//
// Watches every pod's stats and relieves overloaded pods using the
// paper's knobs, cheapest first:
//
//  1. RIP weight adjustment (§IV-F) — when an overloaded pod shares a VIP
//     with a cooler pod, shift traffic by reweighting RIPs.  Takes effect
//     in seconds; reach limited to co-covered applications.
//  2. Dynamic application deployment (§IV-D) — replicate the pod's
//     hottest application into an underloaded pod (VM clone + new RIP);
//     also removes redundant instances of underutilized applications.
//  3. Server transfer (§IV-C) — ask an underloaded donor pod to vacate
//     servers (migrating their VMs within the donor) and hand the empty
//     servers to the overloaded pod.
//
// Elephant-pod avoidance: a pod past the paper's size caps (servers or
// VMs) sheds servers *together with their VMs* to the smallest pod — a
// pure membership change, since pods are logical.  The caps stand in for
// the decision-time budget they exist to keep: a pod's measured decision
// time is host wall-clock, and a simulated decision must not depend on
// how fast the host is.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mdc/app/app_registry.hpp"
#include "mdc/core/epoch_report.hpp"
#include "mdc/core/pod.hpp"
#include "mdc/core/viprip_manager.hpp"
#include "mdc/host/host_fleet.hpp"
#include "mdc/lb/switch_fleet.hpp"
#include "mdc/sim/simulation.hpp"

namespace mdc {

class InterPodBalancer {
 public:
  struct Options {
    SimTime period = 30.0;
    double overloadUtilization = 0.8;
    double underloadUtilization = 0.5;
    std::uint32_t serversPerTransfer = 2;
    /// Elephant-pod caps (§III-A: ~5,000 servers / ~10,000 VMs a pod).
    std::size_t maxVmsPerPod = 10000;
    std::size_t maxServersPerPod = 5000;
    std::uint32_t elephantSheddingBatch = 4;
    /// Knob enables (E6 isolates them).
    bool enableRipWeight = true;
    bool enableAppDeploy = true;
    bool enableServerTransfer = true;
    bool enableElephantAvoidance = true;
    /// Minimum spacing between dynamic deployments of the same app.
    SimTime deployCooldown = 60.0;
  };

  InterPodBalancer(Simulation& sim, HostFleet& hosts, AppRegistry& apps,
                   SwitchFleet& fleet, VipRipManager& viprip,
                   PodRegistry& registry,
                   std::vector<PodManager*> pods, Options options);

  /// One decision round against `report`, the global manager's latest
  /// epoch observation.
  void runOnce(const EpochReport& report);

  /// Installs a predicate marking pods whose manager is suspected down
  /// (failure detector).  Frozen pods are skipped as sources and targets
  /// of inter-pod moves: their manager cannot cooperate, and their stats
  /// are stale.
  void setPodFrozenCheck(std::function<bool(PodId)> check) {
    podFrozen_ = std::move(check);
  }

  // --- knob usage counters (E6) ------------------------------------------

  [[nodiscard]] std::uint64_t ripWeightActions() const noexcept {
    return ripWeightActions_;
  }
  [[nodiscard]] std::uint64_t deployActions() const noexcept {
    return deployActions_;
  }
  [[nodiscard]] std::uint64_t scaleInActions() const noexcept {
    return scaleInActions_;
  }
  [[nodiscard]] std::uint64_t serverTransfers() const noexcept {
    return serverTransfers_;
  }
  [[nodiscard]] std::uint64_t elephantSheds() const noexcept {
    return elephantSheds_;
  }
  /// Rounds skipped because the command-plane admission queue was near
  /// capacity (E18 backpressure): reconfiguration-heavy knobs would only
  /// feed the storm, so the balancer backs off for the retry-after hint.
  [[nodiscard]] std::uint64_t overloadSkips() const noexcept {
    return overloadSkips_;
  }

 private:
  [[nodiscard]] bool frozen(PodId pod) const {
    return podFrozen_ && podFrozen_(pod);
  }
  [[nodiscard]] PodManager* coldestPod(PodId excluding) const;
  void relieveByRipWeights(PodManager& hot);
  void relieveByDeployment(PodManager& hot, const EpochReport& report);
  void relieveByServerTransfer(PodManager& hot);
  void avoidElephant(PodManager& pod);
  void scaleInOverprovisioned(const EpochReport& report);

  Simulation& sim_;
  HostFleet& hosts_;
  AppRegistry& apps_;
  SwitchFleet& fleet_;
  VipRipManager& viprip_;
  PodRegistry& registry_;
  std::vector<PodManager*> pods_;
  Options options_;
  std::function<bool(PodId)> podFrozen_;

  std::unordered_map<AppId, SimTime> lastDeploy_;
  std::unordered_map<AppId, SimTime> lastWeightShift_;
  std::uint64_t ripWeightActions_ = 0;
  std::uint64_t deployActions_ = 0;
  std::uint64_t scaleInActions_ = 0;
  std::uint64_t serverTransfers_ = 0;
  std::uint64_t elephantSheds_ = 0;
  std::uint64_t overloadSkips_ = 0;
  /// Back-off horizon while the admission layer reports overload.
  SimTime resumeAt_ = 0.0;
};

}  // namespace mdc
