// Logical server pods and the per-pod resource manager (§III-A).
//
// Pods are *logical* groups of servers — decoupled from racks and physical
// pods — formed purely by management-plane configuration.  That is what
// makes "server transfer between pods" (§IV-C) a bookkeeping operation:
// membership changes, no hardware moves.  A pod manager only knows the
// servers and applications of its own pod and provisions resources within
// it using a pluggable placement algorithm; the global manager handles
// everything that crosses pod boundaries.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mdc/app/app_registry.hpp"
#include "mdc/core/placement.hpp"
#include "mdc/host/host_fleet.hpp"
#include "mdc/sim/simulation.hpp"
#include "mdc/topo/topology.hpp"
#include "mdc/util/flat_map.hpp"
#include "mdc/util/ids.hpp"

namespace mdc {

/// Server -> pod membership; the single source of truth.
class PodRegistry {
 public:
  explicit PodRegistry(std::size_t numServers);

  void assign(ServerId server, PodId pod);
  [[nodiscard]] PodId podOf(ServerId server) const;
  [[nodiscard]] const std::vector<ServerId>& serversOf(PodId pod) const;
  [[nodiscard]] std::size_t podCount() const noexcept {
    return pods_.size();
  }

 private:
  std::vector<PodId> podOf_;
  std::vector<std::vector<ServerId>> pods_;
  static const std::vector<ServerId> kEmpty;
};

/// What a pod reports to the global manager every control period.
struct PodStats {
  PodId pod;
  std::size_t servers = 0;
  std::size_t vms = 0;
  double demandRps = 0.0;
  double satisfiedRatio = 1.0;
  double meanUtilization = 0.0;
  double maxUtilization = 0.0;
  /// Wall-clock seconds the last placement decision took (measured, not
  /// simulated) — the signal behind elephant-pod avoidance (§IV-C).
  double decisionSeconds = 0.0;
  /// Rebalance passes of that decision (PlacementResult::rebalancePasses).
  std::uint32_t rebalancePasses = 0;
  std::uint32_t placementChanges = 0;
};

/// Sink through which a pod manager asks the global manager for VIP/RIP
/// work; "any component that needs to update the VIP/RIP configuration at
/// any switch sends a request to the global manager" (§III-C).
class RipRequestSink {
 public:
  virtual ~RipRequestSink() = default;
  /// Requests a RIP binding `vm` to one of `app`'s VIPs.
  virtual void requestNewRip(AppId app, VmId vm, double weight) = 0;
  /// Requests removal of every RIP bound to `vm`; `onDone` fires once the
  /// switch tables no longer reference the VM (only then is it safe to
  /// destroy it — traffic keeps arriving until the RIPs are gone).
  virtual void requestRipRemoval(VmId vm, std::function<void()> onDone) = 0;
  /// Requests a RIP weight change for `vm` (sum-preserving updates are the
  /// pod manager's responsibility, §IV-F).
  virtual void requestRipWeight(VmId vm, double weight) = 0;
};

class PodManager {
 public:
  struct Options {
    SimTime controlPeriod = 10.0;
  };

  PodManager(PodId id, Simulation& sim, HostFleet& hosts, AppRegistry& apps,
             const Topology& topo, PodRegistry& registry,
             std::shared_ptr<const PlacementAlgorithm> algorithm,
             RipRequestSink& rips, Options options);

  [[nodiscard]] PodId id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<ServerId>& servers() const;

  // --- membership (driven by the global manager) ------------------------

  /// Adopts a server (empty or carrying VMs — the elephant-pod path moves
  /// servers *with* their instances, §IV-C).
  void adoptServer(ServerId server);

  /// Gives up an *empty* server.  Precondition: server is in this pod and
  /// hosts no live VM.
  void releaseServer(ServerId server);

  /// Begins vacating a server: its VMs are migrated to other servers of
  /// this pod; when empty, `onEmpty` fires (the donor side of §IV-C).
  /// Returns false if the pod lacks capacity to absorb the VMs.
  bool vacateServer(ServerId server, std::function<void(ServerId)> onEmpty);

  /// Least-utilized servers, preferred donors.  Never returns servers
  /// already being vacated.
  [[nodiscard]] std::vector<ServerId> pickDonorServers(std::size_t n) const;

  // --- demand + control loop --------------------------------------------

  /// The engine reports each app's demand routed into this pod for the
  /// current epoch (aggregated over the pod's RIP weights).  Demand is
  /// kept in ascending app id, whatever the call order (calls in app
  /// order append), and that is the order in which runControlLoop hands
  /// apps with demand but no managed resident VM to placement.
  void setAppDemand(AppId app, double rps);
  /// Forgets every app's demand; keeps the storage for the next epoch.
  void clearAppDemand();

  /// One decision round: run the placement algorithm over the pod and
  /// enact the diff (create/resize/destroy VMs, RIP requests).
  void runControlLoop();

  /// Registers the periodic control loop on the simulation.
  void start(SimTime phase = 0.0);

  // --- failure semantics --------------------------------------------------

  /// A pod-manager outage: while offline the control loop is inert — no
  /// provisioning, resizing, or retiring happens in this pod (resident
  /// VMs keep serving; only the control plane is gone).
  void setOnline(bool online) noexcept { online_ = online; }
  [[nodiscard]] bool online() const noexcept { return online_; }

  /// The pod-manager *process* crashes: unlike a pod outage (setOnline),
  /// its in-memory soft state — observed demand, the last-applied weight
  /// checkpoint, vacate tracking — is lost, not merely paused.  Resident
  /// VMs keep serving.
  void crash();

  /// Restart after crash(): placement state is rebuilt from the
  /// HostFleet (resident VMs are re-discovered each control round
  /// anyway), and the per-VM weight checkpoint is re-seeded from
  /// `intendedWeight` — the global manager backs this with the replayed
  /// IntentJournal, so the restarted manager resumes from the intended
  /// weights instead of re-pushing every weight on its first round.
  /// Demand refills from the next epoch's observe fan-out, which also
  /// re-registers the pod with the global manager's distribution.
  void restart(const std::function<double(VmId)>& intendedWeight);

  [[nodiscard]] std::uint64_t crashes() const noexcept { return crashes_; }
  [[nodiscard]] std::uint64_t restarts() const noexcept { return restarts_; }

  /// The last-applied per-VM weight checkpoint — the advisory section of
  /// whole-DC snapshots (E17).  Losing it costs one cold first control
  /// round after restart, not correctness, so it is snapshot-only state
  /// excluded from the deterministic hash.
  [[nodiscard]] const std::unordered_map<VmId, double>& weightCheckpoint()
      const noexcept {
    return lastWeight_;
  }

  [[nodiscard]] const PodStats& stats() const noexcept { return stats_; }

  /// Apps currently covering this pod (instance resident here).
  [[nodiscard]] std::vector<AppId> coveredApps() const;

 private:
  /// The resident VM behind one (app index, server index) pair of the
  /// placement problem.
  struct ExistingVm {
    std::uint32_t app = 0;
    std::uint32_t server = 0;
    VmId vm;
  };

  /// Enacts the decision against `existing`, the problem's resident VMs
  /// in (app, server) order.
  void applyAssignment(const PlacementInput& input,
                       const PlacementResult& result,
                       const std::vector<AppId>& appIds,
                       const std::vector<ServerId>& serverIds,
                       const std::vector<ExistingVm>& existing);
  /// Tears down a managed instance placement no longer wants, unless it
  /// is migrating or still inside its grace period.
  void retire(VmId vm);
  void updateStats(const PlacementResult& result);

  PodId id_;
  Simulation& sim_;
  HostFleet& hosts_;
  AppRegistry& apps_;
  const Topology& topo_;
  PodRegistry& registry_;
  std::shared_ptr<const PlacementAlgorithm> algorithm_;
  RipRequestSink& rips_;
  Options options_;

  FlatMap<AppId, double> demand_;
  std::unordered_map<VmId, double> lastWeight_;
  std::unordered_set<ServerId> vacating_;
  bool online_ = true;
  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
  PodStats stats_;
};

}  // namespace mdc
