// The datacenter-scale global manager (§III-A, Figure 1).
//
// Composes the three roles the paper assigns it:
//  1. top level of the hierarchical resource management (the inter-pod
//     balancer and elephant-pod avoidance),
//  2. management of datacenter-scale resources (access-link balancer and
//     LB switch balancer),
//  3. the VIP/RIP manager that serializes all switch reconfiguration.
//
// It also implements RipRequestSink, the interface through which pod
// managers submit their VIP/RIP needs.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "mdc/core/interpod_balancer.hpp"
#include "mdc/core/link_balancer.hpp"
#include "mdc/core/pod.hpp"
#include "mdc/core/switch_balancer.hpp"
#include "mdc/core/viprip_manager.hpp"
#include "mdc/ctrl/reconciler.hpp"

namespace mdc {

class GlobalManager final : public RipRequestSink {
 public:
  /// Warm-standby failover policy (E16).  The manager tier is modeled as
  /// two logical instances sharing the durable state (the write-ahead
  /// IntentJournal): one leader and one warm standby.  The leader renews
  /// a 6-s lease every `renewSeconds`; if it dies, the standby waits out
  /// the lease (fencing — the old leader could still have commands in the
  /// channel) and then promotes itself under a strictly higher term.
  struct FailoverOptions {
    bool enable = true;
    /// Lease-renewal / standby-watch period.
    SimTime renewSeconds = 2.0;
  };

  /// Periodic whole-DC snapshots of the durable state machine (E17).
  /// Each snapshot captures the intent store, id watermarks, and fencing
  /// term (hash-covered), plus advisory pod weight checkpoints; the
  /// changelog is compacted behind it, bounding recovery replay to at
  /// most one snapshot period of records.
  struct SnapshotOptions {
    bool enable = true;
    SimTime periodSeconds = 60.0;
  };

  struct Options {
    PodManager::Options pod;
    VipRipManager::Options viprip;
    AccessLinkBalancer::Options link;
    SwitchBalancer::Options switchBalancer;
    InterPodBalancer::Options interPod;
    /// Anti-entropy audit of intended vs. actual VIP/RIP state (E14).
    Reconciler::Options reconciler;
    FailoverOptions failover;
    SnapshotOptions snapshot;
    bool enableReconciler = true;
    bool enableLinkBalancer = true;
    bool enableSwitchBalancer = true;
    bool enableInterPodBalancer = true;
    bool enablePodLoops = true;
    std::uint32_t vipsPerApp = 3;
    /// Partitioned-baseline mode (E8): every instance of an app deploys
    /// into pod (app id % pod count), compartmentalizing resources the
    /// way traditional per-silo data centers do.
    bool pinAppsToPods = false;
  };

  GlobalManager(Simulation& sim, const Topology& topo, HostFleet& hosts,
                AppRegistry& apps, SwitchFleet& fleet, AuthoritativeDns& dns,
                RouteRegistry& routes, PodRegistry& podRegistry,
                std::shared_ptr<const PlacementAlgorithm> algorithm,
                Options options);

  /// Creates a pod manager owning `servers`.  Call before start().
  PodManager& createPod(const std::vector<ServerId>& servers);

  /// One application of a bootstrap deployment.
  struct AppDeployment {
    AppId app;
    std::uint32_t instances = 0;
    /// Sizes each VM's slice and initial RIP weight.
    double perInstanceRps = 0.0;
  };

  /// Deploys applications synchronously and in order (bootstrap path):
  /// for each app, creates its VIPs immediately, spreads its instances
  /// round-robin across pods onto each pod's emptiest feasible server
  /// (fast-clone boot), and binds a RIP to each VM as it activates.
  /// Stops at the first app that does not fit with
  /// "insufficient_capacity" (the detail names the app); the apps before
  /// it stay deployed.
  Status deployApps(std::span<const AppDeployment> deployments);

  /// Registers every periodic control loop on the simulation.
  void start();

  /// Attach (or detach with nullptr) the tracer: forwarded to the VIP/RIP
  /// manager (and through it the channel, sender, and agents) and to the
  /// reconciler — including one built by a later start().
  void attachTracer(Tracer* tracer);

  /// Keeps the latest fluid-engine observation for the balancers' rounds,
  /// and pushes per-pod demand into the pod managers when their loops
  /// run.  A no-op while no leader is up: a dead manager observes
  /// nothing, so a promoted standby balances on the report the old leader
  /// last saw until the next epoch.  Balancer rounds before the first
  /// report do nothing.
  void observe(const EpochReport& report);

  // --- manager-tier fault tolerance (E16) ----------------------------------

  /// The leader instance crashes mid-operation: queued and in-flight
  /// VIP/RIP work completes with Cancelled, the serialization queue
  /// closes, balancer/reconciler rounds and observations stop.  The
  /// warm standby (if alive) takes over after the lease expires.
  void crashLeader();

  /// Repairs one dead manager instance.  It joins as a *standby* — a
  /// revived ex-leader never resumes leadership (its term is fenced
  /// out); promotion only happens through the lease watch.
  void reviveInstance();

  /// Crash/restart of a pod's manager process (checkpoint recovery:
  /// HostFleet residency + intended weights replayed from the journal).
  void crashPod(PodId pod);
  void restartPod(PodId pod);

  [[nodiscard]] std::uint64_t term() const noexcept { return term_; }
  [[nodiscard]] bool leaderUp() const noexcept { return leaderUp_; }
  /// Live manager instances (leader + standbys), 0..2.
  [[nodiscard]] std::uint32_t aliveManagers() const noexcept {
    return standbys_ + (leaderUp_ ? 1u : 0u);
  }
  [[nodiscard]] std::uint64_t failovers() const noexcept { return failovers_; }
  [[nodiscard]] std::uint64_t podRestarts() const noexcept {
    return podRestarts_;
  }

  // --- RipRequestSink ------------------------------------------------------

  void requestNewRip(AppId app, VmId vm, double weight) override;
  void requestRipRemoval(VmId vm, std::function<void()> onDone) override;
  void requestRipWeight(VmId vm, double weight) override;

  // --- component access ----------------------------------------------------

  [[nodiscard]] VipRipManager& viprip() noexcept { return *viprip_; }
  [[nodiscard]] AccessLinkBalancer& linkBalancer() noexcept {
    return *linkBalancer_;
  }
  [[nodiscard]] SwitchBalancer& switchBalancer() noexcept {
    return *switchBalancer_;
  }
  [[nodiscard]] InterPodBalancer& interPodBalancer() noexcept {
    MDC_EXPECT(interPod_ != nullptr, "start() not yet called");
    return *interPod_;
  }
  [[nodiscard]] Reconciler& reconciler() noexcept {
    MDC_EXPECT(reconciler_ != nullptr, "reconciler disabled or not started");
    return *reconciler_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<PodManager>>& pods() noexcept {
    return pods_;
  }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  /// Lease renewal (leader) / takeover watch (standby); runs every
  /// failover.renewSeconds.
  void leaseTick();
  /// Intended total serving weight of `vm` (sum of its RIP weights in
  /// the IntentStore) — the pod-restart checkpoint source.
  [[nodiscard]] double intendedVmWeight(VmId vm) const;
  /// Pod-restart weight seed: intent first, advisory snapshot second.
  [[nodiscard]] double checkpointVmWeight(VmId vm) const;
  /// Serializes/installs every pod's weight checkpoint — the advisory
  /// section of whole-DC snapshots.
  void buildPodAdvisory(state::ByteWriter& w) const;
  void installPodAdvisory(state::ByteReader& r);
  void submitRipRemoval(VmId vm, std::function<void()> onDone,
                        std::uint32_t attempt);
  void submitNewRip(AppId app, VmId vm, double weight, std::uint32_t attempt);
  /// Retry delay for a transiently failed request: exponential backoff,
  /// stretched to the admission layer's retry-after hint when shed.
  [[nodiscard]] SimTime retryDelayFor(const Status& s,
                                      std::uint32_t attempt) const;

  Simulation& sim_;
  const Topology& topo_;
  HostFleet& hosts_;
  AppRegistry& apps_;
  SwitchFleet& fleet_;
  PodRegistry& podRegistry_;
  std::shared_ptr<const PlacementAlgorithm> algorithm_;
  Options options_;

  std::unique_ptr<AccessLinkBalancer> linkBalancer_;
  std::unique_ptr<SwitchBalancer> switchBalancer_;
  std::unique_ptr<InterPodBalancer> interPod_;  // built in start()
  std::unique_ptr<Reconciler> reconciler_;      // built in start()
  std::vector<std::unique_ptr<PodManager>> pods_;
  std::uint32_t nextDeployPod_ = 0;
  bool started_ = false;
  Tracer* tracer_ = nullptr;

  /// Leadership state (E16): monotonic fencing term, leader liveness,
  /// warm-standby count, and the lease the standby must wait out.
  std::uint64_t term_ = 1;
  bool leaderUp_ = true;
  std::uint32_t standbys_ = 1;
  SimTime leaseExpiry_ = 0.0;
  std::uint64_t failovers_ = 0;
  std::uint64_t podRestarts_ = 0;

  /// The report observe() last kept; every balancer round reads it.
  std::optional<EpochReport> report_;

  /// Advisory pod weight checkpoints recovered from the last accepted
  /// snapshot; consulted when a pod restarts and the intent store has
  /// no RIP-derived weight for a VM.
  std::unordered_map<VmId, double> snapshotPodWeights_;

  /// observe()'s per-app demand split, (pod, rps) in first-touch order;
  /// reused across apps and epochs.
  std::vector<std::pair<PodId, double>> podDemand_;

  /// Declared last so it is destroyed first: its destructor settles its
  /// queued requests and in-flight commands, whose completions call into
  /// the pods, the reconciler and the balancers.
  std::unique_ptr<VipRipManager> viprip_;
};

}  // namespace mdc
