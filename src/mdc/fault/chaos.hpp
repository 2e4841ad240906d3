// Chaos storms and the whole-world invariant checker behind E16.
//
// A ChaosStorm is a seeded scheduler that composes the injector's whole
// fault repertoire — switch/server crashes, link cuts, control-channel
// partitions, pod-manager process crashes, global-manager leader crashes
// — into overlapping waves, so manager failures land *while* the system
// is already digesting infrastructure failures.  Everything derives from
// one seed: a storm that trips an invariant replays bit-identically from
// (seed, options).
//
// WorldInvariants is the judge.  It distinguishes two strengths:
//
//  * checkEpoch(): what must hold at *every* epoch, even mid-storm.
//    Structural consistency (ownership indices, capacity accounting),
//    exposure safety (no DNS-exposed VIP without a live backend, unless
//    its recovery is provably in flight), and leadership sanity (at most
//    one leader, fencing terms monotone, every takeover under a strictly
//    higher term, failover within a bounded number of epochs while a
//    standby exists).
//  * checkQuiesced(): what must hold after the storm ends and repairs
//    and anti-entropy have converged.  All of the above with zero
//    tolerance, plus exactly-once effects: no VIP hosted twice, no
//    dangling or lost RIPs, and the IntentStore equal to the switches'
//    actual tables.
//
// Checks return human-readable violation strings instead of asserting so
// tests can print the full set (and benches can count them).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mdc/app/app_registry.hpp"
#include "mdc/core/global_manager.hpp"
#include "mdc/dns/dns.hpp"
#include "mdc/fault/fault_injector.hpp"
#include "mdc/fault/health_monitor.hpp"
#include "mdc/host/host_fleet.hpp"
#include "mdc/lb/switch_fleet.hpp"
#include "mdc/sim/rng.hpp"
#include "mdc/topo/topology.hpp"

namespace mdc {

class ChaosStorm {
 public:
  struct Options {
    std::uint64_t seed = 1;
    /// Storm window; waves partition it into equal slices.
    SimTime start = 0.0;
    SimTime end = 0.0;
    std::uint32_t waves = 4;
    /// Per-wave fault counts are drawn uniformly in [0, max] per kind.
    std::uint32_t maxSwitchCrashes = 2;
    std::uint32_t maxServerCrashes = 3;
    std::uint32_t maxLinkCuts = 2;
    std::uint32_t maxPodOutages = 1;
    std::uint32_t maxChannelPartitions = 2;
    std::uint32_t maxPodManagerCrashes = 1;
    std::uint32_t maxGlobalManagerCrashes = 1;
    /// Command storms (E18): bursts of conflicting VIP/RIP requests that
    /// overload the admission queue while infrastructure faults land.
    std::uint32_t maxCommandStorms = 1;
    std::uint32_t stormBurst = 64;
    SimTime stormWindowSeconds = 5.0;
    /// Every fault is repaired after a delay drawn from this range —
    /// storms test recovery, so nothing stays broken forever.
    SimTime minRepairSeconds = 5.0;
    SimTime maxRepairSeconds = 30.0;
  };

  explicit ChaosStorm(Options options);

  /// Draws one RandomPlan per wave and hands them to the injector.  The
  /// drawn plans are kept (see waves()) so a run's storm composition can
  /// be reported and replayed.
  void schedule(FaultInjector& injector);

  [[nodiscard]] std::uint64_t seed() const noexcept { return options_.seed; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  /// The plans actually scheduled, in wave order (empty before
  /// schedule()).
  [[nodiscard]] const std::vector<FaultInjector::RandomPlan>& waves()
      const noexcept {
    return waves_;
  }

 private:
  Options options_;
  Rng rng_;
  std::vector<FaultInjector::RandomPlan> waves_;
};

/// One epoch's session-data-plane counters, as sampled by a probe the
/// scenario layer attaches (the fault module cannot depend on scenario,
/// so the invariant checker sees the SessionEngine only through this).
struct SessionPlaneSample {
  std::uint64_t arrivals = 0;
  std::uint64_t active = 0;
  std::uint64_t completed = 0;
  std::uint64_t broken = 0;
  std::uint64_t rejected = 0;
};

class WorldInvariants {
 public:
  /// `health` may be null (no self-healing: the tolerant checks then have
  /// no "recovery in flight" excuse and degenerate to the strict ones).
  WorldInvariants(const Topology& topo, const AppRegistry& apps,
                  const AuthoritativeDns& dns, const SwitchFleet& fleet,
                  const HostFleet& hosts, GlobalManager& manager,
                  const HealthMonitor* health = nullptr);

  /// Attaches a session-plane probe.  When it returns a sample,
  /// checkEpoch() enforces session conservation: every arrival is in
  /// exactly one of {active, completed, broken, rejected}, and the
  /// cumulative counters never move backwards.
  void attachSessionProbe(
      std::function<std::optional<SessionPlaneSample>()> probe) {
    sessionProbe_ = std::move(probe);
  }

  /// Invariants that must hold at every epoch, storm or not.  Also
  /// advances the leadership history (term monotonicity, leaderless-run
  /// accounting), so call it exactly once per epoch.
  [[nodiscard]] std::vector<std::string> checkEpoch();

  /// Zero-tolerance convergence check for after the storm has been
  /// repaired and the control plane has quiesced.
  [[nodiscard]] std::vector<std::string> checkQuiesced() const;

  [[nodiscard]] std::uint64_t epochsChecked() const noexcept {
    return epochsChecked_;
  }
  /// Longest run of consecutive leaderless epochs while a standby was
  /// available to promote — the observed failover bound.
  [[nodiscard]] std::uint64_t maxLeaderlessRun() const noexcept {
    return maxLeaderlessRun_;
  }
  [[nodiscard]] std::uint64_t leaderlessEpochs() const noexcept {
    return leaderlessEpochs_;
  }

 private:
  void checkStructural(std::vector<std::string>& out, bool strict) const;
  void checkLeadership(std::vector<std::string>& out);
  /// Shedding-correctness (E18): the critical class is never shed.
  void checkAdmission(std::vector<std::string>& out) const;
  /// Session conservation (E19), via the attached probe.
  void checkSessions(std::vector<std::string>& out);

  const Topology& topo_;
  const AppRegistry& apps_;
  const AuthoritativeDns& dns_;
  const SwitchFleet& fleet_;
  const HostFleet& hosts_;
  GlobalManager& manager_;
  const HealthMonitor* health_;
  std::function<std::optional<SessionPlaneSample>()> sessionProbe_;
  std::optional<SessionPlaneSample> lastSession_;

  std::uint64_t epochsChecked_ = 0;
  std::uint64_t lastTerm_ = 0;
  bool lastLeaderUp_ = true;
  /// Term observed when the leader was last seen down; a later leader
  /// must carry a strictly higher term (fencing).
  std::uint64_t termWhenDown_ = 0;
  std::uint64_t curLeaderlessRun_ = 0;
  std::uint64_t maxLeaderlessRun_ = 0;
  std::uint64_t leaderlessEpochs_ = 0;
};

}  // namespace mdc
