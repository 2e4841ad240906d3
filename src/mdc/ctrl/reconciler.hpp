// Anti-entropy reconciliation of intended vs. actual VIP/RIP state.
//
// Under a lossy control channel the switch tables drift from the
// manager's intent: a timed-out command may land late (a VIP alive on
// two switches after a retried restore), a lost one may never land (a
// missing VIP or RIP), a crashed manager may forget in-flight work.  The
// reconciler periodically audits every switch's actual table against the
// IntentStore and heals the difference with ordinary idempotent commands
// over the same (still unreliable) channel:
//
//  * table entries with no intent        -> removed (stray);
//  * a VIP live on two switches          -> removed from the unintended
//    one — after reconciliation no VIP is ever live on two switches;
//  * a VIP live only on the wrong switch -> the intent is *adopted*
//    (balancers move VIPs directly via SwitchFleet::transferVip; actual
//    placement wins for singletons);
//  * RIP weight differences              -> adopted, not repaired (the
//    inter-pod balancer writes weights directly to the fleet);
//  * intended VIPs/RIPs missing          -> re-issued.
//
// VIPs with commands still awaiting acks, pending crash orphans, or an
// intended host that is down are skipped: they are mid-flight or the
// health monitor's responsibility, not drift.
//
// A round audits every switch in ascending id, then every intended VIP in
// ascending VIP id.  Each VIP is resolved once per round: the switch pass
// reads every table in place and notes where it found each VIP on its
// intended switch, and whether that entry holds exactly the intended
// RIPs.  Until the round sends a repair or calls a hook, the intent pass
// skips such a complete VIP: nothing can be missing from it.  Otherwise
// it reads the entry by its noted position, re-checked against the VIP id
// (inline repairs swap-and-pop a table), and looks up by hash only the
// VIPs the switch pass did not resolve.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mdc/ctrl/command_sender.hpp"
#include "mdc/ctrl/intent.hpp"
#include "mdc/lb/switch_fleet.hpp"
#include "mdc/sim/simulation.hpp"

namespace mdc {

class Reconciler {
 public:
  struct Options {
    SimTime periodSeconds = 15.0;
  };

  /// Callbacks into the VIP/RIP manager for state it owns.
  struct Hooks {
    /// A singleton VIP found on a different switch than intended (e.g. a
    /// direct balancer transfer the journal missed): accept reality.
    std::function<void(VipId, SwitchId actual)> adoptPlacement;
    /// An actual RIP weight differing from intent: accept reality.
    std::function<void(VipId, RipId, double actual)> adoptRipWeight;
    /// Recompute the VIP's DNS weight after a structural repair landed.
    std::function<void(VipId)> resyncDns;
  };

  Reconciler(Simulation& sim, SwitchFleet& fleet, const IntentStore& intent,
             CommandSender& sender, Hooks hooks, Options options);

  /// Registers the periodic audit on the simulation.
  void start(SimTime phase = 0.0);

  /// Attach (or detach with nullptr) the tracer.  Each repair command
  /// gets its own trace rooted at a ReconcileRepair hop; adoptions are
  /// recorded as single-event ReconcileAdopt traces.
  void setTracer(Tracer* tracer) noexcept { tracer_ = tracer; }

  /// One audit round (normally driven by start(); public for tests).
  void auditRound();

  /// Gate on the periodic loop: audits (which issue repair commands on
  /// behalf of the leader) are skipped while the check returns false.  A
  /// deposed or crashed manager must not keep repairing — the fencing
  /// terms would reject its commands anyway, but it must not try.  The
  /// failover path still calls auditRound() directly to re-derive pending
  /// work from the rebuilt IntentStore.
  void setActiveCheck(std::function<bool()> check) {
    activeCheck_ = std::move(check);
  }

  /// Rounds skipped by the active-check gate (manager-down windows).
  [[nodiscard]] std::uint64_t roundsSkipped() const noexcept {
    return roundsSkipped_;
  }

  /// Overload gate (E18): the check returns the admission layer's
  /// retry-after hint in seconds, or 0 when the command plane has
  /// headroom.  Periodic audits defer while it is positive — repair
  /// commands would only feed an already-saturated pipeline.  Direct
  /// auditRound() calls (failover re-derivation) are not gated.
  void setOverloadCheck(std::function<double()> check) {
    overloadCheck_ = std::move(check);
  }

  /// Rounds deferred by the overload gate.
  [[nodiscard]] std::uint64_t roundsDeferred() const noexcept {
    return roundsDeferred_;
  }

  // --- introspection ------------------------------------------------------

  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  /// Divergent table entries found in the most recent round — the
  /// convergence signal: 0 means intended == actual.
  [[nodiscard]] std::uint64_t divergenceLastRound() const noexcept {
    return lastRoundDrift_;
  }
  [[nodiscard]] std::uint64_t driftDetected() const noexcept {
    return driftDetected_;
  }
  [[nodiscard]] std::uint64_t repairsIssued() const noexcept {
    return repairsIssued_;
  }
  [[nodiscard]] std::uint64_t repairsSucceeded() const noexcept {
    return repairsSucceeded_;
  }
  [[nodiscard]] std::uint64_t repairsFailed() const noexcept {
    return repairsFailed_;
  }
  [[nodiscard]] std::uint64_t placementsAdopted() const noexcept {
    return placementsAdopted_;
  }
  [[nodiscard]] std::uint64_t weightsAdopted() const noexcept {
    return weightsAdopted_;
  }
  /// Drift occurrences by kind: "stray_vip", "duplicate_vip",
  /// "wrong_switch", "missing_vip", "orphan_rip", "missing_rip".
  [[nodiscard]] const std::unordered_map<std::string, std::uint64_t>&
  driftByKind() const noexcept {
    return driftByKind_;
  }

 private:
  void auditSwitch(SwitchId sw);
  void auditIntent(VipId vip, const VipIntent& intent);
  /// `vip`'s entry on `s`, or nullptr: the switch pass's position if the
  /// entry there is still this VIP's, else a lookup.
  [[nodiscard]] const VipEntry* entryOn(const LbSwitch& s, VipId vip) const;
  [[nodiscard]] bool frozen(VipId vip) const;
  void noteDrift(const char* kind);
  void issueRemoveVip(SwitchId sw, VipId vip);
  void issueAddRip(SwitchId sw, VipId vip, const RipEntry& rip);
  /// Roots a fresh trace on `cmd` (no-op when tracing is off).
  void stampRepair(SwitchCommand& cmd, const char* kind);
  void noteAdopt(const char* what, std::uint64_t a, std::uint64_t b);

  Simulation& sim_;
  SwitchFleet& fleet_;
  const IntentStore& intent_;
  CommandSender& sender_;
  Hooks hooks_;
  Options options_;
  Tracer* tracer_ = nullptr;

  std::function<bool()> activeCheck_;
  std::function<double()> overloadCheck_;
  SimTime overloadResumeAt_ = 0.0;
  std::uint64_t roundsSkipped_ = 0;
  std::uint64_t roundsDeferred_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t lastRoundDrift_ = 0;
  std::uint64_t driftDetected_ = 0;
  std::uint64_t repairsIssued_ = 0;
  std::uint64_t repairsSucceeded_ = 0;
  std::uint64_t repairsFailed_ = 0;
  std::uint64_t placementsAdopted_ = 0;
  std::uint64_t weightsAdopted_ = 0;
  std::unordered_map<std::string, std::uint64_t> driftByKind_;
  /// Table position at which the last switch pass found each VIP on its
  /// intended switch, by VIP index (a hint; see entryOn).
  std::vector<std::uint32_t> seenAt_;
  /// VIPs this round's switch pass found complete on their intended
  /// switch (every intended RIP present, none unintended), by VIP index.
  std::vector<bool> complete_;
  /// Whether this round has sent a repair or called a hook yet.
  bool acted_ = false;
};

}  // namespace mdc
