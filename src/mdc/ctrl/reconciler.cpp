#include "mdc/ctrl/reconciler.hpp"

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "mdc/util/expect.hpp"

namespace mdc {

Reconciler::Reconciler(Simulation& sim, SwitchFleet& fleet,
                       const IntentStore& intent, CommandSender& sender,
                       Hooks hooks, Options options)
    : sim_(sim),
      fleet_(fleet),
      intent_(intent),
      sender_(sender),
      hooks_(std::move(hooks)),
      options_(options) {
  MDC_EXPECT(options.periodSeconds > 0.0, "audit period must be positive");
}

void Reconciler::start(SimTime phase) {
  sim_.every(options_.periodSeconds,
             [this] {
               if (activeCheck_ && !activeCheck_()) {
                 ++roundsSkipped_;
                 return;
               }
               if (sim_.now() < overloadResumeAt_) {
                 ++roundsDeferred_;
                 return;
               }
               if (overloadCheck_) {
                 const double retryAfter = overloadCheck_();
                 if (retryAfter > 0.0) {
                   ++roundsDeferred_;
                   overloadResumeAt_ = sim_.now() + retryAfter;
                   return;
                 }
               }
               auditRound();
             },
             phase);
}

bool Reconciler::frozen(VipId vip) const {
  // A busy VIP is mid-flight, not drifted.  Crash orphans awaiting (or
  // undergoing) RestoreVip belong to the health monitor; repairing them
  // here would race its recovery.
  return sender_.vipBusy(vip) || fleet_.isOrphaned(vip);
}

void Reconciler::noteDrift(const char* kind) {
  ++lastRoundDrift_;
  ++driftDetected_;
  ++driftByKind_[kind];
}

void Reconciler::stampRepair(SwitchCommand& cmd, const char* kind) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  cmd.trace = tracer_->begin();
  cmd.parentSpan = tracer_->newSpan();
  tracer_->record(cmd.trace, cmd.parentSpan, 0, HopKind::ReconcileRepair, kind,
                  cmd.vip.index());
}

void Reconciler::noteAdopt(const char* what, std::uint64_t a, std::uint64_t b) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  const TraceId t = tracer_->begin();
  tracer_->record(t, tracer_->newSpan(), 0, HopKind::ReconcileAdopt, what, a,
                  b);
}

void Reconciler::auditRound() {
  ++rounds_;
  lastRoundDrift_ = 0;
  acted_ = false;
  complete_.assign(complete_.size(), false);
  const auto fleetSize = static_cast<std::uint32_t>(fleet_.size());
  for (std::uint32_t i = 0; i < fleetSize; ++i) auditSwitch(SwitchId{i});
  intent_.forEach([&](VipId vip, const VipIntent& intent) {
    if (intent.sw.index() < fleetSize) auditIntent(vip, intent);
  });
}

const VipEntry* Reconciler::entryOn(const LbSwitch& s, VipId vip) const {
  // The switch pass's position is only a hint: repairs that ran inline
  // since then swap-and-pop the table, so the entry there must still be
  // this VIP's.  A VIP appears at most once per table, so a match is the
  // entry findVip would return.
  const std::span<const VipEntry> table = s.vips();
  const std::size_t i = vip.index();
  if (i < seenAt_.size() && seenAt_[i] < table.size() &&
      table[seenAt_[i]].vip == vip) {
    return &table[seenAt_[i]];
  }
  return s.findVip(vip);
}

void Reconciler::auditSwitch(SwitchId sw) {
  const LbSwitch& s = fleet_.at(sw);
  if (!s.up()) return;  // nothing actual to audit; detection is E13's job

  // Collect first, act after: on a reliable channel a repair mutates the
  // very table being iterated.
  struct RipFix {
    VipId vip;
    RipId rip;
  };
  std::vector<VipId> strays;
  std::vector<VipId> adoptions;
  std::vector<RipFix> orphanRips;
  struct WeightFix {
    VipId vip;
    RipId rip;
    double weight;
  };
  std::vector<WeightFix> weightFixes;

  const std::span<const VipEntry> table = s.vips();
  for (std::size_t pos = 0; pos < table.size(); ++pos) {
    const VipEntry& entry = table[pos];
    const VipId vip = entry.vip;
    if (frozen(vip)) continue;
    const VipIntent* intent = intent_.find(vip);
    if (intent == nullptr) {
      noteDrift("stray_vip");
      strays.push_back(vip);
      continue;
    }
    if (intent->sw != sw) {
      if (fleet_.at(intent->sw).up() && fleet_.at(intent->sw).hasVip(vip)) {
        // Alive on both the intended switch and this one (a retried
        // command landed late): the unintended copy goes.
        noteDrift("duplicate_vip");
        strays.push_back(vip);
      } else {
        // Alive only here: a direct transfer (or a stale intent whose
        // switch died) — actual placement wins for singletons.
        noteDrift("wrong_switch");
        adoptions.push_back(vip);
      }
      continue;
    }
    // The intent pass re-reads this entry by its position.
    if (vip.index() >= seenAt_.size()) {
      seenAt_.resize(vip.index() + 1, 0);
      complete_.resize(vip.index() + 1, false);
    }
    seenAt_[vip.index()] = static_cast<std::uint32_t>(pos);
    bool orphans = false;
    for (const RipEntry& actual : entry.rips) {
      const RipEntry* intended = intent->findRip(actual.rip);
      if (intended == nullptr) {
        noteDrift("orphan_rip");
        orphanRips.push_back(RipFix{vip, actual.rip});
        orphans = true;
      } else if (std::abs(intended->weight - actual.weight) > 1e-9) {
        // Weights are written straight to the fleet by the inter-pod
        // balancer; the journal learns them here instead of undoing them.
        weightFixes.push_back(WeightFix{vip, actual.rip, actual.weight});
      }
    }
    // RIP ids are unique in a table and in an intent, so every actual RIP
    // intended and as many actual as intended means none is missing.
    complete_[vip.index()] =
        !orphans && entry.rips.size() == intent->rips.size();
  }
  if (!weightFixes.empty() || !adoptions.empty() || !strays.empty() ||
      !orphanRips.empty()) {
    acted_ = true;
  }

  for (const WeightFix& fix : weightFixes) {
    ++weightsAdopted_;
    noteAdopt("rip_weight", fix.vip.index(), fix.rip.index());
    if (hooks_.adoptRipWeight) hooks_.adoptRipWeight(fix.vip, fix.rip, fix.weight);
  }
  for (VipId vip : adoptions) {
    ++placementsAdopted_;
    noteAdopt("placement", vip.index(), sw.index());
    if (hooks_.adoptPlacement) hooks_.adoptPlacement(vip, sw);
  }
  for (VipId vip : strays) issueRemoveVip(sw, vip);
  for (const RipFix& fix : orphanRips) {
    ++repairsIssued_;
    SwitchCommand cmd;
    cmd.kind = CmdKind::RemoveRip;
    cmd.vip = fix.vip;
    cmd.rip.rip = fix.rip;
    stampRepair(cmd, "orphan_rip");
    sender_.send(sw, cmd, [this, vip = fix.vip](Status status) {
      if (!status.ok()) {
        ++repairsFailed_;
        return;
      }
      ++repairsSucceeded_;
      if (hooks_.resyncDns) hooks_.resyncDns(vip);
    });
  }
}

void Reconciler::auditIntent(VipId vip, const VipIntent& intent) {
  // Until the round sends a repair or calls a hook the world is as the
  // switch pass saw it, so a VIP it found complete has nothing missing.
  if (!acted_ && vip.index() < complete_.size() && complete_[vip.index()]) {
    return;
  }
  if (frozen(vip)) return;
  const LbSwitch& s = fleet_.at(intent.sw);
  if (!s.up()) return;  // its restore is the health monitor's call
  const VipEntry* entry = entryOn(s, vip);
  if (entry == nullptr) {
    // Hosted elsewhere means the stray/adoption pass owns it; hosted
    // nowhere means a lost command — re-issue the whole placement.
    if (!fleet_.hostsOf(vip).empty()) return;
    noteDrift("missing_vip");
    acted_ = true;
    ++repairsIssued_;
    SwitchCommand cmd;
    cmd.kind = CmdKind::ConfigureVip;
    cmd.vip = vip;
    cmd.app = intent.app;
    stampRepair(cmd, "missing_vip");
    const SwitchId sw = intent.sw;
    const std::vector<RipEntry> rips = intent.rips;
    sender_.send(sw, cmd, [this, sw, vip, rips](Status status) {
      if (!status.ok()) {
        ++repairsFailed_;
        return;
      }
      ++repairsSucceeded_;
      for (const RipEntry& r : rips) issueAddRip(sw, vip, r);
      if (hooks_.resyncDns) hooks_.resyncDns(vip);
    });
    return;
  }
  std::vector<RipEntry> missing;
  for (const RipEntry& intended : intent.rips) {
    if (entry->findRip(intended.rip) == nullptr) {
      noteDrift("missing_rip");
      missing.push_back(intended);
    }
  }
  for (const RipEntry& r : missing) issueAddRip(intent.sw, vip, r);
}

void Reconciler::issueRemoveVip(SwitchId sw, VipId vip) {
  ++repairsIssued_;
  SwitchCommand cmd;
  cmd.kind = CmdKind::RemoveVip;
  cmd.vip = vip;
  // A stray must not survive because sessions still pin it: severing
  // them is the lesser evil vs. two switches both owning the VIP.
  cmd.dropConnections = true;
  stampRepair(cmd, "stray_vip");
  sender_.send(sw, cmd, [this](Status status) {
    if (status.ok()) {
      ++repairsSucceeded_;
    } else {
      ++repairsFailed_;
    }
  });
}

void Reconciler::issueAddRip(SwitchId sw, VipId vip, const RipEntry& rip) {
  acted_ = true;
  ++repairsIssued_;
  SwitchCommand cmd;
  cmd.kind = CmdKind::AddRip;
  cmd.vip = vip;
  cmd.rip = rip;
  stampRepair(cmd, "missing_rip");
  sender_.send(sw, cmd, [this, vip](Status status) {
    if (!status.ok()) {
      ++repairsFailed_;
      return;
    }
    ++repairsSucceeded_;
    if (hooks_.resyncDns) hooks_.resyncDns(vip);
  });
}

}  // namespace mdc
