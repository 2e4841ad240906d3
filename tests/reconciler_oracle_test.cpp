// Randomized oracle for the reconciler's one-resolution-per-VIP audit.
//
// TwoPassAudit below is a test-local copy of the audit the reconciler ran
// before it resolved each VIP once per round: its switch pass copies each
// switch's VIP ids and looks every one up by hash, and its intent pass
// looks every intended VIP up again.  The suite builds pairs of identical
// worlds, drifts them with one random script (all six drift kinds, RIP
// weight changes, frozen VIPs behind a partitioned control link, crashed
// and recovered switches, collected and uncollected orphans, duplicate
// hosts, intent edits, and rounds whose only drift is what the intent
// pass finds), audits one with Reconciler::auditRound and the
// other with the copy, and requires the same repair commands in the same
// order (the traced hops of both runs), the same drift counts and hook
// calls, and the same switch tables and intent after every round.  The
// script draws from MDC_CHAOS_SEED (default 1009), so the chaos soak runs
// a different one per seed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "mdc/ctrl/command_sender.hpp"
#include "mdc/ctrl/control_channel.hpp"
#include "mdc/ctrl/intent.hpp"
#include "mdc/ctrl/reconciler.hpp"
#include "mdc/lb/switch_fleet.hpp"
#include "mdc/obs/trace.hpp"
#include "mdc/sim/simulation.hpp"

namespace mdc {
namespace {

class TwoPassAudit {
 public:
  TwoPassAudit(SwitchFleet& fleet, const IntentStore& intent,
               CommandSender& sender, Reconciler::Hooks hooks, Tracer* tracer)
      : fleet_(fleet),
        intent_(intent),
        sender_(sender),
        hooks_(std::move(hooks)),
        tracer_(tracer) {}

  void auditRound() {
    ++rounds_;
    lastRoundDrift_ = 0;
    const auto fleetSize = static_cast<std::uint32_t>(fleet_.size());
    for (std::uint32_t i = 0; i < fleetSize; ++i) auditSwitch(SwitchId{i});
    intent_.forEach([&](VipId vip, const VipIntent& intent) {
      if (intent.sw.index() < fleetSize) auditIntent(vip, intent);
    });
  }

  std::uint64_t rounds_ = 0;
  std::uint64_t lastRoundDrift_ = 0;
  std::uint64_t driftDetected_ = 0;
  std::uint64_t repairsIssued_ = 0;
  std::uint64_t repairsSucceeded_ = 0;
  std::uint64_t repairsFailed_ = 0;
  std::uint64_t placementsAdopted_ = 0;
  std::uint64_t weightsAdopted_ = 0;
  std::map<std::string, std::uint64_t> driftByKind_;

 private:
  bool frozen(VipId vip) const {
    return sender_.vipBusy(vip) || fleet_.isOrphaned(vip);
  }
  void noteDrift(const char* kind) {
    ++lastRoundDrift_;
    ++driftDetected_;
    ++driftByKind_[kind];
  }
  void stampRepair(SwitchCommand& cmd, const char* kind) {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    cmd.trace = tracer_->begin();
    cmd.parentSpan = tracer_->newSpan();
    tracer_->record(cmd.trace, cmd.parentSpan, 0, HopKind::ReconcileRepair,
                    kind, cmd.vip.index());
  }
  void noteAdopt(const char* what, std::uint64_t a, std::uint64_t b) {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    const TraceId t = tracer_->begin();
    tracer_->record(t, tracer_->newSpan(), 0, HopKind::ReconcileAdopt, what, a,
                    b);
  }

  void auditSwitch(SwitchId sw) {
    const LbSwitch& s = fleet_.at(sw);
    if (!s.up()) return;
    struct RipFix {
      VipId vip;
      RipId rip;
    };
    struct WeightFix {
      VipId vip;
      RipId rip;
      double weight;
    };
    std::vector<VipId> strays;
    std::vector<VipId> adoptions;
    std::vector<RipFix> orphanRips;
    std::vector<WeightFix> weightFixes;
    std::vector<VipId> ids;  // the copy the switch pass used to take
    for (const VipEntry& e : s.vips()) ids.push_back(e.vip);
    for (VipId vip : ids) {
      if (frozen(vip)) continue;
      const VipIntent* intent = intent_.find(vip);
      if (intent == nullptr) {
        noteDrift("stray_vip");
        strays.push_back(vip);
        continue;
      }
      if (intent->sw != sw) {
        if (fleet_.at(intent->sw).up() && fleet_.at(intent->sw).hasVip(vip)) {
          noteDrift("duplicate_vip");
          strays.push_back(vip);
        } else {
          noteDrift("wrong_switch");
          adoptions.push_back(vip);
        }
        continue;
      }
      const VipEntry* entry = s.findVip(vip);
      for (const RipEntry& actual : entry->rips) {
        const RipEntry* intended = intent->findRip(actual.rip);
        if (intended == nullptr) {
          noteDrift("orphan_rip");
          orphanRips.push_back(RipFix{vip, actual.rip});
        } else if (std::abs(intended->weight - actual.weight) > 1e-9) {
          weightFixes.push_back(WeightFix{vip, actual.rip, actual.weight});
        }
      }
    }
    for (const WeightFix& fix : weightFixes) {
      ++weightsAdopted_;
      noteAdopt("rip_weight", fix.vip.index(), fix.rip.index());
      if (hooks_.adoptRipWeight) {
        hooks_.adoptRipWeight(fix.vip, fix.rip, fix.weight);
      }
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

  void auditIntent(VipId vip, const VipIntent& intent) {
    if (frozen(vip)) return;
    const LbSwitch& s = fleet_.at(intent.sw);
    if (!s.up()) return;
    const VipEntry* entry = s.findVip(vip);
    if (entry == nullptr) {
      if (!fleet_.hostsOf(vip).empty()) return;
      noteDrift("missing_vip");
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

  void issueRemoveVip(SwitchId sw, VipId vip) {
    ++repairsIssued_;
    SwitchCommand cmd;
    cmd.kind = CmdKind::RemoveVip;
    cmd.vip = vip;
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

  void issueAddRip(SwitchId sw, VipId vip, const RipEntry& rip) {
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

  SwitchFleet& fleet_;
  const IntentStore& intent_;
  CommandSender& sender_;
  Reconciler::Hooks hooks_;
  Tracer* tracer_;
};

std::uint64_t oracleSeed() {
  if (const char* s = std::getenv("MDC_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 1009;
}

constexpr std::uint32_t kSwitches = 5;
constexpr std::uint32_t kIntended = 48;  // VIP ids [0, 48) start intended
constexpr std::uint32_t kVipIds = 64;    // [48, 64) start as strays' pool

/// One world: a fleet, its intent, a reliable control channel (repairs
/// apply inline, so a stray removal swap-and-pops the table mid-round),
/// and hooks that log each call and apply adoptions to the intent, as the
/// VIP/RIP manager does.
struct AuditWorld {
  Simulation sim;
  SwitchFleet fleet;
  IntentStore intent;
  ControlChannel channel{sim, 11};
  CommandSender sender{sim, channel, fleet, CommandSender::Options{}};
  Tracer tracer{sim, Tracer::Options{1u << 15, true}};
  std::vector<std::string> hookCalls;
  std::unique_ptr<Reconciler> reconciler;
  std::unique_ptr<TwoPassAudit> twoPass;

  explicit AuditWorld(bool useTwoPass) {
    SwitchLimits limits;
    limits.maxVips = 24;
    for (std::uint32_t s = 0; s < kSwitches; ++s) fleet.addSwitch(limits);
    sender.setTracer(&tracer);
    Reconciler::Hooks hooks;
    hooks.adoptPlacement = [this](VipId vip, SwitchId actual) {
      hookCalls.push_back("placement " + std::to_string(vip.value()) + " " +
                          std::to_string(actual.value()));
      const VipIntent* in = intent.find(vip);
      if (in == nullptr || in->sw == actual) return;
      IntentRecord rec;
      rec.op = IntentOp::MoveVip;
      rec.vip = vip;
      rec.sw = actual;
      intent.apply(rec);
    };
    hooks.adoptRipWeight = [this](VipId vip, RipId rip, double w) {
      hookCalls.push_back("weight " + std::to_string(vip.value()) + " " +
                          std::to_string(rip.value()) + " " +
                          std::to_string(w));
      const VipIntent* in = intent.find(vip);
      if (in == nullptr || in->findRip(rip) == nullptr) return;
      IntentRecord rec;
      rec.op = IntentOp::SetRipWeight;
      rec.vip = vip;
      rec.rip.rip = rip;
      rec.weight = w;
      intent.apply(rec);
    };
    hooks.resyncDns = [this](VipId vip) {
      hookCalls.push_back("dns " + std::to_string(vip.value()));
    };
    if (useTwoPass) {
      twoPass = std::make_unique<TwoPassAudit>(fleet, intent, sender, hooks,
                                               &tracer);
    } else {
      reconciler = std::make_unique<Reconciler>(sim, fleet, intent, sender,
                                                hooks, Reconciler::Options{});
      reconciler->setTracer(&tracer);
    }
  }

  void audit() {
    if (twoPass) {
      twoPass->auditRound();
    } else {
      reconciler->auditRound();
    }
  }
};

RipEntry ripOf(std::uint32_t id, double weight) {
  RipEntry r;
  r.rip = RipId{id};
  r.vm = VmId{id};
  r.weight = weight;
  return r;
}

/// One drift step, drawn once and applied to both worlds.
struct Drift {
  enum Kind {
    Stray,
    Duplicate,
    WrongSwitch,
    MissingVip,
    OrphanRip,
    MissingRip,
    Weight,
    Crash,
    Recover,
    TakeOrphans,
    Partition,
    Heal,
    BusyCommand,
    IntendNew,
    IntendRip,
    ForgetVip,
    Reconfigure,
  } kind;
  std::uint32_t vip;
  std::uint32_t sw;
  std::uint32_t pick;
  double weight;
};
constexpr int kDriftKinds = 17;

/// Applies one drift to a world; returns what happened, so the two worlds'
/// scripts can be checked to act alike.
std::string apply(AuditWorld& w, const Drift& d, std::uint32_t& nextRip) {
  const VipId vip{d.vip};
  const SwitchId sw{d.sw};
  const VipIntent* in = w.intent.find(vip);
  const auto ok = [](const Status& s) { return s.ok() ? "ok" : "refused"; };
  switch (d.kind) {
    case Drift::Stray: {
      if (in != nullptr || !w.fleet.isUp(sw)) return "skip";
      const Status s = w.fleet.applyConfigureVip(sw, vip, AppId{d.vip % 7});
      if (s.ok() && d.pick % 2 == 0) {
        (void)w.fleet.applyAddRip(sw, vip, ripOf(nextRip++, 1.0));
      }
      return ok(s);
    }
    case Drift::Duplicate: {
      if (in == nullptr || in->sw == sw || !w.fleet.isUp(sw)) return "skip";
      const Status s = w.fleet.applyConfigureVip(sw, vip, in->app);
      if (s.ok() && !in->rips.empty()) {
        (void)w.fleet.applyAddRip(sw, vip, in->rips.front());
      }
      return ok(s);
    }
    case Drift::WrongSwitch: {
      // A move the journal missed: the VIP leaves its intended switch
      // and lands, RIPs and all, on another.
      if (in == nullptr || in->sw == sw || !w.fleet.isUp(in->sw) ||
          !w.fleet.isUp(sw)) {
        return "skip";
      }
      const VipEntry* e = w.fleet.at(in->sw).findVip(vip);
      if (e == nullptr) return "skip";
      const std::vector<RipEntry> rips = e->rips;
      const AppId app = e->app;
      if (!w.fleet.applyRemoveVip(in->sw, vip, true).ok()) return "refused";
      const Status s = w.fleet.applyConfigureVip(sw, vip, app);
      if (s.ok()) {
        for (const RipEntry& r : rips) (void)w.fleet.applyAddRip(sw, vip, r);
      }
      return ok(s);
    }
    case Drift::MissingVip:
      if (in == nullptr || !w.fleet.isUp(in->sw)) return "skip";
      return ok(w.fleet.applyRemoveVip(in->sw, vip, true));
    case Drift::OrphanRip:
      if (in == nullptr || !w.fleet.isUp(in->sw)) return "skip";
      return ok(w.fleet.applyAddRip(in->sw, vip, ripOf(nextRip++, 2.0)));
    case Drift::MissingRip:
      if (in == nullptr || in->rips.empty() || !w.fleet.isUp(in->sw)) {
        return "skip";
      }
      return ok(w.fleet.applyRemoveRip(
          in->sw, vip, in->rips[d.pick % in->rips.size()].rip));
    case Drift::Weight:
      if (in == nullptr || in->rips.empty() || !w.fleet.isUp(in->sw)) {
        return "skip";
      }
      return ok(w.fleet.applySetRipWeight(
          in->sw, vip, in->rips[d.pick % in->rips.size()].rip, d.weight));
    case Drift::Crash:
      if (!w.fleet.isUp(sw) || w.fleet.upCount() <= 2) return "skip";
      return std::to_string(w.fleet.crashSwitch(sw, w.sim.now()));
    case Drift::Recover:
      if (w.fleet.isUp(sw)) return "skip";
      w.fleet.recoverSwitch(sw);
      return "ok";
    case Drift::TakeOrphans:
      return std::to_string(w.fleet.takeOrphans(sw).size());
    case Drift::Partition:
      w.channel.setPartitioned(sw, true);
      return "ok";
    case Drift::Heal:
      w.channel.setPartitioned(sw, false);
      return "ok";
    case Drift::BusyCommand: {
      // A command awaiting its ack behind a partitioned link freezes its
      // VIP until the link heals and the retry lands (or times out).
      if (in == nullptr) return "skip";
      w.channel.setPartitioned(in->sw, true);
      SwitchCommand cmd;
      cmd.kind = CmdKind::SetRipWeight;
      cmd.vip = vip;
      cmd.rip.rip = in->rips.empty() ? RipId{0} : in->rips.front().rip;
      cmd.weight = d.weight;
      w.sender.send(in->sw, cmd, [&w](Status s) {
        w.hookCalls.push_back(std::string("busy done ") +
                              (s.ok() ? "ok" : s.error().code));
      });
      return "ok";
    }
    case Drift::IntendNew: {
      if (in != nullptr) return "skip";
      IntentRecord rec;
      rec.op = IntentOp::AddVip;
      rec.vip = vip;
      rec.app = AppId{d.vip % 7};
      rec.sw = sw;
      w.intent.apply(rec);
      return "ok";
    }
    case Drift::IntendRip: {
      if (in == nullptr) return "skip";
      IntentRecord rec;
      rec.op = IntentOp::AddRip;
      rec.vip = vip;
      rec.rip = ripOf(nextRip++, 1.0 + d.weight);
      w.intent.apply(rec);
      return "ok";
    }
    case Drift::ForgetVip: {
      if (in == nullptr) return "skip";
      IntentRecord rec;
      rec.op = IntentOp::RemoveVip;
      rec.vip = vip;
      w.intent.apply(rec);
      return "ok";
    }
    case Drift::Reconfigure: {
      // Re-place an intended VIP at the end of its switch's table: the
      // entries after it shift under later swap-and-pops.
      if (in == nullptr || !w.fleet.isUp(in->sw)) return "skip";
      const VipEntry* e = w.fleet.at(in->sw).findVip(vip);
      if (e == nullptr) return "skip";
      const std::vector<RipEntry> rips = e->rips;
      const AppId app = e->app;
      const SwitchId home = in->sw;
      if (!w.fleet.applyRemoveVip(home, vip, true).ok()) return "refused";
      const Status s = w.fleet.applyConfigureVip(home, vip, app);
      if (s.ok()) {
        for (const RipEntry& r : rips) (void)w.fleet.applyAddRip(home, vip, r);
      }
      return ok(s);
    }
  }
  return "?";
}

/// Builds the starting world: intended VIPs on random switches with up to
/// four RIPs, tables matching intent.
void populate(AuditWorld& w, std::uint64_t seed, std::uint32_t& nextRip) {
  std::mt19937_64 rng{seed};
  for (std::uint32_t v = 0; v < kIntended; ++v) {
    const VipId vip{v};
    const SwitchId sw{static_cast<std::uint32_t>(rng() % kSwitches)};
    IntentRecord rec;
    rec.op = IntentOp::AddVip;
    rec.vip = vip;
    rec.app = AppId{v % 7};
    rec.sw = sw;
    w.intent.apply(rec);
    ASSERT_TRUE(w.fleet.applyConfigureVip(sw, vip, rec.app).ok());
    const auto rips = rng() % 5;
    for (std::uint64_t k = 0; k < rips; ++k) {
      IntentRecord add;
      add.op = IntentOp::AddRip;
      add.vip = vip;
      add.rip = ripOf(nextRip++, 1.0 + static_cast<double>(rng() % 4));
      w.intent.apply(add);
      ASSERT_TRUE(w.fleet.applyAddRip(sw, vip, add.rip).ok());
    }
  }
}

std::vector<Drift> makeScript(std::uint64_t seed, int rounds,
                              std::size_t perRound) {
  std::mt19937_64 rng{seed};
  // Strays, moves and re-placements the most frequent: they are what
  // reorders a table under the intent pass.
  const std::vector<Drift::Kind> drawn = {
      Drift::Stray,      Drift::Stray,       Drift::Stray,
      Drift::Duplicate,  Drift::Duplicate,   Drift::WrongSwitch,
      Drift::WrongSwitch, Drift::MissingVip, Drift::OrphanRip,
      Drift::MissingRip, Drift::Weight,      Drift::Weight,
      Drift::Crash,      Drift::Recover,     Drift::Recover,
      Drift::TakeOrphans, Drift::Partition,  Drift::Heal,
      Drift::Heal,       Drift::BusyCommand, Drift::IntendNew,
      Drift::IntendRip,  Drift::ForgetVip,   Drift::Reconfigure,
      Drift::Reconfigure, Drift::Reconfigure,
  };
  // Every third round draws only drift the switch pass does not act on,
  // so the intent pass starts with no repair sent and meets missing VIPs
  // and RIPs among the VIPs the switch pass found complete.
  const std::vector<Drift::Kind> quiet = {
      Drift::MissingRip, Drift::MissingRip, Drift::MissingVip,
      Drift::IntendRip,  Drift::IntendNew,  Drift::TakeOrphans,
      Drift::Recover,    Drift::Heal,
  };
  const double weights[] = {0.0, 0.5, 1.5, 3.0};
  std::vector<Drift> script;
  for (int round = 0; round < rounds; ++round) {
    const std::vector<Drift::Kind>& kinds = round % 3 == 2 ? quiet : drawn;
    for (std::size_t i = 0; i < perRound; ++i) {
      Drift d{};
      d.kind = kinds[rng() % kinds.size()];
      d.vip = static_cast<std::uint32_t>(rng() % kVipIds);
      d.sw = static_cast<std::uint32_t>(rng() % kSwitches);
      d.pick = static_cast<std::uint32_t>(rng() % 1000);
      d.weight = weights[rng() % std::size(weights)];
      script.push_back(d);
    }
  }
  return script;
}

using Row = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, int,
                       double, std::uint64_t, std::uint64_t, std::string>;

std::vector<Row> traceRows(const AuditWorld& w) {
  std::vector<Row> rows;
  for (const TraceEvent& e : w.tracer.ring().snapshot()) {
    rows.emplace_back(e.trace, e.span, e.parent, static_cast<int>(e.hop), e.at,
                      e.a, e.b, std::string(e.code));
  }
  return rows;
}

std::string tables(const AuditWorld& w) {
  std::ostringstream out;
  for (std::uint32_t s = 0; s < kSwitches; ++s) {
    const LbSwitch& sw = w.fleet.at(SwitchId{s});
    out << "sw" << s << (sw.up() ? " up:" : " down:");
    for (const VipEntry& e : sw.vips()) {
      out << " v" << e.vip.value() << "/a" << e.app.value() << "[";
      for (const RipEntry& r : e.rips) {
        out << r.rip.value() << "@" << r.weight << " ";
      }
      out << "]";
    }
    out << "\n";
  }
  w.intent.forEach([&](VipId vip, const VipIntent& in) {
    out << "intent v" << vip.value() << " sw" << in.sw.value() << " [";
    for (const RipEntry& r : in.rips) out << r.rip.value() << "@" << r.weight << " ";
    out << "]\n";
  });
  return out.str();
}

struct Counts {
  std::uint64_t rounds, last, drift, issued, succeeded, failed, placements,
      weights;
  std::map<std::string, std::uint64_t> byKind;
  bool operator==(const Counts&) const = default;
};

Counts countsOf(const Reconciler& r) {
  return {r.rounds(),           r.divergenceLastRound(),
          r.driftDetected(),    r.repairsIssued(),
          r.repairsSucceeded(), r.repairsFailed(),
          r.placementsAdopted(), r.weightsAdopted(),
          {r.driftByKind().begin(), r.driftByKind().end()}};
}

Counts countsOf(const TwoPassAudit& r) {
  return {r.rounds_,           r.lastRoundDrift_,    r.driftDetected_,
          r.repairsIssued_,    r.repairsSucceeded_,  r.repairsFailed_,
          r.placementsAdopted_, r.weightsAdopted_,   r.driftByKind_};
}

TEST(ReconcilerOracle, OneResolutionAuditMatchesTwoPassAudit) {
  const std::uint64_t base = oracleSeed();
  SCOPED_TRACE("MDC_CHAOS_SEED=" + std::to_string(base));
  constexpr int kWorlds = 24;
  constexpr int kRounds = 8;
  constexpr std::size_t kDriftsPerRound = 10;
  std::uint64_t appliedByKind[kDriftKinds] = {};
  std::map<std::string, std::uint64_t> seenKinds;
  std::uint64_t adoptions = 0;
  for (int world = 0; world < kWorlds; ++world) {
    const std::uint64_t seed = base * 1000 + static_cast<std::uint64_t>(world);
    SCOPED_TRACE("world " + std::to_string(world));
    AuditWorld one{false};
    AuditWorld two{true};
    std::uint32_t ripsOne = 1000;
    std::uint32_t ripsTwo = 1000;
    populate(one, seed, ripsOne);
    populate(two, seed, ripsTwo);
    const std::vector<Drift> script =
        makeScript(seed ^ 0xd21f7, kRounds, kDriftsPerRound);
    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      for (std::size_t k = 0; k < kDriftsPerRound; ++k) {
        const Drift& d = script[static_cast<std::size_t>(round) *
                                    kDriftsPerRound +
                                k];
        const std::string a = apply(one, d, ripsOne);
        ASSERT_EQ(apply(two, d, ripsTwo), a);
        if (a != "skip" && a != "refused") ++appliedByKind[d.kind];
      }
      ASSERT_EQ(tables(one), tables(two));
      one.audit();
      two.audit();
      ASSERT_EQ(traceRows(one), traceRows(two));
      ASSERT_EQ(countsOf(*one.reconciler), countsOf(*two.twoPass));
      ASSERT_EQ(one.hookCalls, two.hookCalls);
      ASSERT_EQ(tables(one), tables(two));
      // Retries and timeouts of repairs stuck behind a partition.
      one.sim.runUntil(one.sim.now() + 7.0);
      two.sim.runUntil(two.sim.now() + 7.0);
      ASSERT_EQ(traceRows(one), traceRows(two));
      ASSERT_EQ(countsOf(*one.reconciler), countsOf(*two.twoPass));
      ASSERT_EQ(one.hookCalls, two.hookCalls);
    }
    for (const auto& [kind, n] : one.reconciler->driftByKind()) {
      seenKinds[kind] += n;
    }
    adoptions += one.reconciler->placementsAdopted() +
                 one.reconciler->weightsAdopted();
  }
  // The scripts reached what the suite exists to compare.
  for (const char* kind : {"stray_vip", "duplicate_vip", "wrong_switch",
                           "missing_vip", "orphan_rip", "missing_rip"}) {
    EXPECT_GT(seenKinds[kind], 0u) << kind;
  }
  EXPECT_GT(adoptions, 0u);
  EXPECT_GT(appliedByKind[Drift::Crash], 0u);
  EXPECT_GT(appliedByKind[Drift::BusyCommand], 0u);
  EXPECT_GT(appliedByKind[Drift::Reconfigure], 0u);
}

}  // namespace
}  // namespace mdc
