#include "mdc/fault/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "mdc/util/expect.hpp"

namespace mdc {
namespace {

/// Per-wave cap on each durable-state fault kind (E17): leader crashes
/// that tear or corrupt the changelog tail, and latent snapshot-image bit
/// flips.
constexpr std::uint32_t kMaxDurableFaults = 1;

/// Streams a violation into `out` — one human-readable line per defect.
class Report {
 public:
  explicit Report(std::vector<std::string>& out) : out_(out) {}
  template <typename... Parts>
  void add(Parts&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    out_.push_back(os.str());
  }

 private:
  std::vector<std::string>& out_;
};

}  // namespace

// --- ChaosStorm -----------------------------------------------------------

ChaosStorm::ChaosStorm(Options options)
    : options_(options), rng_(options.seed) {
  MDC_EXPECT(options.end > options.start, "storm window must be non-empty");
  MDC_EXPECT(options.waves > 0, "storm needs at least one wave");
  MDC_EXPECT(options.minRepairSeconds >= 0.0 &&
                 options.maxRepairSeconds >= options.minRepairSeconds,
             "bad repair-delay range");
}

void ChaosStorm::schedule(FaultInjector& injector) {
  MDC_EXPECT(waves_.empty(), "storm already scheduled");
  const SimTime waveLen = (options_.end - options_.start) /
                          static_cast<double>(options_.waves);
  auto draw = [&](std::uint32_t maxCount) {
    return static_cast<std::uint32_t>(rng_.uniformInt(maxCount + 1u));
  };
  for (std::uint32_t w = 0; w < options_.waves; ++w) {
    FaultInjector::RandomPlan plan;
    plan.start = options_.start + waveLen * static_cast<double>(w);
    plan.end = plan.start + waveLen;
    plan.switchCrashes = draw(options_.maxSwitchCrashes);
    plan.serverCrashes = draw(options_.maxServerCrashes);
    plan.linkCuts = draw(options_.maxLinkCuts);
    plan.podOutages = draw(options_.maxPodOutages);
    plan.channelPartitions = draw(options_.maxChannelPartitions);
    plan.podManagerCrashes = draw(options_.maxPodManagerCrashes);
    plan.globalManagerCrashes = draw(options_.maxGlobalManagerCrashes);
    plan.journalTornWrites = draw(kMaxDurableFaults);
    plan.journalCorruptRecords = draw(kMaxDurableFaults);
    plan.snapshotCorruptions = draw(kMaxDurableFaults);
    plan.commandStorms = draw(options_.maxCommandStorms);
    plan.stormBurst = options_.stormBurst;
    plan.stormWindowSeconds = options_.stormWindowSeconds;
    plan.repairAfter =
        rng_.uniform(options_.minRepairSeconds, options_.maxRepairSeconds);
    waves_.push_back(plan);
    injector.schedulePlan(plan);
  }
}

// --- WorldInvariants ------------------------------------------------------

WorldInvariants::WorldInvariants(const Topology& topo, const AppRegistry& apps,
                                 const AuthoritativeDns& dns,
                                 const SwitchFleet& fleet,
                                 const HostFleet& hosts,
                                 GlobalManager& manager,
                                 const HealthMonitor* health)
    : topo_(topo),
      apps_(apps),
      dns_(dns),
      fleet_(fleet),
      hosts_(hosts),
      manager_(manager),
      health_(health),
      lastTerm_(manager.term()),
      lastLeaderUp_(manager.leaderUp()) {}

std::vector<std::string> WorldInvariants::checkEpoch() {
  ++epochsChecked_;
  std::vector<std::string> out;
  checkStructural(out, /*strict=*/false);
  checkLeadership(out);
  checkAdmission(out);
  checkSessions(out);
  return out;
}

void WorldInvariants::checkSessions(std::vector<std::string>& out) {
  if (!sessionProbe_) return;
  const std::optional<SessionPlaneSample> sample = sessionProbe_();
  if (!sample.has_value()) return;
  Report report(out);
  // Conservation: every arrival is live, finished, severed, or turned
  // away — nothing leaks, even mid-crash.
  const std::uint64_t accounted =
      sample->active + sample->completed + sample->broken + sample->rejected;
  if (sample->arrivals != accounted) {
    report.add("session conservation broken: arrivals=", sample->arrivals,
               " != active+completed+broken+rejected=", accounted);
  }
  // Monotonicity of the cumulative counters between epochs.
  if (lastSession_.has_value()) {
    if (sample->arrivals < lastSession_->arrivals) {
      report.add("session arrivals went backwards: ", sample->arrivals, " < ",
                 lastSession_->arrivals);
    }
    if (sample->completed < lastSession_->completed) {
      report.add("session completions went backwards: ", sample->completed,
                 " < ", lastSession_->completed);
    }
    if (sample->broken < lastSession_->broken) {
      report.add("session breaks went backwards: ", sample->broken, " < ",
                 lastSession_->broken);
    }
    if (sample->rejected < lastSession_->rejected) {
      report.add("session rejections went backwards: ", sample->rejected,
                 " < ", lastSession_->rejected);
    }
  }
  lastSession_ = sample;
}

std::vector<std::string> WorldInvariants::checkQuiesced() const {
  std::vector<std::string> out;
  Report report(out);
  checkStructural(out, /*strict=*/true);
  checkAdmission(out);

  // Nothing may still be in flight: the serialized queue is drained, no
  // command is awaiting an ack, and no recovery work is pending.
  const VipRipManager& viprip = manager_.viprip();
  if (!viprip.online()) report.add("viprip manager offline at quiesce");
  if (viprip.queueLength() != 0) {
    report.add("viprip queue not drained: ", viprip.queueLength());
  }
  if (viprip.ctrlSender().inflight() != 0) {
    report.add("commands still in flight: ", viprip.ctrlSender().inflight());
  }
  if (fleet_.pendingOrphans() != 0) {
    report.add("orphaned vips never recovered: ", fleet_.pendingOrphans());
  }
  if (!hosts_.crashCasualties().empty()) {
    report.add("crash casualties never cleaned up");
  }
  if (health_ != nullptr) {
    if (health_->pendingVipRestores() != 0) {
      report.add("vip restores still pending: ",
                 health_->pendingVipRestores());
    }
    if (health_->pendingVmCleanups() != 0) {
      report.add("vm cleanups still pending: ", health_->pendingVmCleanups());
    }
  }
  if (!manager_.leaderUp()) report.add("no leader at quiesce");

  // Exactly-once convergence: intent == actual, VIP for VIP, RIP for RIP.
  const IntentStore& intent = viprip.intent();
  intent.forEach([&](VipId vip, const VipIntent& vi) {
    const std::vector<SwitchId> hosts = fleet_.hostsOf(vip);
    if (hosts.size() != 1) {
      report.add("vip ", vip, " hosted by ", hosts.size(),
                 " switches (want exactly 1)");
      return;
    }
    if (hosts.front() != vi.sw) {
      report.add("vip ", vip, " lives on ", hosts.front(), " but intent says ",
                 vi.sw);
      return;
    }
    const VipEntry* entry = fleet_.at(vi.sw).findVip(vip);
    MDC_ENSURE(entry != nullptr, "hostsOf lists a switch without the vip");
    if (entry->rips.size() != vi.rips.size()) {
      report.add("vip ", vip, " has ", entry->rips.size(), " actual rips vs ",
                 vi.rips.size(), " intended");
    }
    for (const RipEntry& actual : entry->rips) {
      const RipEntry* want = vi.findRip(actual.rip);
      if (want == nullptr) {
        report.add("vip ", vip, " rip ", actual.rip,
                   " present on switch but not intended (duplicate or leak)");
      } else if (std::abs(want->weight - actual.weight) > 1e-9) {
        report.add("vip ", vip, " rip ", actual.rip, " weight ", actual.weight,
                   " != intended ", want->weight);
      }
    }
    for (const RipEntry& want : vi.rips) {
      if (entry->findRip(want.rip) == nullptr) {
        report.add("vip ", vip, " rip ", want.rip, " intended but lost");
      }
    }
  });
  fleet_.forEach([&](const LbSwitch& sw) {
    for (const VipEntry& e : sw.vips()) {
      if (intent.find(e.vip) == nullptr) {
        report.add("switch ", sw.id(), " hosts stray vip ", e.vip,
                   " with no intent");
      }
    }
  });
  return out;
}

void WorldInvariants::checkStructural(std::vector<std::string>& out,
                                      bool strict) const {
  Report report(out);

  // Recovery work that is provably in flight excuses the two transient
  // defects below; with no health monitor there is no such excuse.
  const bool cleanupInFlight =
      !strict && (!hosts_.crashCasualties().empty() ||
                  (health_ != nullptr && health_->pendingVmCleanups() > 0));

  // (1) Every RIP on every up switch references a live VM (or an m-VIP).
  // Mid-storm two transient shapes are excused: a dead VM's RIPs linger
  // while the health monitor's purge is detectably pending, and a
  // reordered late-landing command can resurrect a RIP the intent no
  // longer carries (reconciler-visible drift that the next audit
  // removes).  What is *never* excused is a dangling RIP that intent and
  // actual agree on with no cleanup pending — that is reconciler-blind
  // and would be leaked forever.
  const IntentStore& intent = manager_.viprip().intent();
  fleet_.forEach([&](const LbSwitch& sw) {
    if (!sw.up()) return;  // a down switch has no actual table to audit
    for (const VipEntry& e : sw.vips()) {
      const VipIntent* vi = intent.find(e.vip);
      for (const RipEntry& r : e.rips) {
        if (!r.targetsVm() || hosts_.vmExists(r.vm)) continue;
        const bool reconcilerBlind =
            vi != nullptr && vi->findRip(r.rip) != nullptr;
        if (strict || (reconcilerBlind && !cleanupInFlight)) {
          report.add("switch ", sw.id(), " vip ", e.vip, " rip ", r.rip,
                     " references destroyed vm ", r.vm,
                     reconcilerBlind ? " (reconciler-blind)" : "");
        }
      }
    }
  });

  // (2) Every DNS-exposed VIP (weight > 0) is hosted and backed.  An
  // orphan of a crashed switch is excused until detection zeroes its
  // weight; a VIP with a command mid-flight is excused until it lands.
  const CommandSender& sender = manager_.viprip().ctrlSender();
  for (const Application& a : apps_.all()) {
    if (!dns_.hasApp(a.id)) continue;
    for (const VipWeight& vw : dns_.vips(a.id)) {
      if (vw.weight <= 0.0) continue;
      if (!strict && (fleet_.isOrphaned(vw.vip) || sender.vipBusy(vw.vip))) {
        continue;
      }
      const auto owner = fleet_.ownerOf(vw.vip);
      if (!owner.has_value()) {
        report.add("exposed vip ", vw.vip, " of app ", a.id,
                   " hosted nowhere");
        continue;
      }
      if (!fleet_.isUp(*owner)) {
        report.add("exposed vip ", vw.vip, " hosted on down switch ", *owner);
        continue;
      }
      const VipEntry* e = fleet_.at(*owner).findVip(vw.vip);
      MDC_ENSURE(e != nullptr, "ownerOf lists a switch without the vip");
      bool backed = false;
      for (const RipEntry& r : e->rips) {
        if (!r.targetsVm() || hosts_.vmExists(r.vm)) {
          backed = true;
          break;
        }
      }
      if (backed) continue;
      // Unbacked but drifted from intent: the next audit converges the
      // table (re-adds intended RIPs / removes resurrected ones) and
      // re-syncs the DNS weight, so mid-storm it only counts as a
      // violation when intent and actual agree on the dead state.
      bool drifted = false;
      if (!strict) {
        const VipIntent* vi = manager_.viprip().intent().find(vw.vip);
        if (vi == nullptr || vi->rips.size() != e->rips.size()) {
          drifted = true;
        } else {
          for (const RipEntry& r : e->rips) {
            if (vi->findRip(r.rip) == nullptr) {
              drifted = true;
              break;
            }
          }
        }
      }
      if (!(cleanupInFlight && !e->rips.empty()) && !drifted) {
        report.add("exposed vip ", vw.vip, " of app ", a.id,
                   e->rips.empty() ? " has no rips" : " has only dead rips");
      }
    }
  }

  // (3) Ownership index agrees with the switch tables.
  fleet_.forEach([&](const LbSwitch& sw) {
    for (const VipEntry& e : sw.vips()) {
      const auto owner = fleet_.ownerOf(e.vip);
      if (!owner.has_value()) {
        report.add("vip ", e.vip, " on switch ", sw.id(),
                   " missing from index");
      } else if (*owner != sw.id() &&
                 // Two live copies (a retried command landed twice) keep
                 // one index entry; mid-storm that is the reconciler's
                 // cleanup, not an index bug.
                 (strict || !fleet_.at(*owner).hasVip(e.vip))) {
        report.add("vip ", e.vip, " on switch ", sw.id(), " indexed to ",
                   *owner);
      }
    }
  });

  // (4) Per-server used capacity equals the sum of resident VM slices.
  for (const ServerInfo& s : topo_.servers()) {
    CapacityVec sum;
    for (VmId vm : hosts_.vmsOn(s.id)) {
      if (hosts_.vmExists(vm)) sum += hosts_.vm(vm).slice;
    }
    const CapacityVec used = hosts_.usedCapacity(s.id);
    if (std::abs(used.cpu() - sum.cpu()) > 1e-6 ||
        std::abs(used.memory() - sum.memory()) > 1e-6 ||
        std::abs(used.network() - sum.network()) > 1e-6) {
      report.add("server ", s.id, " capacity accounting off: used ",
                 used.cpu(), "/", used.memory(), "/", used.network(),
                 " vs resident ", sum.cpu(), "/", sum.memory(), "/",
                 sum.network());
    }
  }

  // (5) App instance lists reference live VMs of that app.
  for (const Application& a : apps_.all()) {
    for (VmId vm : a.instances) {
      if (!hosts_.vmExists(vm)) continue;  // retiring
      if (hosts_.vm(vm).app != a.id) {
        report.add("app ", a.id, " lists instance ", vm, " owned by app ",
                   hosts_.vm(vm).app);
      }
    }
  }
}

void WorldInvariants::checkAdmission(std::vector<std::string>& out) const {
  Report report(out);
  const AdmissionController& adm = manager_.viprip().admission();
  // Load shedding must never touch the repair path: a shed RestoreVip
  // would strand an orphaned VIP, a shed cleanup would leak its RIPs.
  // (The structural checks above would eventually catch the stranding
  // itself; this catches the cause at the admission layer.)
  if (adm.shedOf(AdmissionClass::Critical) != 0) {
    report.add("critical (repair/restore) requests shed: ",
               adm.shedOf(AdmissionClass::Critical));
  }
}

void WorldInvariants::checkLeadership(std::vector<std::string>& out) {
  Report report(out);
  const std::uint64_t term = manager_.term();
  const bool up = manager_.leaderUp();

  // At most two logical instances exist; at most one can lead.
  if (manager_.aliveManagers() > 2) {
    report.add("more than two manager instances alive: ",
               manager_.aliveManagers());
  }
  // Fencing terms never move backwards.
  if (term < lastTerm_) {
    report.add("fencing term went backwards: ", lastTerm_, " -> ", term);
  }
  // A takeover must happen under a strictly higher term than the one the
  // dead leader held — two leaders can never share a term.
  if (up && !lastLeaderUp_ && term <= termWhenDown_) {
    report.add("new leader under non-advanced term ", term,
               " (leader died holding term ", termWhenDown_, ")");
  }
  if (!up && lastLeaderUp_) termWhenDown_ = lastTerm_;

  // Failover-bound accounting: count leaderless runs only while a
  // standby exists to promote (with no standby there is no bound).
  if (!up) {
    ++leaderlessEpochs_;
    if (manager_.aliveManagers() >= 1) {
      ++curLeaderlessRun_;
      maxLeaderlessRun_ = std::max(maxLeaderlessRun_, curLeaderlessRun_);
    } else {
      curLeaderlessRun_ = 0;
    }
  } else {
    curLeaderlessRun_ = 0;
  }

  lastTerm_ = term;
  lastLeaderUp_ = up;
}

}  // namespace mdc
