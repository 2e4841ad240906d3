#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "mdc/sim/rng.hpp"

namespace e2e {

using namespace mdc;
using Clock = std::chrono::steady_clock;

namespace {

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double since(Clock::time_point start) { return seconds(Clock::now() - start); }

double before(SimTime t) {
  return std::nextafter(t, -std::numeric_limits<double>::infinity());
}

double ratio(double num, double den, double ifEmpty) {
  return den > 0.0 ? num / den : ifEmpty;
}

double u(std::uint64_t v) { return static_cast<double>(v); }

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
}

/// 1-based nearest rank of the p-th percentile of n samples, in integer
/// arithmetic on hundredths of a percent (99.9% of 10000 is rank 9990;
/// the same product in floating point rounds up to 9991).
std::size_t nearestRank(double p, std::size_t n) {
  const auto hundredths =
      static_cast<std::size_t>(std::llround(std::clamp(p, 0.0, 100.0) * 100));
  return std::max<std::size_t>(1, (hundredths * n + 9'999) / 10'000);
}

}  // namespace

// --- statistics ---------------------------------------------------------

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearestRank(p, samples.size()) - 1];
}

Tail tailOf(const std::vector<double>& samples) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  for (double p : kLadder) {
    // Samples strictly beyond the nearest-rank p-th percentile.
    if (samples.size() - nearestRank(p, samples.size()) >= 10) {
      t.pct = p;
      t.value = percentile(samples, p);
      return t;
    }
  }
  t.pct = 100.0;
  t.value = *std::max_element(samples.begin(), samples.end());
  return t;
}

// --- periodic loops -----------------------------------------------------

std::vector<Firing> firingSchedule(const MegaDcConfig& cfg, std::size_t pods,
                                   SimTime started, SimTime after,
                                   SimTime until) {
  struct Periodic {
    Loop loop;
    SimTime phase;
    SimTime period;
    std::uint32_t pod;
  };
  // Registration mirrors MegaDc::start(): GlobalManager::start(), then
  // the session and engine loops, then the health monitor.
  const auto& m = cfg.manager;
  std::vector<Periodic> loops;
  if (m.enableInterPodBalancer && pods > 0) {
    loops.push_back({Loop::InterPod, m.interPod.period * 0.5,
                     m.interPod.period, 0});
  }
  if (m.enablePodLoops) {
    double phase = 0.0;
    for (std::uint32_t p = 0; p < pods; ++p) {
      loops.push_back({Loop::Pod, phase, m.pod.controlPeriod, p});
      phase += m.pod.controlPeriod / (static_cast<double>(pods) + 1.0);
    }
  }
  if (m.enableLinkBalancer) {
    loops.push_back({Loop::LinkBalancer, m.link.period * 0.25,
                     m.link.period, 0});
  }
  if (m.enableSwitchBalancer) {
    loops.push_back({Loop::SwitchBalancer, m.switchBalancer.period * 0.75,
                     m.switchBalancer.period, 0});
  }
  if (m.enableReconciler) {
    loops.push_back({Loop::Reconciler, m.reconciler.periodSeconds * 0.4,
                     m.reconciler.periodSeconds, 0});
  }
  if (m.failover.enable) {
    loops.push_back({Loop::Lease, 0.0, m.failover.renewSeconds, 0});
  }
  if (m.snapshot.enable) {
    loops.push_back({Loop::Snapshot, m.snapshot.periodSeconds * 0.6,
                     m.snapshot.periodSeconds, 0});
  }
  if (cfg.enableSessionEngine) {
    loops.push_back({Loop::Session, 0.0, cfg.session.tick, 0});
  }
  loops.push_back({Loop::Engine, 0.0, cfg.engine.epoch, 0});
  if (cfg.enableHealthMonitor) {
    loops.push_back({Loop::Health, 0.25 * cfg.health.heartbeatInterval,
                     cfg.health.heartbeatInterval, 0});
  }

  std::map<SimTime, Firing> byTime;
  for (const Periodic& p : loops) {
    for (SimTime t = started + p.phase; t <= until; t = t + p.period) {
      if (t <= after) continue;
      Firing& f = byTime[t];
      f.at = t;
      f.loops |= bit(p.loop);
      if (p.loop == Loop::Pod) f.pods.push_back(p.pod);
    }
  }
  std::vector<Firing> out;
  out.reserve(byTime.size());
  for (auto& [t, f] : byTime) out.push_back(std::move(f));
  return out;
}

// --- worlds -------------------------------------------------------------

World::World(const Workload& w, Mark* firingMark) {
  const MegaDcConfig& cfg = w.config;
  auto t = Clock::now();
  dc_ = std::make_unique<MegaDc>(cfg);
  // The seed jitters each app's Zipf rate by up to kRateJitter either
  // way.  It keeps the popularity ranking's shape: a permutation of the
  // ranks instead moved placement cost by 5x between seeds.
  constexpr double kRateJitter = 0.1;
  std::vector<double> rates =
      zipfBaseRates(cfg.numApps, cfg.zipfAlpha, cfg.totalDemandRps);
  Rng rng(w.seed * 0x2545f4914f6cdd1dull + 0xe20u);
  for (double& r : rates) r *= 1.0 + kRateJitter * rng.uniform(-1.0, 1.0);
  for (std::uint32_t a = 0; a < cfg.numApps; ++a) {
    dc_->apps.appMutable(AppId{a}).baseRps = rates[a];
  }
  if (w.diurnal) {
    // Fixed per-app phases: the top apps' phases set the aggregate's
    // shape, and seeded phases moved served_ratio between 0.86 and 0.93
    // over twenty seeds.
    constexpr std::uint64_t kPhaseSeed = 0xd1u;
    dc_->setDemandModel(std::make_unique<DiurnalDemand>(
        std::move(rates), 0.5, 600.0, kPhaseSeed));
  } else {
    dc_->setDemandModel(std::make_unique<StaticDemand>(std::move(rates)));
  }
  setup_.construct = since(t);

  // MegaDc::bootstrap(), split so each part is timed.
  t = Clock::now();
  dc_->deployAllApps();
  setup_.deploy = since(t);

  t = Clock::now();
  const SimTime warmup =
      std::max({10.0, cfg.hostCosts.vmCloneSeconds + 1.0,
                cfg.routePropagationDelay + 1.0});
  dc_->sim.runUntil(dc_->sim.now() + warmup);
  started_ = dc_->sim.now();
  dc_->start();
  setup_.warmup = since(t);
  if (firingMark != nullptr) {
    Simulation& sim = dc_->sim;
    for (const Firing& f :
         firingSchedule(dc_->config(), dc_->manager->pods().size(), started_,
                        before(started_), started_ + w.horizon())) {
      sim.at(f.at, [&sim, firingMark] {
        *firingMark = Mark{sim.now(), Clock::now(), sim.eventsExecuted(),
                           firingMark->runs + 1};
      });
    }
  }

  if (w.faults != Faults::None) {
    // bench_e16's bootstrap drain: start the window with an empty queue.
    t = Clock::now();
    const SimTime cap = dc_->sim.now() + kDrainCapSeconds;
    while (dc_->manager->viprip().queueLength() > 0 && dc_->sim.now() < cap) {
      dc_->runUntil(dc_->sim.now() + 5.0);
      startPending_ = false;
    }
    setup_.drain = since(t);
  }

  inv_ = std::make_unique<WorldInvariants>(dc_->topo, dc_->apps, dc_->dns,
                                           dc_->fleet, dc_->hosts,
                                           *dc_->manager, dc_->health.get());
  if (dc_->sessions) {
    inv_->attachSessionProbe([this]() -> std::optional<SessionPlaneSample> {
      const SessionEngine& s = *dc_->sessions;
      return SessionPlaneSample{s.totalArrivals(), s.activeSessions(),
                                s.completedSessions(), s.brokenSessions(),
                                s.rejectedSessions()};
    });
  }
}

// --- repetitions --------------------------------------------------------

namespace {

/// Public counters of every layer, read between runUntil() stops.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t recomputed = 0, fromCache = 0;
  std::uint64_t arrivals = 0, rejectedSessions = 0, brokenSessions = 0;
  std::uint64_t admitted = 0, coalesced = 0, shed = 0, evictions = 0;
  std::uint64_t expired = 0, deferred = 0, rounds = 0;
  std::uint64_t processed = 0, rejected = 0, cancelled = 0;
  std::uint64_t cmdSent = 0, retransmits = 0, timeouts = 0, dropped = 0;
  std::uint64_t drift = 0, repairs = 0;
  std::uint64_t changelogEnd = 0, snapshots = 0, recoveries = 0;
  std::uint64_t replayed = 0;
  std::uint64_t failuresDetected = 0, vipsRestored = 0, restoreRetries = 0;
  double unavailability = 0.0;
  std::uint64_t failovers = 0;

  static Counters read(MegaDc& dc) {
    Counters c;
    c.events = dc.sim.eventsExecuted();
    c.recomputed = dc.engine->appsRecomputed();
    c.fromCache = dc.engine->appsFromCache();
    if (dc.sessions) {
      c.arrivals = dc.sessions->totalArrivals();
      c.rejectedSessions = dc.sessions->rejectedSessions();
      c.brokenSessions = dc.sessions->brokenSessions();
    }
    const VipRipManager& vr = dc.manager->viprip();
    const AdmissionController& adm = vr.admission();
    c.admitted = adm.admitted();
    c.coalesced = adm.coalesced();
    c.shed = adm.shed();
    c.evictions = adm.evictions();
    c.expired = adm.deadlineExpired();
    c.deferred = adm.conflictDeferred();
    c.rounds = adm.rounds();
    c.processed = vr.processedRequests();
    c.rejected = vr.rejectedRequests();
    c.cancelled = vr.cancelledRequests();
    c.cmdSent = vr.ctrlSender().commandsSent();
    c.retransmits = vr.ctrlSender().retransmits();
    c.timeouts = vr.ctrlSender().timeouts();
    c.dropped = vr.ctrlChannel().messagesDropped();
    if (const Reconciler* rec = vr.reconciler()) {
      c.drift = rec->driftDetected();
      c.repairs = rec->repairsIssued();
    }
    auto& machine = dc.manager->viprip().stateMachine();
    c.changelogEnd = machine.changelog().endIndex();
    c.snapshots = machine.snapshotsTaken();
    c.recoveries = machine.recoveries();
    c.replayed = machine.replayedRecordsTotal();
    if (dc.health) {
      c.failuresDetected = dc.health->switchFailuresDetected() +
                           dc.health->serverFailuresDetected() +
                           dc.health->podFailuresDetected();
      c.vipsRestored = dc.health->vipsRestored();
      c.restoreRetries = dc.health->restoreRetries();
      c.unavailability = dc.health->unavailabilityRpsSeconds();
    }
    c.failovers = dc.manager->failovers();
    return c;
  }
};

/// VIP/RIP requests that reached a terminal state between two reads:
/// completed (ok or not), merged into a queued request, shed, or
/// cancelled by a manager crash.
std::uint64_t terminalRequests(const Counters& a, const Counters& b) {
  return (b.processed - a.processed) + (b.coalesced - a.coalesced) +
         (b.shed - a.shed) + (b.cancelled - a.cancelled);
}

/// Those that ended other than ok: rejected (deadline expiry included),
/// shed, or cancelled.
std::uint64_t failedRequests(const Counters& a, const Counters& b) {
  return (b.rejected - a.rejected) + (b.shed - a.shed) +
         (b.cancelled - a.cancelled);
}

/// Sessions that were rejected at arrival or broken before their end.
std::uint64_t lostSessions(const Counters& a, const Counters& b) {
  return (b.rejectedSessions - a.rejectedSessions) +
         (b.brokenSessions - a.brokenSessions);
}

/// The storm workload's storm: eight equal waves, each with one server
/// crash and a fixed set of other faults that cycles every four waves
/// (every kind of the injector's repertoire appears twice or four times),
/// plus one leader crash 37 s in, so failover runs under every seed.
/// ChaosStorm draws each wave's counts uniformly instead, which moved
/// served_ratio between 0.87 and 0.99 across seeds; here the seed only
/// picks targets and times, through the injector's seeded stream.
void scheduleStorm(FaultInjector& faults, SimTime start, SimTime length) {
  constexpr std::uint32_t kWaves = 8;
  constexpr SimTime kRepairSeconds = 15.0;
  const SimTime wave = length / kWaves;
  for (std::uint32_t i = 0; i < kWaves; ++i) {
    FaultInjector::RandomPlan p;
    p.start = start + wave * i;
    p.end = p.start + wave;
    p.repairAfter = kRepairSeconds;
    p.serverCrashes = 1;
    switch (i % 4) {
      case 0:
        p.switchCrashes = 1;
        p.globalManagerCrashes = 1;
        p.commandStorms = 1;
        break;
      case 1:
        p.linkCuts = 1;
        p.podOutages = 1;
        p.journalTornWrites = 1;
        break;
      case 2:
        p.switchCrashes = 1;
        p.channelPartitions = 1;
        p.podManagerCrashes = 1;
        p.commandStorms = 1;
        break;
      default:
        p.podOutages = 1;
        p.journalCorruptRecords = 1;
        p.snapshotCorruptions = 1;
        break;
    }
    faults.schedulePlan(p);
  }
  faults.crashGlobalManager(start + 37.0, kRepairSeconds);
}

/// Per-epoch samples and a faulted window's progress.
struct EpochTally {
  double served = 0.0;
  double demand = 0.0;
  double depthSum = 0.0;
  std::size_t epochs = 0;
  std::size_t depthMax = 0;
  std::uint64_t activePeak = 0;
  bool healed = false;
  SimTime quiescedAt = -1.0;
  std::uint32_t leaderCrashes = 0;
};

/// The window: where it ends and what happens at each epoch boundary.
/// Shared by traced and untraced repetitions so both stop, check and
/// mutate the world at exactly the same sim times.
class Window {
 public:
  Window(const Workload& w, World& world) : w_(w), world_(world) {
    MegaDc& dc = world.dc();
    start_ = dc.sim.now();
    const SimTime epoch = dc.config().engine.epoch;
    SimTime horizon = 0.0;
    if (w.faults != Faults::None) {
      faultStart_ = start_ + w.calmBefore;
      faultEnd_ = faultStart_ + w.faultSeconds;
      timedEnd_ = faultEnd_ + w.timedAfter;
      horizon = faultEnd_ + w.recoveryCap;
      if (w.faults == Faults::Storm) {
        scheduleStorm(*dc.faults, faultStart_, w.faultSeconds);
      }
    } else {
      horizon = start_ + (w.windowEpochs + 1) * epoch;
    }
    const SimTime after = world.startPending() ? before(start_) : start_;
    schedule_ = firingSchedule(dc.config(), dc.manager->pods().size(),
                               world.started(), after, horizon);
    if (w.faults == Faults::None) {
      // The window ends at the windowEpochs-th engine step after the one
      // at start().
      std::uint32_t seen = 0;
      for (const Firing& f : schedule_) {
        if ((f.loops & bit(Loop::Engine)) == 0) continue;
        if (seen++ == w.windowEpochs) {
          end_ = f.at;
          break;
        }
      }
      timedEnd_ = end_;
    }
  }

  [[nodiscard]] const std::vector<Firing>& schedule() const {
    return schedule_;
  }
  [[nodiscard]] SimTime start() const { return start_; }
  /// End of the timed part: the window end, or a fixed time after the
  /// faults (the quiesce after them varies by seed).
  [[nodiscard]] SimTime timedEnd() const { return timedEnd_; }
  [[nodiscard]] std::uint64_t reportHash() const { return reportHash_; }
  [[nodiscard]] std::size_t epochs() const { return tally_.epochs; }

  /// Bookkeeping at an engine boundary (outside any timed region).
  /// Returns true when the window has ended.
  bool epoch(SimTime at, std::vector<std::string>& violations) {
    MegaDc& dc = world_.dc();
    const EpochReport& rep = dc.engine->latest();
    reportHash_ = mix(reportHash_, hashEpochReport(rep));
    tally_.served += rep.totalServedRps();
    tally_.demand += rep.totalDemandRps();
    const std::size_t depth = dc.manager->viprip().queueLength();
    tally_.depthSum += static_cast<double>(depth);
    tally_.depthMax = std::max(tally_.depthMax, depth);
    ++tally_.epochs;
    if (dc.sessions) {
      tally_.activePeak =
          std::max(tally_.activePeak, dc.sessions->activeSessions());
    }
    if (w_.faults == Faults::None) {
      if (at < end_) return false;
      append(violations, world_.invariants().checkEpoch());
      return true;
    }
    append(violations, world_.invariants().checkEpoch());
    if (!tally_.healed) {
      if (w_.faults == Faults::Failover) crashWhenQuiet(at);
      if (at >= faultEnd_) {
        if (tally_.leaderCrashes < w_.leaderCrashes) {
          violations.push_back(
              "failover: " + std::to_string(tally_.leaderCrashes) + " of " +
              std::to_string(w_.leaderCrashes) +
              " leader crashes found an idle command plane");
        }
        // Quiesce: heal the channel, let repairs and anti-entropy converge.
        dc.manager->viprip().ctrlChannel().setFaults(ChannelFaults{});
        tally_.healed = true;
      }
      return false;
    }
    if (tally_.quiescedAt < 0.0) {
      const std::vector<std::string> open = world_.invariants().checkQuiesced();
      if (open.empty()) {
        tally_.quiescedAt = at;
      } else if (at >= faultEnd_ + w_.recoveryCap) {
        violations.push_back(w_.name + ": not quiesced " +
                             std::to_string(w_.recoveryCap) +
                             " sim-s after the faults");
        for (const std::string& v : open) violations.push_back("  " + v);
        return true;
      }
    }
    // The window covers at least the timed part, and the quiesce.
    return tally_.quiescedAt >= 0.0 && at >= timedEnd_;
  }

  /// Simulated outputs of the finished window.
  [[nodiscard]] Metrics model(const Counters& a, const Counters& b) {
    MegaDc& dc = world_.dc();
    Metrics m;
    auto put = [&m](const char* name, double v, const char* unit) {
      m[name] = Metric{v, unit};
    };
    const double arrivals = u(b.arrivals - a.arrivals);
    const double lost = u(lostSessions(a, b));
    const double recomputed = u(b.recomputed - a.recomputed);
    const double cached = u(b.fromCache - a.fromCache);
    put("served_ratio", ratio(tally_.served, tally_.demand, 1.0), "ratio");
    put("ctrl.admission.backlog_mean",
        ratio(tally_.depthSum, static_cast<double>(tally_.epochs), 0.0),
        "requests");
    put("ctrl.admission.depth_max", static_cast<double>(tally_.depthMax),
        "requests");
    put("scenario.session.ok_ratio", ratio(arrivals - lost, arrivals, 1.0),
        "ratio");
    put("fault.recovery_s",
        tally_.quiescedAt >= 0.0 ? tally_.quiescedAt - faultEnd_ : 0.0,
        "sim_s");
    put("sim.events", u(b.events - a.events), "count");
    put("scenario.engine.apps_recomputed", recomputed, "count");
    put("scenario.engine.cache_hit_ratio",
        ratio(cached, cached + recomputed, 0.0), "ratio");
    put("scenario.session.arrivals", arrivals, "count");
    put("scenario.session.active_peak", u(tally_.activePeak), "count");
    put("scenario.session.rejected",
        u(b.rejectedSessions - a.rejectedSessions), "count");
    put("scenario.session.broken", u(b.brokenSessions - a.brokenSessions),
        "count");
    put("scenario.session.drain_p99_s",
        dc.sessions ? dc.sessions->drainP99Seconds() : 0.0, "sim_s");
    std::uint64_t podFirings = 0;
    for (const Firing& f : schedule_) {
      if (f.at > dc.sim.now()) break;
      podFirings += f.pods.size();
    }
    put("core.pod.firings", u(podFirings), "count");
    put("host.vms_end", u(dc.hosts.activeVmCount()), "count");
    put("ctrl.admission.submitted",
        u(b.admitted - a.admitted) + u(b.coalesced - a.coalesced) +
            u(b.shed - a.shed) - u(b.evictions - a.evictions),
        "count");
    put("ctrl.admission.admitted", u(b.admitted - a.admitted), "count");
    put("ctrl.admission.rounds", u(b.rounds - a.rounds), "count");
    put("ctrl.admission.coalesced", u(b.coalesced - a.coalesced), "count");
    put("ctrl.admission.conflict_deferred", u(b.deferred - a.deferred),
        "count");
    put("ctrl.admission.shed", u(b.shed - a.shed), "count");
    put("ctrl.admission.expired", u(b.expired - a.expired), "count");
    put("ctrl.cmd.sent", u(b.cmdSent - a.cmdSent), "count");
    put("ctrl.cmd.retransmits", u(b.retransmits - a.retransmits), "count");
    put("ctrl.cmd.timeouts", u(b.timeouts - a.timeouts), "count");
    put("ctrl.channel.dropped", u(b.dropped - a.dropped), "count");
    put("ctrl.reconciler.drift", u(b.drift - a.drift), "count");
    put("ctrl.reconciler.repairs", u(b.repairs - a.repairs), "count");
    put("state.changelog_records",
        static_cast<double>(static_cast<std::int64_t>(b.changelogEnd) -
                            static_cast<std::int64_t>(a.changelogEnd)),
        "count");
    put("state.snapshots", u(b.snapshots - a.snapshots), "count");
    put("state.recoveries", u(b.recoveries - a.recoveries), "count");
    put("state.replayed_records", u(b.replayed - a.replayed), "count");
    put("fault.failures_detected",
        u(b.failuresDetected - a.failuresDetected), "count");
    put("fault.vips_restored", u(b.vipsRestored - a.vipsRestored), "count");
    put("fault.restore_retries", u(b.restoreRetries - a.restoreRetries),
        "count");
    put("fault.unavailability_rps_s", b.unavailability - a.unavailability,
        "rps_s");
    put("core.manager.failovers", u(b.failovers - a.failovers), "count");
    return m;
  }

 private:
  static void append(std::vector<std::string>& out,
                     std::vector<std::string> more) {
    for (std::string& s : more) out.push_back(std::move(s));
  }

  /// Failover: injects the next leader crash once it is due, at the first
  /// epoch boundary where no VIP/RIP request is queued or in flight and a
  /// standby is up.  Only the balancers and the reconciler submit in this
  /// world, and both pause while no leader is up, so the crash cancels no
  /// request and none is refused before the standby takes over.  Crashes
  /// alternate between a plain crash, a torn journal tail, a crash after
  /// the newest snapshot is corrupted, and a corrupt journal record.
  void crashWhenQuiet(SimTime at) {
    constexpr SimTime kReviveAfter = 15.0;
    const std::uint32_t i = tally_.leaderCrashes;
    const SimTime due = faultStart_ + w_.faultSeconds * i /
                                          static_cast<double>(w_.leaderCrashes);
    GlobalManager& gm = *world_.dc().manager;
    const VipRipManager& vr = gm.viprip();
    if (i >= w_.leaderCrashes || at < due || !gm.leaderUp() ||
        gm.aliveManagers() < 2 || vr.queueLength() > 0 ||
        vr.ctrlSender().inflight() > 0) {
      return;
    }
    FaultInjector& faults = *world_.dc().faults;
    switch (i % 4) {
      case 0:
        faults.crashGlobalManager(at, kReviveAfter);
        break;
      case 1:
        faults.tornJournalWrite(at, kReviveAfter);
        break;
      case 2:
        faults.corruptSnapshot(at);
        faults.crashGlobalManager(at, kReviveAfter);
        break;
      default:
        faults.corruptJournalRecord(at, kReviveAfter);
        break;
    }
    ++tally_.leaderCrashes;
  }

  const Workload& w_;
  World& world_;
  std::uint64_t reportHash_ = 0;
  std::vector<Firing> schedule_;
  SimTime start_ = 0.0;
  SimTime end_ = 0.0;
  SimTime timedEnd_ = 0.0;
  SimTime faultStart_ = 0.0;
  SimTime faultEnd_ = 0.0;
  EpochTally tally_;
};

/// Request and command spans read back from the tracer's ring.
class SpanTally {
 public:
  void drain(TraceRing& ring, std::vector<std::string>& violations) {
    if (ring.overwritten() > 0 && !overflowed_) {
      overflowed_ = true;
      violations.push_back("trace ring overflowed between two slices");
    }
    for (const TraceEvent& e : ring.snapshot()) {
      switch (e.hop) {
        case HopKind::RequestSubmitted:
          submitted_[e.trace] = e.at;
          break;
        case HopKind::RequestApplied:
          if (const auto it = submitted_.find(e.trace);
              it != submitted_.end()) {
            wait.push_back(e.at - it->second);
          }
          break;
        case HopKind::RequestDone:
          if (const auto it = submitted_.find(e.trace);
              it != submitted_.end()) {
            // A coalesced SetWeight rides on the queued request it merged
            // into; that request's own completion is the one measured.
            if (std::strcmp(e.code, "coalesced") != 0) {
              latency.push_back(e.at - it->second);
            }
            submitted_.erase(it);
          }
          break;
        case HopKind::RequestShed:
          submitted_.erase(e.trace);
          break;
        case HopKind::RequestRefused:
          ++refused;
          break;
        case HopKind::CmdSend:
          sent_[e.span] = e.at;
          break;
        case HopKind::CmdAcked:
          if (const auto it = sent_.find(e.span); it != sent_.end()) {
            rtt.push_back(e.at - it->second);
            sent_.erase(it);
          }
          break;
        case HopKind::CmdCancelled:
        case HopKind::CmdStaleTerm:
        case HopKind::CmdTimeout:
          sent_.erase(e.span);
          break;
        default:
          break;
      }
    }
    ring.clear();
  }

  std::vector<double> wait;
  std::vector<double> latency;
  std::vector<double> rtt;
  /// Requests refused at submit because the manager was down.
  std::uint64_t refused = 0;

 private:
  std::unordered_map<TraceId, SimTime> submitted_;
  std::unordered_map<SpanId, SimTime> sent_;
  bool overflowed_ = false;
};

/// One runUntil() stop of a traced repetition.
struct Slice {
  double host = 0.0;
  std::uint32_t loops = 0;  // 0: the async work between two firings
  std::uint32_t pods = 0;
  double engine = 0.0;     // PhaseProfiler time inside the slice
  double placement = 0.0;  // pods' measured decision time
  /// Loops whose rare heavy work shows in counters: a lease tick that
  /// promoted the standby (journal replay), a snapshot that was taken.
  std::uint32_t heavy = 0;
};

std::uint64_t profilerNs(const PhaseProfiler& p) {
  std::uint64_t ns = 0;
  for (std::size_t i = 0; i < PhaseProfiler::kPhases; ++i) {
    ns += p.ns(static_cast<PhaseProfiler::Phase>(i));
  }
  return ns;
}

/// Firings of loop `k` in a slice.
double firingsOf(const Slice& s, std::size_t k) {
  if ((s.loops & (1u << k)) == 0) return 0.0;
  return k == static_cast<std::size_t>(Loop::Pod) ? s.pods : 1.0;
}

double unmeasured(const Slice& s) {
  return std::max(0.0, s.host - s.engine - s.placement);
}

/// Host seconds per loop.  A firing slice's measured parts (engine
/// profiler time, pods' placement decisions) go to their loops.  What is
/// left of a slice where several loops fired cannot be split exactly from
/// outside, so each loop is charged its typical unmeasured cost per
/// firing (scaled down if the slice was cheaper), and any excess goes to
/// the loop in the slice that usually costs most, unless counters show a
/// loop's rare heavy work in the slice (Slice::heavy).  A loop's typical cost
/// is its median over slices where it fired alone; for a loop that never
/// fires alone, the median over slices where it is the only loop left
/// without an estimate, after subtracting the others' estimates.
std::array<double, kLoops> chargeLoops(const std::vector<Slice>& slices) {
  std::array<double, kLoops> typical{};
  std::array<bool, kLoops> known{};
  for (bool progress = true; progress;) {
    progress = false;
    std::array<std::vector<double>, kLoops> samples;
    for (const Slice& s : slices) {
      std::size_t open = kLoops;
      int unknowns = 0;
      double rest = unmeasured(s);
      for (std::size_t k = 0; k < kLoops; ++k) {
        const double n = firingsOf(s, k);
        if (n == 0.0) continue;
        if (known[k]) {
          rest -= n * typical[k];
        } else {
          open = k;
          ++unknowns;
        }
      }
      if (unknowns == 1) samples[open].push_back(rest / firingsOf(s, open));
    }
    for (std::size_t k = 0; k < kLoops; ++k) {
      if (known[k] || samples[k].empty()) continue;
      typical[k] = std::max(0.0, percentile(samples[k], 50.0));
      known[k] = true;
      progress = true;
    }
  }
  // Mean measured cost per firing, to rank loops by their usual cost.
  std::array<double, kLoops> measured{};
  std::array<double, kLoops> firings{};
  for (const Slice& s : slices) {
    for (std::size_t k = 0; k < kLoops; ++k) firings[k] += firingsOf(s, k);
    measured[static_cast<std::size_t>(Loop::Engine)] += s.engine;
    measured[static_cast<std::size_t>(Loop::Pod)] += s.placement;
  }
  for (std::size_t k = 0; k < kLoops; ++k) {
    measured[k] = ratio(measured[k], firings[k], 0.0);
  }

  std::array<double, kLoops> charged{};
  for (const Slice& s : slices) {
    if (s.loops == 0) continue;
    charged[static_cast<std::size_t>(Loop::Engine)] += s.engine;
    charged[static_cast<std::size_t>(Loop::Pod)] += s.placement;
    double expected = 0.0;
    std::size_t dominant = kLoops;
    double dominantCost = -1.0;
    for (std::size_t k = 0; k < kLoops; ++k) {
      const double n = firingsOf(s, k);
      if (n == 0.0) continue;
      expected += n * typical[k];
      if (n * (typical[k] + measured[k]) > dominantCost) {
        dominantCost = n * (typical[k] + measured[k]);
        dominant = k;
      }
    }
    const double rest = unmeasured(s);
    const double scale = expected > 0.0 ? std::min(1.0, rest / expected) : 0.0;
    for (std::size_t k = 0; k < kLoops; ++k) {
      charged[k] += firingsOf(s, k) * typical[k] * scale;
    }
    const double excess = rest - expected * scale;
    if (s.heavy != 0) {
      for (std::size_t k = 0; k < kLoops; ++k) {
        if ((s.heavy & (1u << k)) != 0) {
          charged[k] += excess / std::popcount(s.heavy);
        }
      }
    } else {
      charged[dominant] += excess;
    }
  }
  return charged;
}

/// Times the window's epochs up to the timed end.
void timeEpochs(MegaDc& dc, Window& window, RepResult& r, bool& done) {
  for (const Firing& f : window.schedule()) {
    if (f.at > window.timedEnd()) break;
    if ((f.loops & bit(Loop::Engine)) == 0) continue;
    const auto t = Clock::now();
    dc.runUntil(f.at);
    r.epochHost.push_back(since(t));
    if ((done = window.epoch(f.at, r.violations))) break;
  }
  r.windowHost = std::accumulate(r.epochHost.begin(), r.epochHost.end(), 0.0);
}

/// Runs the timed part of the window with the tracer and the engine's
/// phase profiler on, stopping just before and at every loop firing, and
/// charges the host time to layers.  Returns the marker events it ran.
std::uint64_t traceSlices(MegaDc& dc, Window& window, const Mark& firingMark,
                          RepResult& r, bool& done) {
  dc.tracer->ring().clear();
  dc.tracer->setEnabled(true);
  PhaseProfiler& prof = dc.engine->profiler();
  prof.reset();
  prof.setEnabled(true);
  SpanTally spans;
  std::vector<Slice> slices;
  double placementChanges = 0.0;
  double checks = 0.0;
  std::uint64_t markers = 0;
  auto& pods = dc.manager->pods();
  const auto& machine = dc.manager->viprip().stateMachine();
  const auto wall = Clock::now();
  for (const Firing& f : window.schedule()) {
    if (f.at > window.timedEnd()) break;
    if (f.at > dc.sim.now() && before(f.at) > dc.sim.now()) {
      const std::uint64_t ev = dc.sim.eventsExecuted();
      const auto t = Clock::now();
      dc.runUntil(before(f.at));
      const double host = since(t);
      // A stop that ran no event is idle time, charged to no layer.
      if (dc.sim.eventsExecuted() > ev) slices.push_back({.host = host});
    }
    std::vector<double> decided(f.pods.size());
    for (std::size_t i = 0; i < f.pods.size(); ++i) {
      decided[i] = pods[f.pods[i]]->stats().decisionSeconds;
    }
    // At f.at the loops fire first, then the firing mark, then events
    // scheduled for f.at earlier (async work that merely coincides), then
    // this cascade mark, then the events the firings scheduled for f.at.
    Mark cascade;
    dc.sim.at(f.at, [&dc, &cascade] {
      cascade = Mark{dc.sim.now(), Clock::now(), dc.sim.eventsExecuted(), 1};
    });
    const std::uint64_t ns = profilerNs(prof);
    const std::uint64_t failovers = dc.manager->failovers();
    const std::uint64_t snapshots = machine.snapshotsTaken();
    const std::uint64_t ev = dc.sim.eventsExecuted();
    const auto t = Clock::now();
    dc.runUntil(f.at);
    const auto end = Clock::now();
    ++markers;
    if (firingMark.at != f.at || cascade.at != f.at) {
      r.violations.push_back("marker missed the firing at sim " +
                             std::to_string(f.at));
      break;
    }
    const std::uint64_t firings =
        static_cast<std::uint64_t>(std::popcount(f.loops)) +
        (f.pods.empty() ? 0 : f.pods.size() - 1);
    if (firingMark.events - 1 - ev != firings) {
      r.violations.push_back(
          "firing at sim " + std::to_string(f.at) + " ran " +
          std::to_string(firingMark.events - 1 - ev) + " events for " +
          std::to_string(firings) + " loops");
    }
    if (cascade.events - 1 > firingMark.events) {
      slices.push_back({.host = seconds(cascade.host - firingMark.host)});
    }
    Slice s{.host = seconds(firingMark.host - t) + seconds(end - cascade.host),
            .loops = f.loops,
            .pods = static_cast<std::uint32_t>(f.pods.size()),
            .engine = 1e-9 * static_cast<double>(profilerNs(prof) - ns)};
    // A pod decision that ran re-measured its (nanosecond) wall time.
    for (std::size_t i = 0; i < f.pods.size(); ++i) {
      const PodStats& st = pods[f.pods[i]]->stats();
      if (st.decisionSeconds != decided[i]) {
        s.placement += st.decisionSeconds;
        placementChanges += st.placementChanges;
      }
    }
    if (dc.manager->failovers() != failovers) s.heavy |= bit(Loop::Lease);
    if (machine.snapshotsTaken() != snapshots) s.heavy |= bit(Loop::Snapshot);
    slices.push_back(s);
    spans.drain(dc.tracer->ring(), r.violations);
    if ((f.loops & bit(Loop::Engine)) != 0) {
      const auto c = Clock::now();
      done = window.epoch(f.at, r.violations);
      checks += since(c);
      if (done) break;
    }
  }
  r.windowHost = since(wall) - checks;
  prof.setEnabled(false);
  dc.tracer->setEnabled(false);

  const std::array<double, kLoops> loops = chargeLoops(slices);
  auto loop = [&loops](Loop l) { return loops[static_cast<std::size_t>(l)]; };
  double async = 0.0;
  double placement = 0.0;
  for (const Slice& s : slices) {
    if (s.loops == 0) async += s.host;
    placement += s.placement;
  }
  const double charged =
      std::accumulate(loops.begin(), loops.end(), 0.0) + async;
  auto phase = [&prof](PhaseProfiler::Phase p) {
    return 1e-9 * static_cast<double>(prof.ns(p));
  };
  using P = PhaseProfiler::Phase;
  Metrics& m = r.traced;
  auto put = [&m](const char* name, double v, const char* unit) {
    m[name] = Metric{v, unit};
  };
  put("scenario.engine.step_s", loop(Loop::Engine), "s");
  put("scenario.engine.validate_s", phase(P::Validate), "s");
  put("scenario.engine.descent_s", phase(P::Descent), "s");
  put("scenario.engine.emit_s",
      phase(P::Emit) + phase(P::EmitShard) + phase(P::Merge), "s");
  put("scenario.engine.serve_s", phase(P::Serve), "s");
  put("scenario.session.tick_s", loop(Loop::Session), "s");
  put("core.pod.loop_s", loop(Loop::Pod), "s");
  put("core.placement.decide_s", placement, "s");
  put("core.pod.placement_changes", placementChanges, "count");
  put("core.balancers_s",
      loop(Loop::InterPod) + loop(Loop::LinkBalancer) +
          loop(Loop::SwitchBalancer),
      "s");
  put("core.lease_s", loop(Loop::Lease), "s");
  put("ctrl.reconciler_s", loop(Loop::Reconciler), "s");
  put("ctrl.async_s", async, "s");
  put("state.snapshot_s", loop(Loop::Snapshot), "s");
  put("fault.health_s", loop(Loop::Health), "s");
  put("run.unattributed_s", r.windowHost - charged, "s");
  const Tail wait = tailOf(spans.wait);
  put("ctrl.admission.wait_p50_s", percentile(spans.wait, 50.0), "sim_s");
  put("ctrl.admission.wait_tail_s", wait.value, "sim_s");
  const Tail rtt = tailOf(spans.rtt);
  put("ctrl.cmd.rtt_p50_s", percentile(spans.rtt, 50.0), "sim_s");
  put("ctrl.cmd.rtt_tail_s", rtt.value, "sim_s");
  const Tail lat = tailOf(spans.latency);
  put("ctrl.cmd.latency_p50_s", percentile(spans.latency, 50.0), "sim_s");
  put("ctrl.cmd.latency_tail_s", lat.value, "sim_s");
  put("ctrl.cmd.latency_tail_pct", lat.pct, "%");
  put("ctrl.cmd.latency_samples", u(lat.samples), "count");
  put("ctrl.cmd.refused", u(spans.refused), "count");
  r.operations += spans.refused;
  r.failedOperations += spans.refused;
  r.requests += spans.refused;
  return markers;
}

}  // namespace

RepResult runRepetition(const Workload& w, bool traced) {
  Mark firingMark;
  World world(w, traced ? &firingMark : nullptr);
  MegaDc& dc = world.dc();
  RepResult r;
  r.setup = world.setup();
  r.engineWorkers = dc.engine->workerCount();
  r.sessionWorkers = dc.sessions ? dc.sessions->workerCount() : 0;
  Window window(w, world);
  const Counters first = Counters::read(dc);
  const std::uint64_t firingMarks = firingMark.runs;
  bool done = false;
  std::uint64_t markers =
      traced ? traceSlices(dc, window, firingMark, r, done) : 0;
  if (!traced) timeEpochs(dc, window, r, done);
  r.windowSimSeconds = dc.sim.now() - window.start();
  r.timedEvents = dc.sim.eventsExecuted() - first.events - markers -
                  (firingMark.runs - firingMarks);
  // Past the timed part (the quiesce after faults): step the remaining
  // epochs.
  for (const Firing& f : window.schedule()) {
    if (done) break;
    if (f.at <= dc.sim.now() || (f.loops & bit(Loop::Engine)) == 0) continue;
    dc.runUntil(f.at);
    done = window.epoch(f.at, r.violations);
  }
  if (!done) r.violations.push_back("window ended before its last epoch");

  const Counters last = Counters::read(dc);
  markers += firingMark.runs - firingMarks;
  r.model = window.model(first, last);
  r.model["sim.events"].value -= u(markers);
  r.outputHash =
      mix(window.reportHash(), dc.manager->viprip().stateMachine().stateHash());
  if (dc.sessions) r.outputHash = mix(r.outputHash, dc.sessions->stateHash());
  r.epochs = window.epochs();
  const std::uint64_t requests = terminalRequests(first, last);
  r.requests += requests;
  r.requestsOk += requests - failedRequests(first, last);
  r.operations += requests + (last.arrivals - first.arrivals);
  r.failedOperations += failedRequests(first, last) + lostSessions(first, last);
  return r;
}

std::vector<std::string> modelDiff(const RepResult& a, const RepResult& b) {
  std::vector<std::string> diff;
  for (const auto& [name, m] : a.model) {
    const auto it = b.model.find(name);
    if (it == b.model.end() || it->second.value != m.value) {
      diff.push_back(name);
    }
  }
  for (const auto& [name, m] : b.model) {
    if (!a.model.contains(name)) diff.push_back(name);
  }
  if (a.outputHash != b.outputHash) {
    diff.push_back("epoch report and state hashes");
  }
  if (a.epochs != b.epochs) diff.push_back("epoch count");
  return diff;
}

// --- runs ---------------------------------------------------------------

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Adds a repetition's checks to the run; `diverged` lists where its
/// simulated outputs differ from the reference repetition's.
void account(RunResult& run, const std::string& who, const RepResult& r,
             const std::vector<std::string>& diverged) {
  for (const std::string& v : r.violations) {
    run.violations.push_back(who + ": " + v);
  }
  for (const std::string& d : diverged) {
    run.violations.push_back(who + " diverged on " + d);
  }
  run.attempted += r.operations;
  run.failed += r.violations.empty() && diverged.empty() ? r.failedOperations
                                                         : r.operations;
  run.engineWorkers = r.engineWorkers;
  run.sessionWorkers = r.sessionWorkers;
}

}  // namespace

RunResult timedRun(const Workload& w, unsigned k) {
  RunResult run;
  std::vector<RepResult> reps;
  for (unsigned i = 0; i < k; ++i) reps.push_back(runRepetition(w, false));
  std::vector<double> fastest = reps[0].epochHost;
  std::vector<double> setups;
  for (unsigned i = 0; i < k; ++i) {
    const RepResult& r = reps[i];
    const std::string who = "repetition " + std::to_string(i);
    const std::vector<std::string> diverged = modelDiff(reps[0], r);
    account(run, who, r, diverged);
    if (diverged.empty()) {
      for (std::size_t e = 0; e < fastest.size(); ++e) {
        fastest[e] = std::min(fastest[e], r.epochHost[e]);
      }
    }
    setups.push_back(r.setup.total());
    run.details[who + ".setup_s"] = r.setup.total();
    run.details[who + ".window_host_s"] = r.windowHost;
    run.details[who + ".sim_rate"] = r.windowSimSeconds / r.windowHost;
  }
  const double host = std::accumulate(fastest.begin(), fastest.end(), 0.0);
  run.metrics["sim_rate"] = {reps[0].windowSimSeconds / host, "sim_s/s"};
  run.metrics["setup_s"] = {median(setups), "s"};
  run.metrics["peak_rss_mb"] = {peakRssMiB(), "MiB"};
  run.metrics["served_ratio"] = reps[0].model.at("served_ratio");
  run.details["window_sim_s"] = reps[0].windowSimSeconds;
  return run;
}

RunResult tracedRun(const Workload& w) {
  RunResult run;
  const RepResult plain = runRepetition(w, false);
  const RepResult traced = runRepetition(w, true);
  account(run, "untraced", plain, {});
  account(run, "traced", traced, modelDiff(plain, traced));

  Metrics& m = run.metrics;
  m = plain.model;
  m.erase("served_ratio");  // an end-to-end metric
  // With the refusals only the tracer sees.
  m["ctrl.cmd.ok_ratio"] = {
      ratio(u(traced.requestsOk), u(traced.requests), 1.0), "ratio"};
  for (const auto& [name, metric] : traced.traced) m[name] = metric;
  m["setup.construct_s"] = {plain.setup.construct, "s"};
  m["setup.deploy_s"] = {plain.setup.deploy, "s"};
  m["setup.warmup_s"] = {plain.setup.warmup, "s"};
  m["setup.drain_s"] = {plain.setup.drain, "s"};
  m["sim.host_us_per_event"] = {
      1e6 * ratio(plain.windowHost, u(plain.timedEvents), 0.0), "us"};
  m["run.epoch_host_p50_s"] = {percentile(plain.epochHost, 50.0), "s"};
  const Tail tail = tailOf(plain.epochHost);
  m["run.epoch_host_tail_s"] = {tail.value, "s"};
  m["obs.trace_overhead"] = {traced.windowHost / plain.windowHost, "ratio"};
  run.details["window_sim_s"] = plain.windowSimSeconds;
  run.details["untraced_window_host_s"] = plain.windowHost;
  run.details["traced_window_host_s"] = traced.windowHost;
  run.details["epoch_host_tail_pct"] = tail.pct;
  run.details["epoch_samples"] = static_cast<double>(tail.samples);
  return run;
}

}  // namespace e2e
