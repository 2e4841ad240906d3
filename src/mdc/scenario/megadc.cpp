#include "mdc/scenario/megadc.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "mdc/util/expect.hpp"

namespace mdc {

MegaDc::MegaDc(MegaDcConfig config)
    : topo(config.topology),
      routes(config.routePropagationDelay),
      hosts(topo, sim, config.hostCosts),
      podRegistry(config.topology.numServers),
      config_(std::move(config)) {
  MDC_EXPECT(config_.numApps > 0, "need at least one app");
  MDC_EXPECT(config_.numPods > 0, "need at least one pod");

  // LB switches matching the topology's trunk count.
  for (std::uint32_t i = 0; i < config_.topology.numSwitches; ++i) {
    SwitchLimits limits = config_.switchLimits;
    limits.capacityGbps = config_.topology.switchTrunkGbps;
    fleet.addSwitch(limits);
  }

  // Applications with Zipf-distributed base demand.
  const auto rates =
      zipfBaseRates(config_.numApps, config_.zipfAlpha, config_.totalDemandRps);
  for (std::uint32_t a = 0; a < config_.numApps; ++a) {
    apps.create("app-" + std::to_string(a), config_.sla, rates[a]);
  }
  demand = std::make_unique<StaticDemand>(rates);

  resolvers = std::make_unique<ResolverPopulation>(dns, config_.resolver);

  // Derive the control-channel seed from the scenario seed so faulty runs
  // replay bit-identically without correlating with the fault injector.
  config_.manager.viprip.channelSeed = config_.seed * 0x9e3779b9u + 0xe14u;

  manager = std::make_unique<GlobalManager>(
      sim, topo, hosts, apps, fleet, dns, routes, podRegistry,
      std::make_shared<PlacementController>(), config_.manager);

  // Tracer before pods/agents exist: the manager forwards it to the
  // channel, sender, every (lazily created) agent, and the reconciler —
  // including one built by a later start().
  tracer = std::make_unique<Tracer>(sim, config_.tracing);
  manager->attachTracer(tracer.get());

  // Pods: servers striped round-robin.
  std::vector<std::vector<ServerId>> podServers(config_.numPods);
  for (std::uint32_t s = 0; s < config_.topology.numServers; ++s) {
    podServers[s % config_.numPods].push_back(ServerId{s});
  }
  for (auto& servers : podServers) {
    manager->createPod(servers);
  }

  engine = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                         routes, fleet, hosts, *demand,
                                         config_.engine);

  if (config_.enableSessionEngine) {
    // Derived like the channel seed: replayable from the scenario seed,
    // uncorrelated with the other component streams.
    config_.session.seed = config_.seed * 0x9e3779b9u + 0xe19u;
    sessions = std::make_unique<SessionEngine>(sim, apps, *demand, dns,
                                               *resolvers, fleet,
                                               config_.session);
    sessions->attachTracer(tracer.get());
  }

  std::vector<PodManager*> rawPods;
  rawPods.reserve(manager->pods().size());
  for (auto& p : manager->pods()) rawPods.push_back(p.get());
  faults = std::make_unique<FaultInjector>(sim, topo, fleet, hosts,
                                           config_.fault);
  faults->attachPods(rawPods);
  faults->attachChannel(&manager->viprip().ctrlChannel());
  faults->attachManager(manager.get());
  decorateReports();
  if (config_.enableHealthMonitor) {
    health = std::make_unique<HealthMonitor>(sim, fleet, hosts, apps, dns,
                                             manager->viprip(),
                                             config_.health);
    health->attachPods(std::move(rawPods));
  }
  registerStandardMetrics();
}

void MegaDc::decorateReports() {
  engine->setReportDecorator([this](EpochReport& r) {
    r.faultPlanSeed = faults->seed();
    r.gauges = metrics.values(GaugeScope::Simulated);
  });
}

void MegaDc::registerStandardMetrics() {
  // One line per gauge: (name, of, get[, labels]) reads `get` on the
  // component `of()` returns, and 0 while that is null (the reconciler
  // before start(), a disabled health monitor or session engine).
  // `gauge` reads simulated state, which rides in every EpochReport;
  // `host` reads wall time, worker counts or the trace ring.
  const auto scoped = [this](GaugeScope scope) {
    return [this, scope](const std::string& name, auto of, auto get,
                         const MetricLabels& labels = {}) {
      metrics.registerGauge(
          name, scope,
          [of, get]() -> double {
            auto* c = of();
            return c == nullptr ? 0.0
                                : static_cast<double>(std::invoke(get, *c));
          },
          labels);
    };
  };
  const auto gauge = scoped(GaugeScope::Simulated);
  const auto host = scoped(GaugeScope::Host);

  // Control channel + command sender (E14).
  const auto channel = [this] { return &manager->viprip().ctrlChannel(); };
  const auto sender = [this] { return &manager->viprip().ctrlSender(); };
  using Chan = ControlChannel;
  using Cmd = CommandSender;
  gauge("mdc.ctrl.messages_sent", channel, &Chan::messagesSent);
  gauge("mdc.ctrl.messages_dropped", channel, &Chan::messagesDropped);
  gauge("mdc.ctrl.messages_duplicated", channel, &Chan::messagesDuplicated);
  gauge("mdc.ctrl.messages_reordered", channel, &Chan::messagesReordered);
  gauge("mdc.ctrl.partitioned_links", channel, &Chan::partitionedLinks);
  gauge("mdc.ctrl.commands_sent", sender, &Cmd::commandsSent);
  gauge("mdc.ctrl.acks_received", sender, &Cmd::acksReceived);
  gauge("mdc.ctrl.retransmits", sender, &Cmd::retransmits);
  gauge("mdc.ctrl.timeouts", sender, &Cmd::timeouts);
  gauge("mdc.ctrl.inflight", sender, &Cmd::inflight);
  gauge("mdc.ctrl.cancelled_commands", sender, &Cmd::cancelledCommands);
  gauge("mdc.ctrl.stale_term_rejections", sender, &Cmd::staleTermRejections);

  // Manager tier (E16) and the serialized VIP/RIP queue (§III-C).
  const auto mgr = [this] { return manager.get(); };
  const auto vr = [this] { return &manager->viprip(); };
  gauge("mdc.manager.term", mgr, &GlobalManager::term);
  gauge("mdc.manager.leader_up", mgr, &GlobalManager::leaderUp);
  gauge("mdc.manager.alive_instances", mgr, &GlobalManager::aliveManagers);
  gauge("mdc.manager.failovers", mgr, &GlobalManager::failovers);
  gauge("mdc.manager.pod_restarts", mgr, &GlobalManager::podRestarts);
  gauge("mdc.manager.queue_length", vr, &VipRipManager::queueLength);
  gauge("mdc.manager.processed_requests", vr,
        &VipRipManager::processedRequests);
  gauge("mdc.manager.rejected_requests", vr,
        &VipRipManager::rejectedRequests);
  gauge("mdc.manager.cancelled_requests", vr,
        &VipRipManager::cancelledRequests);

  // Pod managers' last placement decision: host time and rebalance passes.
  for (std::size_t p = 0; p < manager->pods().size(); ++p) {
    const MetricLabels labels{{"pod", std::to_string(p)}};
    const auto pod = [this, p] { return &manager->pods()[p]->stats(); };
    host("mdc.pod.decision_seconds", pod, &PodStats::decisionSeconds, labels);
    gauge("mdc.pod.rebalance_passes", pod, &PodStats::rebalancePasses, labels);
  }

  // Command-plane admission & overload (E18).
  const auto adm = [this] { return &manager->viprip().admission(); };
  using Adm = AdmissionController;
  gauge("mdc.admission.queue_depth", adm, &Adm::depth);
  for (std::size_t c = 0; c < kAdmissionClassCount; ++c) {
    const auto cls = static_cast<AdmissionClass>(c);
    const MetricLabels labels{{"class", toString(cls)}};
    gauge("mdc.admission.class_depth", adm,
          [cls](const Adm& a) { return a.depthOf(cls); }, labels);
    gauge("mdc.admission.shed_requests", adm,
          [cls](const Adm& a) { return a.shedOf(cls); }, labels);
  }
  gauge("mdc.admission.oldest_age_seconds", adm,
        [this](const Adm& a) { return a.oldestAgeSeconds(sim.now()); });
  gauge("mdc.admission.effective_batch_size", adm, &Adm::effectiveBatchSize);
  gauge("mdc.admission.brownout_active", adm, &Adm::brownoutActive);
  gauge("mdc.admission.rounds", adm, &Adm::rounds);
  gauge("mdc.admission.admitted_requests", adm, &Adm::admitted);
  gauge("mdc.admission.deadline_expired", adm, &Adm::deadlineExpired);
  gauge("mdc.admission.conflict_deferred", adm, &Adm::conflictDeferred);
  gauge("mdc.admission.coalesced_requests", adm, &Adm::coalesced);
  gauge("mdc.admission.bulk_evictions", adm, &Adm::evictions);
  gauge("mdc.admission.brownout_entries", adm, &Adm::brownoutEntries);

  // Durable state machine: snapshots, changelog, recovery (E17).
  const auto machine = [this] { return &manager->viprip().stateMachine(); };
  using Dsm = state::DurableStateMachine;
  gauge("mdc.state.changelog_records", machine,
        [](Dsm& m) { return m.changelog().size(); });
  gauge("mdc.state.changelog_bytes", machine,
        [](Dsm& m) { return m.changelog().bytes(); });
  gauge("mdc.state.snapshots_taken", machine, &Dsm::snapshotsTaken);
  gauge("mdc.state.records_since_snapshot", machine,
        &Dsm::recordsSinceSnapshot);
  gauge("mdc.state.snapshot_age_seconds", machine, [this](const Dsm& m) {
    return m.snapshotsTaken() > 0 ? sim.now() - m.lastSnapshotAt() : 0.0;
  });
  gauge("mdc.state.recoveries", machine, &Dsm::recoveries);
  gauge("mdc.state.replayed_records", machine, &Dsm::replayedRecordsTotal);
  gauge("mdc.state.truncated_bytes", machine, &Dsm::truncatedBytesTotal);
  gauge("mdc.state.snapshots_rejected", machine,
        &Dsm::snapshotsRejectedTotal);
  gauge("mdc.state.compacted_records", machine, &Dsm::compactedRecordsTotal);

  // Anti-entropy reconciler (E14) — built at start(); 0 until then.
  const auto audit = [this] { return manager->viprip().reconciler(); };
  using Rec = Reconciler;
  gauge("mdc.reconciler.rounds", audit, &Rec::rounds);
  gauge("mdc.reconciler.rounds_skipped", audit, &Rec::roundsSkipped);
  gauge("mdc.reconciler.drift_detected", audit, &Rec::driftDetected);
  gauge("mdc.reconciler.divergence_last_round", audit,
        &Rec::divergenceLastRound);
  gauge("mdc.reconciler.repairs_issued", audit, &Rec::repairsIssued);
  gauge("mdc.reconciler.repairs_succeeded", audit, &Rec::repairsSucceeded);
  gauge("mdc.reconciler.repairs_failed", audit, &Rec::repairsFailed);
  gauge("mdc.reconciler.placements_adopted", audit, &Rec::placementsAdopted);
  gauge("mdc.reconciler.weights_adopted", audit, &Rec::weightsAdopted);
  for (const char* kind : {"stray_vip", "duplicate_vip", "wrong_switch",
                           "missing_vip", "orphan_rip", "missing_rip"}) {
    gauge(
        "mdc.reconciler.drift", audit,
        [kind](const Rec& r) -> std::uint64_t {
          const auto it = r.driftByKind().find(kind);
          return it == r.driftByKind().end() ? 0 : it->second;
        },
        {{"kind", kind}});
  }

  // Failure detection + self-healing (E13) — null when disabled.
  const auto hm = [this] { return health.get(); };
  using Hm = HealthMonitor;
  gauge("mdc.health.switch_failures_detected", hm,
        &Hm::switchFailuresDetected);
  gauge("mdc.health.server_failures_detected", hm,
        &Hm::serverFailuresDetected);
  gauge("mdc.health.pod_failures_detected", hm, &Hm::podFailuresDetected);
  gauge("mdc.health.vips_restored", hm, &Hm::vipsRestored);
  gauge("mdc.health.vms_cleaned_up", hm, &Hm::vmsCleanedUp);
  gauge("mdc.health.restore_retries", hm, &Hm::restoreRetries);
  gauge("mdc.health.cleanup_retries", hm, &Hm::cleanupRetries);
  gauge("mdc.health.pending_vip_restores", hm, &Hm::pendingVipRestores);
  gauge("mdc.health.pending_vm_cleanups", hm, &Hm::pendingVmCleanups);
  gauge("mdc.health.flap_suppressions", hm, &Hm::flapSuppressions);
  gauge("mdc.health.unavailability_rps_seconds", hm,
        &Hm::unavailabilityRpsSeconds);

  // Fault injector.
  const auto injector = [this] { return faults.get(); };
  gauge("mdc.fault.injected", injector, &FaultInjector::faultsInjected);
  gauge("mdc.fault.repairs_applied", injector, &FaultInjector::repairsApplied);

  // Fleet failure state.
  const auto switches = [this] { return &fleet; };
  gauge("mdc.fleet.down_switches", switches,
        [](const SwitchFleet& f) { return f.size() - f.upCount(); });
  gauge("mdc.fleet.orphaned_vips", switches, &SwitchFleet::pendingOrphans);
  gauge("mdc.hosts.down_servers", [this] { return &hosts; },
        &HostFleet::downServers);

  // Epoch engine: cache effectiveness + per-phase wall-clock profile.
  // Dereferences `engine` at read time so the gauges survive the rebuild
  // in setDemandModel(), which re-runs this function (and so re-binds the
  // profiler's gauges to the new engine).
  const auto eng = [this] { return engine.get(); };
  host("mdc.engine.apps_recomputed", eng, &FluidEngine::appsRecomputed);
  host("mdc.engine.apps_from_cache", eng, &FluidEngine::appsFromCache);
  host("mdc.engine.workers", eng, &FluidEngine::workerCount);
  engine->profiler().registerWith(metrics);

  // Session data plane (E19) — null unless enabled; gauges read 0 then.
  const auto ses = [this] { return sessions.get(); };
  using Ses = SessionEngine;
  gauge("mdc.session.active", ses, &Ses::activeSessions);
  gauge("mdc.session.arrivals", ses, &Ses::totalArrivals);
  gauge("mdc.session.completed", ses, &Ses::completedSessions);
  gauge("mdc.session.broken", ses, &Ses::brokenSessions);
  for (std::size_t r = 0; r < kSessionRejectCount; ++r) {
    const auto reason = static_cast<SessionReject>(r);
    gauge("mdc.session.rejected", ses,
          [reason](const Ses& s) { return s.rejectedFor(reason); },
          {{"reason", toString(reason)}});
  }
  gauge("mdc.session.drains_in_progress", ses, &Ses::drainsInProgress);
  gauge("mdc.session.drains_completed", ses, &Ses::drainsCompleted);
  gauge("mdc.session.drains_aborted", ses, &Ses::drainsAborted);
  gauge("mdc.session.drain_p99_seconds", ses, &Ses::drainP99Seconds);

  // The tracer's own ring.
  const auto ring = [this] { return &tracer->ring(); };
  host("mdc.trace.events_total", ring, &TraceRing::total);
  host("mdc.trace.events_overwritten", ring, &TraceRing::overwritten);
}

void MegaDc::setDemandModel(std::unique_ptr<DemandModel> model) {
  MDC_EXPECT(model != nullptr, "null demand model");
  MDC_EXPECT(!started_, "cannot swap demand model after start()");
  demand = std::move(model);
  // Rebuild the engine against the new model (it holds a reference).
  engine = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                         routes, fleet, hosts, *demand,
                                         config_.engine);
  if (sessions) {
    // Destroy before rebuilding: the old engine must detach its shards
    // from the switches before the new one attaches its own.
    sessions.reset();
    sessions = std::make_unique<SessionEngine>(sim, apps, *demand, dns,
                                               *resolvers, fleet,
                                               config_.session);
    sessions->attachTracer(tracer.get());
  }
  decorateReports();
  registerStandardMetrics();
}

void MegaDc::deployAllApps() {
  std::vector<GlobalManager::AppDeployment> deployments;
  deployments.reserve(apps.all().size());
  for (const Application& a : apps.all()) {
    // Enough instances that each initial slice fits comfortably within
    // one server (at most ~half a server per instance).
    const double perServerRps =
        a.sla.servableRps(config_.topology.serverCapacity);
    std::uint32_t instances = config_.instancesPerApp;
    if (perServerRps > 0.0) {
      const auto needed = static_cast<std::uint32_t>(
          std::ceil(a.baseRps * kSliceHeadroom / (0.5 * perServerRps)));
      instances = std::max(instances, needed);
    }
    deployments.push_back({a.id, instances, a.baseRps / instances});
  }
  const Status s = manager->deployApps(deployments);
  MDC_ENSURE(s.ok(), "deployApps failed: " + s.error().code + " (" +
                         s.error().detail + ")");
}

void MegaDc::start() {
  MDC_EXPECT(!started_, "start() called twice");
  started_ = true;
  // The bootstrap ran on a reliable channel; unreliability begins with
  // the control loops.
  manager->viprip().ctrlChannel().setFaults(config_.ctrlFaults);
  manager->start();
  if (sessions) sessions->start();
  engine->start([this](const EpochReport& r) {
    const auto prof = engine->profiler().time(PhaseProfiler::Phase::Sink);
    manager->observe(r);
    if (health) health->observe(r);
  });
  if (health) {
    // Offset from the control loops so probes interleave with decisions.
    health->start(0.25 * config_.health.heartbeatInterval);
    if (config_.manager.enableInterPodBalancer) {
      manager->interPodBalancer().setPodFrozenCheck(
          [this](PodId pod) { return health->isPodSuspect(pod); });
    }
  }
}

void MegaDc::bootstrap(SimTime warmupSeconds) {
  deployAllApps();
  // Let route advertisements converge and cloned VMs come up before the
  // control loops begin.
  const SimTime warmup =
      std::max({warmupSeconds, config_.hostCosts.vmCloneSeconds + 1.0,
                config_.routePropagationDelay + 1.0});
  sim.runUntil(sim.now() + warmup);
  start();
}

void MegaDc::runUntil(SimTime until) { sim.runUntil(until); }

MegaDcConfig paperScaleConfig() {
  MegaDcConfig cfg;
  cfg.topology.numServers = 300'000;
  cfg.topology.serverCapacity = CapacityVec{16.0, 64.0, 1.0};
  cfg.topology.numIsps = 4;
  cfg.topology.accessLinksPerIsp = 4;
  cfg.topology.accessLinkGbps = 100.0;
  cfg.topology.numSwitches = 400;  // >= the paper's 375 minimum
  cfg.topology.switchTrunkGbps = 4.0;
  cfg.numApps = 300'000;
  cfg.totalDemandRps = 60.0e6;
  cfg.instancesPerApp = 2;  // grown toward ~20 by the managers
  cfg.numPods = 60;         // 5,000 servers per pod (§III-A)
  cfg.manager.vipsPerApp = 3;
  // At 300k apps the epoch fan-out is the hot loop; fan it out.  The
  // request is clamped to hardware_concurrency by resolveWorkers, so
  // on a 1-core box this degrades to a serial engine instead of paying
  // oversubscribed fork/join overhead.
  cfg.engine.workers = 4;
  return cfg;
}

MegaDcConfig testScaleConfig() {
  MegaDcConfig cfg;
  cfg.seed = 7;
  cfg.topology.numServers = 32;
  cfg.topology.serverCapacity = CapacityVec{8.0, 32.0, 1.0};
  cfg.topology.numIsps = 2;
  cfg.topology.accessLinksPerIsp = 1;
  cfg.topology.accessLinkGbps = 2.0;
  cfg.topology.numSwitches = 3;
  cfg.topology.switchTrunkGbps = 4.0;
  cfg.numApps = 6;
  cfg.totalDemandRps = 30'000.0;
  cfg.numPods = 2;
  cfg.instancesPerApp = 2;
  cfg.hostCosts.vmBootSeconds = 5.0;
  cfg.hostCosts.vmCloneSeconds = 1.0;
  cfg.hostCosts.capacityAdjustSeconds = 0.5;
  cfg.hostCosts.migrationGbps = 8.0;
  cfg.routePropagationDelay = 2.0;
  cfg.resolver.ttlSeconds = 20.0;
  cfg.resolver.lingerFraction = 0.02;
  cfg.switchLimits.reconfigSeconds = 0.5;
  cfg.manager.vipsPerApp = 2;
  cfg.manager.viprip.processSeconds = 0.01;
  cfg.manager.pod.controlPeriod = 5.0;
  cfg.manager.link.period = 10.0;
  cfg.manager.switchBalancer.period = 10.0;
  cfg.manager.interPod.period = 10.0;
  cfg.engine.epoch = 2.0;
  return cfg;
}

}  // namespace mdc
