#include "mdc/core/pod.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "mdc/util/expect.hpp"
#include "mdc/util/stats.hpp"

namespace mdc {

namespace {
/// Relative change below which a VM's slice or RIP weight is left alone,
/// to keep control-plane churn bounded.
constexpr double kResizeDeadband = 0.15;
constexpr double kWeightDeadband = 0.20;
/// VMs younger than this are never torn down: a freshly deployed
/// instance has not had a chance to attract traffic yet.
constexpr SimTime kYoungVmGraceSeconds = 20.0;
}  // namespace

const std::vector<ServerId> PodRegistry::kEmpty;

PodRegistry::PodRegistry(std::size_t numServers) {
  podOf_.assign(numServers, PodId{});
}

void PodRegistry::assign(ServerId server, PodId pod) {
  MDC_EXPECT(server.valid() && server.index() < podOf_.size(),
             "unknown server");
  MDC_EXPECT(pod.valid(), "invalid pod");
  const PodId old = podOf_[server.index()];
  if (old == pod) return;
  if (old.valid()) {
    auto& vec = pods_[old.index()];
    const auto it = std::find(vec.begin(), vec.end(), server);
    MDC_ENSURE(it != vec.end(), "pod registry out of sync");
    vec.erase(it);
  }
  if (pod.index() >= pods_.size()) pods_.resize(pod.index() + 1);
  pods_[pod.index()].push_back(server);
  podOf_[server.index()] = pod;
}

PodId PodRegistry::podOf(ServerId server) const {
  MDC_EXPECT(server.valid() && server.index() < podOf_.size(),
             "unknown server");
  return podOf_[server.index()];
}

const std::vector<ServerId>& PodRegistry::serversOf(PodId pod) const {
  MDC_EXPECT(pod.valid(), "invalid pod");
  if (pod.index() >= pods_.size()) return kEmpty;
  return pods_[pod.index()];
}

PodManager::PodManager(PodId id, Simulation& sim, HostFleet& hosts,
                       AppRegistry& apps, const Topology& topo,
                       PodRegistry& registry,
                       std::shared_ptr<const PlacementAlgorithm> algorithm,
                       RipRequestSink& rips, Options options)
    : id_(id),
      sim_(sim),
      hosts_(hosts),
      apps_(apps),
      topo_(topo),
      registry_(registry),
      algorithm_(std::move(algorithm)),
      rips_(rips),
      options_(options) {
  MDC_EXPECT(id.valid(), "invalid pod id");
  MDC_EXPECT(algorithm_ != nullptr, "pod manager needs an algorithm");
  MDC_EXPECT(options.controlPeriod > 0.0, "control period must be positive");
  stats_.pod = id;
}

const std::vector<ServerId>& PodManager::servers() const {
  return registry_.serversOf(id_);
}

void PodManager::adoptServer(ServerId server) {
  registry_.assign(server, id_);
}

void PodManager::releaseServer(ServerId server) {
  MDC_EXPECT(registry_.podOf(server) == id_, "server not in this pod");
  for (VmId vm : hosts_.vmsOn(server)) {
    MDC_EXPECT(!hosts_.vmExists(vm), "releaseServer: server not empty");
  }
  vacating_.erase(server);
}

bool PodManager::vacateServer(ServerId server,
                              std::function<void(ServerId)> onEmpty) {
  MDC_EXPECT(registry_.podOf(server) == id_, "server not in this pod");
  if (vacating_.contains(server)) return false;

  // Collect live VMs; all must be Active to migrate.
  std::vector<VmId> toMove;
  for (VmId vm : hosts_.vmsOn(server)) {
    if (!hosts_.vmExists(vm)) continue;
    if (hosts_.vm(vm).state != VmState::Active) return false;
    toMove.push_back(vm);
  }

  // Feasibility: greedy-fit every slice into the pod's other servers.
  std::vector<std::pair<ServerId, CapacityVec>> free;
  for (ServerId s : servers()) {
    if (s == server || vacating_.contains(s) || !hosts_.serverUp(s)) continue;
    free.emplace_back(s, hosts_.freeCapacity(s));
  }
  std::vector<std::pair<VmId, ServerId>> plan;
  for (VmId vm : toMove) {
    const CapacityVec slice = hosts_.vm(vm).slice;
    auto best = free.end();
    for (auto it = free.begin(); it != free.end(); ++it) {
      if (slice.fitsWithin(it->second) &&
          (best == free.end() ||
           it->second.maxRatio(topo_.server(it->first).capacity) <
               best->second.maxRatio(topo_.server(best->first).capacity))) {
        best = it;
      }
    }
    if (best == free.end()) return false;
    best->second -= slice;
    plan.emplace_back(vm, best->first);
  }

  vacating_.insert(server);
  if (plan.empty()) {
    vacating_.erase(server);
    if (onEmpty) onEmpty(server);
    return true;
  }

  const auto remaining = std::make_shared<std::size_t>(plan.size());
  for (const auto& [vm, dst] : plan) {
    const Status s = hosts_.migrateVm(
        vm, dst,
        [this, server, remaining, onEmpty](VmId) {
          if (--*remaining == 0) {
            vacating_.erase(server);
            if (onEmpty) onEmpty(server);
          }
        });
    MDC_ENSURE(s.ok(), "planned migration failed: " + s.error().code);
  }
  return true;
}

std::vector<ServerId> PodManager::pickDonorServers(std::size_t n) const {
  std::vector<ServerId> candidates;
  for (ServerId s : servers()) {
    if (!vacating_.contains(s) && hosts_.serverUp(s)) candidates.push_back(s);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](ServerId a, ServerId b) {
                     return hosts_.serverUtilization(a) <
                            hosts_.serverUtilization(b);
                   });
  if (candidates.size() > n) candidates.resize(n);
  return candidates;
}

void PodManager::setAppDemand(AppId app, double rps) {
  MDC_EXPECT(rps >= 0.0, "negative demand");
  demand_[app] = rps;
}

void PodManager::clearAppDemand() { demand_.clear(); }

std::vector<AppId> PodManager::coveredApps() const {
  std::unordered_set<AppId> seen;
  std::vector<AppId> out;
  for (ServerId s : servers()) {
    for (VmId vm : hosts_.vmsOn(s)) {
      if (!hosts_.vmExists(vm)) continue;
      const AppId app = hosts_.vm(vm).app;
      if (seen.insert(app).second) out.push_back(app);
    }
  }
  return out;
}

void PodManager::runControlLoop() {
  // A crashed pod manager makes no decisions; its VMs keep serving.
  if (!online_) return;
  // No demand signal yet (the engine has not reported an epoch): deciding
  // now would mistake "unknown" for "zero" and tear everything down.
  if (demand_.empty()) return;

  // --- build the placement problem over this pod ------------------------
  std::vector<ServerId> serverIds;
  for (ServerId s : servers()) {
    if (!vacating_.contains(s) && hosts_.serverUp(s)) serverIds.push_back(s);
  }
  if (serverIds.empty()) return;

  std::unordered_map<AppId, std::uint32_t> appIndex;
  std::vector<AppId> appIds;
  auto internApp = [&](AppId app) {
    const auto [it, inserted] =
        appIndex.emplace(app, static_cast<std::uint32_t>(appIds.size()));
    if (inserted) appIds.push_back(app);
    return it->second;
  };

  PlacementInput input;
  input.servers.reserve(serverIds.size());
  for (ServerId s : serverIds) {
    input.servers.push_back(PlacementServer{topo_.server(s).capacity});
  }

  // Current assignments from live VMs; also interns their apps.  The
  // (app, server) -> VM map is what applyAssignment diffs against: only
  // the pure place() call runs in between, so it is still current there.
  // A pair with several managed VMs keeps the last one listed; the others
  // are surplus: left out of the problem and retired below.
  ExistingVms existing;
  std::vector<std::pair<VmId, Assignment>> resident;
  for (std::uint32_t si = 0; si < serverIds.size(); ++si) {
    for (VmId vm : hosts_.vmsOn(serverIds[si])) {
      if (!hosts_.vmExists(vm)) continue;
      const VmRecord& rec = hosts_.vm(vm);
      if (rec.server != serverIds[si]) continue;  // migration target copy
      if (!isManagedInstance(rec.app, vm)) continue;  // being retired
      const std::uint32_t ai = internApp(rec.app);
      const double rps = apps_.app(rec.app).sla.servableRps(rec.slice) /
                         kSliceHeadroom;
      resident.emplace_back(vm, Assignment{ai, si, rps});
      existing[{ai, si}] = vm;
    }
  }
  std::vector<VmId> surplus;
  for (const auto& [vm, a] : resident) {
    if (existing.at({a.app, a.server}) == vm) {
      input.current.push_back(a);
    } else {
      surplus.push_back(vm);
    }
  }
  // Apps with demand but no managed resident VM come next, in ascending
  // app id (the demand map's order).
  for (const auto& [app, rps] : demand_) {
    internApp(app);
  }

  input.apps.resize(appIds.size());
  for (std::uint32_t ai = 0; ai < appIds.size(); ++ai) {
    const auto it = demand_.find(appIds[ai]);
    input.apps[ai] = PlacementApp{apps_.app(appIds[ai]).sla,
                                  it == demand_.end() ? 0.0 : it->second};
  }

  // --- decide (measuring real decision time) ----------------------------
  const auto t0 = std::chrono::steady_clock::now();
  const PlacementResult result = algorithm_->place(input);
  const auto t1 = std::chrono::steady_clock::now();
  stats_.decisionSeconds =
      std::chrono::duration<double>(t1 - t0).count();

  applyAssignment(input, result, appIds, serverIds, existing);
  for (VmId vm : surplus) retire(vm);
  updateStats(result);
}

void PodManager::applyAssignment(const PlacementInput& input,
                                 const PlacementResult& result,
                                 const std::vector<AppId>& appIds,
                                 const std::vector<ServerId>& serverIds,
                                 const ExistingVms& existing) {
  // Create or resize.  The assignment is unique and in (app, server)
  // order, so the calls below keep that order.
  for (const Assignment& a : result.assignment) {
    if (a.rps <= 1e-9) continue;
    const AppId app = appIds[a.app];
    const ServerId server = serverIds[a.server];
    const AppSla& sla = input.apps[a.app].sla;
    const CapacityVec slice = sla.sliceFor(a.rps, kSliceHeadroom);
    const auto ex = existing.find({a.app, a.server});
    if (ex == existing.end()) {
      const double weight = a.rps;
      auto created = hosts_.createVm(
          app, server, slice, /*clone=*/true,
          [this, app, weight](VmId vm) {
            rips_.requestNewRip(app, vm, weight);
          });
      if (created.ok()) {
        apps_.addInstance(app, created.value());
      }
      // insufficient_capacity can happen when the placement's model lags
      // physical reservations (e.g. in-flight adjustments); skipped this
      // round, retried next.
    } else {
      const VmId vm = ex->second;
      const VmRecord& rec = hosts_.vm(vm);
      if (rec.state != VmState::Active) continue;
      const double curRps = apps_.app(app).sla.servableRps(rec.slice) /
                            kSliceHeadroom;
      if (std::abs(curRps - a.rps) > kResizeDeadband * std::max(curRps, 1.0)) {
        (void)hosts_.adjustVmCapacity(vm, slice);
      }
      // Only submit a weight update when it moved meaningfully; the
      // VIP/RIP manager is a serialized shared resource (§III-C) and
      // chasing every demand wiggle floods its queue.
      const auto lw = lastWeight_.find(vm);
      if (lw == lastWeight_.end() ||
          std::abs(lw->second - a.rps) >
              kWeightDeadband * std::max(lw->second, 1.0)) {
        rips_.requestRipWeight(vm, a.rps);
        lastWeight_[vm] = a.rps;
      }
    }
  }

  // Destroy what placement no longer wants.
  const auto wanted = [&](std::pair<std::uint32_t, std::uint32_t> key) {
    const auto it = std::lower_bound(
        result.assignment.begin(), result.assignment.end(), key,
        [](const Assignment& a, std::pair<std::uint32_t, std::uint32_t> k) {
          return std::pair{a.app, a.server} < k;
        });
    return it != result.assignment.end() && it->app == key.first &&
           it->server == key.second && it->rps > 1e-9;
  };
  for (const auto& [key, vm] : existing) {
    if (!wanted(key)) retire(vm);
  }
}

void PodManager::retire(VmId vm) {
  if (!hosts_.vmExists(vm)) return;
  const VmRecord& rec = hosts_.vm(vm);
  if (rec.state == VmState::Migrating) return;
  // Freshly created instances (e.g. a cross-pod deployment, §IV-D) have
  // not attracted traffic yet; give them a grace period.
  if (sim_.now() - rec.createdAt < kYoungVmGraceSeconds) return;
  apps_.removeInstance(rec.app, vm);
  lastWeight_.erase(vm);
  // Destroy only after the switch tables stop referencing the VM;
  // destroying earlier would black-hole the traffic still arriving.
  rips_.requestRipRemoval(vm, [this, vm] {
    if (hosts_.vmExists(vm) && hosts_.vm(vm).state != VmState::Migrating) {
      hosts_.destroyVm(vm);
    }
  });
}

bool PodManager::isManagedInstance(AppId app, VmId vm) const {
  const auto& inst = apps_.app(app).instances;
  return std::find(inst.begin(), inst.end(), vm) != inst.end();
}

void PodManager::updateStats(const PlacementResult& result) {
  stats_.servers = servers().size();
  std::vector<double> utils;
  std::size_t vms = 0;
  for (ServerId s : servers()) {
    utils.push_back(hosts_.serverUtilization(s));
    for (VmId vm : hosts_.vmsOn(s)) {
      if (hosts_.vmExists(vm)) ++vms;
    }
  }
  stats_.vms = vms;
  stats_.demandRps = result.demandRps;
  stats_.satisfiedRatio = result.satisfactionRatio();
  stats_.meanUtilization = mean(utils);
  stats_.maxUtilization =
      utils.empty() ? 0.0 : *std::max_element(utils.begin(), utils.end());
  stats_.rebalancePasses = result.rebalancePasses;
  stats_.placementChanges = result.instancesStarted + result.instancesStopped;
}

void PodManager::start(SimTime phase) {
  sim_.every(options_.controlPeriod, [this] { runControlLoop(); }, phase);
}

void PodManager::crash() {
  online_ = false;
  ++crashes_;
  // The process's soft state is gone.  Resident VMs (HostFleet) and the
  // intended RIP weights (IntentJournal) are the durable state a restart
  // rebuilds from.
  demand_.clear();
  lastWeight_.clear();
  vacating_.clear();
}

void PodManager::restart(const std::function<double(VmId)>& intendedWeight) {
  MDC_EXPECT(!online_, "restart() of a pod manager that is not down");
  ++restarts_;
  // Checkpoint recovery: resident VMs come back from the HostFleet, their
  // last-applied weights from the replayed intent.  Without this seed the
  // first control round would re-push (and churn) every weight whose
  // demand sits inside the deadband.
  for (ServerId s : servers()) {
    for (VmId vm : hosts_.vmsOn(s)) {
      if (!hosts_.vmExists(vm)) continue;
      const VmRecord& rec = hosts_.vm(vm);
      if (!isManagedInstance(rec.app, vm)) continue;
      lastWeight_[vm] = intendedWeight ? intendedWeight(vm) : 0.0;
    }
  }
  online_ = true;
}

}  // namespace mdc
