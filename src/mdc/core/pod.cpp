#include "mdc/core/pod.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>

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

std::size_t VmWeightTable::home(VmId vm) const noexcept {
  // Fibonacci hashing: the multiply spreads consecutive ids over the
  // table, and its top bits pick the slot.
  const auto bits = static_cast<unsigned>(std::countr_zero(slots_.size()));
  return static_cast<std::size_t>(
      (std::uint64_t{vm.value()} * 0x9e3779b97f4a7c15ull) >> (64 - bits));
}

std::size_t VmWeightTable::probe(VmId vm) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(vm);
  while (slots_[i].vm.valid() && slots_[i].vm != vm) i = (i + 1) & mask;
  return i;
}

const double* VmWeightTable::find(VmId vm) const noexcept {
  if (size_ == 0) return nullptr;
  const Slot& s = slots_[probe(vm)];
  return s.vm.valid() ? &s.weight : nullptr;
}

void VmWeightTable::set(VmId vm, double weight) {
  MDC_EXPECT(vm.valid(), "weight of an invalid vm");
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.vm.valid()) slots_[probe(s.vm)] = s;
    }
  }
  Slot& s = slots_[probe(vm)];
  if (!s.vm.valid()) {
    s.vm = vm;
    ++size_;
  }
  s.weight = weight;
}

void VmWeightTable::erase(VmId vm) noexcept {
  if (size_ == 0) return;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = probe(vm);
  if (!slots_[hole].vm.valid()) return;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one before its home slot.
  for (std::size_t i = (hole + 1) & mask; slots_[i].vm.valid();
       i = (i + 1) & mask) {
    const std::size_t h = home(slots_[i].vm);
    const bool homeInGap = hole <= i ? (hole < h && h <= i)
                                     : (hole < h || h <= i);
    if (!homeInGap) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

void VmWeightTable::clear() noexcept {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

std::vector<std::pair<VmId, double>> VmWeightTable::sorted() const {
  std::vector<std::pair<VmId, double>> out;
  out.reserve(size_);
  for (const Slot& s : slots_) {
    if (s.vm.valid()) out.emplace_back(s.vm, s.weight);
  }
  // LSD radix sort on the id, a byte per pass (a pass whose byte every id
  // shares is skipped): linear in the entries, where a comparison sort of
  // a 5%-scale pod's ~11k took 1-2 ms.
  std::vector<std::pair<VmId, double>> next(out.size());
  for (unsigned shift = 0; shift < 32; shift += 8) {
    const auto digit = [shift](VmId vm) {
      return (vm.value() >> shift) & 0xffu;
    };
    std::array<std::size_t, 257> start{};
    for (const auto& e : out) ++start[digit(e.first) + 1];
    if (std::find(start.begin(), start.end(), out.size()) != start.end()) {
      continue;
    }
    for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const auto& e : out) next[start[digit(e.first)]++] = e;
    out.swap(next);
  }
  return out;
}

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

  PlacementInput input;
  input.servers.reserve(serverIds.size());
  for (ServerId s : serverIds) {
    input.servers.push_back(PlacementServer{topo_.server(s).capacity});
  }

  // Problem apps are numbered at first sight; `appIndex` maps an AppId to
  // its number for this round only.
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> appIndex(apps_.size(), kNone);
  std::vector<AppId> appIds;
  const auto internApp = [&](AppId app) {
    MDC_EXPECT(app.index() < appIndex.size(), "unknown app");
    std::uint32_t& ai = appIndex[app.index()];
    if (ai == kNone) {
      ai = static_cast<std::uint32_t>(appIds.size());
      appIds.push_back(app);
      input.apps.push_back(PlacementApp{apps_.app(app).sla, 0.0});
    }
    return ai;
  };

  // Current assignments from live managed VMs, walked server by server in
  // pod order; also interns their apps.  A pair with several managed VMs
  // keeps the last one listed; the others are surplus: left out of the
  // problem and retired below.  Each app's last (server, position) is
  // stamped, so the VM it supersedes is known without a lookup.
  struct Resident {
    VmId vm;
    Assignment a;
    bool surplus = false;
  };
  std::vector<Resident> resident;
  std::vector<std::pair<std::uint32_t, std::size_t>> last;  // by app index
  for (std::uint32_t si = 0; si < serverIds.size(); ++si) {
    for (VmId vm : hosts_.vmsOn(serverIds[si])) {
      if (!hosts_.vmExists(vm)) continue;
      const VmRecord& rec = hosts_.vm(vm);
      if (rec.server != serverIds[si]) continue;  // migration target copy
      if (!apps_.isInstance(rec.app, vm)) continue;  // being retired
      const std::uint32_t ai = internApp(rec.app);
      last.resize(appIds.size(), {kNone, 0});
      auto& [lastServer, lastPos] = last[ai];
      if (lastServer == si) resident[lastPos].surplus = true;
      lastServer = si;
      lastPos = resident.size();
      const double rps =
          input.apps[ai].sla.servableRps(rec.slice) / kSliceHeadroom;
      resident.push_back(Resident{vm, Assignment{ai, si, rps}});
    }
  }
  // Apps with demand but no managed resident VM come next, in ascending
  // app id (the demand map's order); residents take their demand here.
  for (const auto& [app, rps] : demand_) {
    input.apps[internApp(app)].demandRps = rps;
  }

  // input.current keeps the walk order.  The existing placement that
  // applyAssignment diffs against is bucketed by app: each app's pairs
  // arrive in ascending server order, so that sorts it by (app, server).
  // Only the pure place() call runs in between, so it is still current.
  std::vector<VmId> surplus;
  std::vector<std::uint32_t> bucket(appIds.size() + 1, 0);
  for (const Resident& r : resident) {
    if (r.surplus) {
      surplus.push_back(r.vm);
    } else {
      input.current.push_back(r.a);
      ++bucket[r.a.app + 1];
    }
  }
  for (std::size_t ai = 1; ai < bucket.size(); ++ai) {
    bucket[ai] += bucket[ai - 1];
  }
  std::vector<ExistingVm> existing(input.current.size());
  for (const Resident& r : resident) {
    if (!r.surplus) {
      existing[bucket[r.a.app]++] = ExistingVm{r.a.app, r.a.server, r.vm};
    }
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
                                 const std::vector<ExistingVm>& existing) {
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  const auto key = [](const auto& x) { return Key{x.app, x.server}; };

  // Create or resize: one merge of the assignment against the existing
  // placement, both unique and in (app, server) order, so the calls keep
  // the assignment's order.
  auto ex = existing.begin();
  for (std::size_t i = 0; i < result.assignment.size(); ++i) {
    const Assignment& a = result.assignment[i];
    MDC_EXPECT(i == 0 || key(result.assignment[i - 1]) < key(a),
               "placement assignment not unique in (app, server) order");
    if (a.rps <= 1e-9) continue;
    while (ex != existing.end() && key(*ex) < key(a)) ++ex;
    const AppId app = appIds[a.app];
    const ServerId server = serverIds[a.server];
    const AppSla& sla = input.apps[a.app].sla;
    const CapacityVec slice = sla.sliceFor(a.rps, kSliceHeadroom);
    if (ex == existing.end() || key(*ex) != key(a)) {
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
      const VmId vm = ex->vm;
      const VmRecord& rec = hosts_.vm(vm);
      if (rec.state != VmState::Active) continue;
      const double curRps = sla.servableRps(rec.slice) / kSliceHeadroom;
      if (std::abs(curRps - a.rps) > kResizeDeadband * std::max(curRps, 1.0)) {
        (void)hosts_.adjustVmCapacity(vm, slice);
      }
      // Only submit a weight update when it moved meaningfully; the
      // VIP/RIP manager is a serialized shared resource (§III-C) and
      // chasing every demand wiggle floods its queue.
      const double* lw = lastWeight_.find(vm);
      if (lw == nullptr ||
          std::abs(*lw - a.rps) > kWeightDeadband * std::max(*lw, 1.0)) {
        rips_.requestRipWeight(vm, a.rps);
        lastWeight_.set(vm, a.rps);
      }
    }
  }

  // Destroy what placement no longer wants: a second merge, in the
  // existing placement's order.
  auto want = result.assignment.begin();
  for (const ExistingVm& e : existing) {
    while (want != result.assignment.end() && key(*want) < key(e)) ++want;
    const bool wanted = want != result.assignment.end() &&
                        key(*want) == key(e) && want->rps > 1e-9;
    if (!wanted) retire(e.vm);
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

void PodManager::updateStats(const PlacementResult& result) {
  stats_.servers = servers().size();
  std::vector<double> utils;
  std::size_t vms = 0;
  for (ServerId s : servers()) {
    utils.push_back(hosts_.serverUtilization(s));
    // A VM migrating inside the pod is attached to both of its servers;
    // it counts once, on the server it serves from.
    for (VmId vm : hosts_.vmsOn(s)) {
      if (hosts_.vmExists(vm) && hosts_.vm(vm).server == s) ++vms;
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
      if (!apps_.isInstance(hosts_.vm(vm).app, vm)) continue;
      lastWeight_.set(vm, intendedWeight ? intendedWeight(vm) : 0.0);
    }
  }
  online_ = true;
}

}  // namespace mdc
