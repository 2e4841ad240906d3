#include "mdc/core/interpod_balancer.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "mdc/util/expect.hpp"

namespace mdc {

namespace {
/// A pod below this satisfied/demand ratio is overloaded, whatever its
/// utilization.
constexpr double kSatisfactionFloor = 0.98;
/// Fraction of each hot-pod RIP's weight one RIP-weight action shifts.
constexpr double kWeightShift = 0.3;
/// Minimum spacing between RIP-weight shifts for the same app; shifted
/// weights need a TTL-scale interval to show up in traffic before the
/// next correction, or the knob oscillates against the pod managers.
constexpr SimTime kRipWeightCooldown = 120.0;
/// Over-provisioned app cleanup threshold (served capacity / demand).
constexpr double kScaleInFactor = 2.5;
}  // namespace

InterPodBalancer::InterPodBalancer(Simulation& sim, HostFleet& hosts,
                                   AppRegistry& apps, SwitchFleet& fleet,
                                   VipRipManager& viprip,
                                   PodRegistry& registry,
                                   std::vector<PodManager*> pods,
                                   Options options)
    : sim_(sim),
      hosts_(hosts),
      apps_(apps),
      fleet_(fleet),
      viprip_(viprip),
      registry_(registry),
      pods_(std::move(pods)),
      options_(options) {
  MDC_EXPECT(!pods_.empty(), "inter-pod balancer needs pods");
  for (const PodManager* p : pods_) {
    MDC_EXPECT(p != nullptr, "null pod manager");
  }
}

PodManager* InterPodBalancer::coldestPod(PodId excluding) const {
  PodManager* best = nullptr;
  double bestUtil = std::numeric_limits<double>::infinity();
  for (PodManager* p : pods_) {
    if (p->id() == excluding || frozen(p->id())) continue;
    const double u = p->stats().meanUtilization;
    if (u < bestUtil) {
      bestUtil = u;
      best = p;
    }
  }
  return best;
}

void InterPodBalancer::runOnce(const EpochReport& report) {
  // Command-plane backpressure (E18): when the admission queue is near
  // capacity, every knob here would submit more VIP/RIP work into an
  // already-saturated pipeline and get shed.  Skip the round and honor
  // the admission layer's retry-after hint.
  if (sim_.now() < resumeAt_) {
    ++overloadSkips_;
    return;
  }
  if (viprip_.overloaded()) {
    ++overloadSkips_;
    resumeAt_ = sim_.now() + viprip_.suggestedRetryAfter();
    return;
  }

  if (options_.enableElephantAvoidance) {
    for (PodManager* p : pods_) {
      if (frozen(p->id())) continue;
      const PodStats& st = p->stats();
      if (st.vms > options_.maxVmsPerPod ||
          st.servers > options_.maxServersPerPod) {
        avoidElephant(*p);
      }
    }
  }

  for (PodManager* p : pods_) {
    if (frozen(p->id())) continue;
    const PodStats& st = p->stats();
    const bool overloaded =
        st.maxUtilization > options_.overloadUtilization ||
        st.satisfiedRatio < kSatisfactionFloor;
    if (!overloaded) continue;
    if (options_.enableRipWeight) relieveByRipWeights(*p);
    if (options_.enableAppDeploy) relieveByDeployment(*p, report);
    if (options_.enableServerTransfer) relieveByServerTransfer(*p);
  }

  if (options_.enableAppDeploy) scaleInOverprovisioned(report);
}

void InterPodBalancer::relieveByRipWeights(PodManager& hot) {
  // For each app covering both the hot pod and a cooler pod, shift RIP
  // weight from the hot pod's VMs to the cool pod's VMs of the same VIP.
  // Sum-preserving: the weight removed here is added there (§IV-F).
  std::unordered_set<ServerId> hotServers(hot.servers().begin(),
                                          hot.servers().end());
  for (AppId app : hot.coveredApps()) {
    const auto last = lastWeightShift_.find(app);
    if (last != lastWeightShift_.end() &&
        sim_.now() - last->second < kRipWeightCooldown) {
      continue;
    }
    const Application& a = apps_.app(app);
    // Partition the app's VMs into hot-pod and other-pod groups.
    std::vector<VmId> inHot, elsewhere;
    for (VmId vm : a.instances) {
      if (!hosts_.vmExists(vm)) continue;
      if (hosts_.vm(vm).state != VmState::Active) continue;
      if (hotServers.contains(hosts_.vm(vm).server)) {
        inHot.push_back(vm);
      } else {
        // Only shift toward VMs on servers with headroom.
        if (hosts_.serverUtilization(hosts_.vm(vm).server) <
            options_.underloadUtilization) {
          elsewhere.push_back(vm);
        }
      }
    }
    if (inHot.empty() || elsewhere.empty()) continue;

    double shifted = 0.0;
    for (VmId vm : inHot) {
      for (const auto& ref : viprip_.ripsOf(vm)) {
        const VipEntry* entry = fleet_.findVip(ref.vip);
        if (entry == nullptr) continue;
        const RipEntry* rip = entry->findRip(ref.rip);
        if (rip == nullptr || rip->weight <= 0.0) continue;
        const double delta = rip->weight * kWeightShift;
        (void)fleet_.setRipWeight(ref.vip, ref.rip, rip->weight - delta);
        shifted += delta;
      }
    }
    if (shifted <= 0.0) continue;
    const double perVm = shifted / static_cast<double>(elsewhere.size());
    for (VmId vm : elsewhere) {
      for (const auto& ref : viprip_.ripsOf(vm)) {
        const VipEntry* entry = fleet_.findVip(ref.vip);
        if (entry == nullptr) continue;
        const RipEntry* rip = entry->findRip(ref.rip);
        if (rip == nullptr) continue;
        (void)fleet_.setRipWeight(ref.vip, ref.rip, rip->weight + perVm);
      }
    }
    lastWeightShift_[app] = sim_.now();
    ++ripWeightActions_;
  }
}

void InterPodBalancer::relieveByDeployment(PodManager& hot,
                                           const EpochReport& report) {
  // Replicate the hot pod's highest-demand app into the coldest pod.
  PodManager* cold = coldestPod(hot.id());
  if (cold == nullptr) return;
  if (cold->stats().meanUtilization > options_.underloadUtilization) return;

  // The pod's most *unserved* app, rate-limited per app so one decision
  // gets time to take effect before the next clone.
  AppId victim;
  double bestUnserved = 0.0;
  for (AppId app : hot.coveredApps()) {
    const auto d = report.appDemandRps.find(app);
    const double demand = d == report.appDemandRps.end() ? 0.0 : d->second;
    const auto sv = report.appServedRps.find(app);
    const double served = sv == report.appServedRps.end() ? 0.0 : sv->second;
    const double unserved = demand - served;
    const auto last = lastDeploy_.find(app);
    if (last != lastDeploy_.end() &&
        sim_.now() - last->second < options_.deployCooldown) {
      continue;
    }
    if (unserved > bestUnserved) {
      bestUnserved = unserved;
      victim = app;
    }
  }
  if (!victim.valid() || bestUnserved <= 1.0) return;

  // Size the clone for the unserved demand, capped at roughly half a
  // server; place it on the cold pod's emptiest fitting server.
  const AppSla& sla = apps_.app(victim).sla;
  double instanceRps = bestUnserved;
  for (ServerId s : cold->servers()) {
    const double cap = sla.servableRps(hosts_.freeCapacity(s));
    instanceRps = std::min(instanceRps, std::max(cap * 0.5, 1.0));
    break;
  }
  const CapacityVec slice = sla.sliceFor(instanceRps, kSliceHeadroom);
  ServerId target;
  double bestUtil = std::numeric_limits<double>::infinity();
  for (ServerId s : cold->servers()) {
    if (!hosts_.serverUp(s)) continue;
    if (!slice.fitsWithin(hosts_.freeCapacity(s))) continue;
    const double u = hosts_.serverUtilization(s);
    if (u < bestUtil) {
      bestUtil = u;
      target = s;
    }
  }
  if (!target.valid()) return;

  auto created = hosts_.createVm(
      victim, target, slice, /*clone=*/true, [this, victim, instanceRps](VmId vm) {
        VipRipRequest req;
        req.op = VipRipOp::NewRip;
        req.app = victim;
        req.vm = vm;
        req.weight = instanceRps;
        viprip_.submit(std::move(req));
      });
  if (created.ok()) {
    apps_.addInstance(victim, created.value());
    lastDeploy_[victim] = sim_.now();
    ++deployActions_;
  }
}

void InterPodBalancer::scaleInOverprovisioned(const EpochReport& report) {
  // Remove redundant instances of apps whose serving capacity far exceeds
  // demand and that cover many pods (§IV-D's reverse direction).
  for (const Application& a : apps_.all()) {
    if (a.instances.size() < 3) continue;
    const auto it = report.appDemandRps.find(a.id);
    const double demand = it == report.appDemandRps.end() ? 0.0 : it->second;
    double capacity = 0.0;
    VmId busiestPodVm;
    double busiest = -1.0;
    for (VmId vm : a.instances) {
      if (!hosts_.vmExists(vm) || hosts_.vm(vm).state != VmState::Active) {
        continue;
      }
      capacity += a.sla.servableRps(hosts_.vm(vm).effectiveSlice);
      const double u = hosts_.serverUtilization(hosts_.vm(vm).server);
      if (u > busiest) {
        busiest = u;
        busiestPodVm = vm;
      }
    }
    if (!busiestPodVm.valid()) continue;
    if (capacity <= kScaleInFactor * std::max(demand, 1.0)) continue;

    apps_.removeInstance(a.id, busiestPodVm);
    const VmId doomed = busiestPodVm;
    const AppId doomedApp = a.id;
    VipRipRequest req;
    req.op = VipRipOp::DeleteRip;
    req.vm = doomed;
    req.done = [this, doomed, doomedApp](Status s) {
      if (!s.ok()) {
        // The RIPs are still in the switch tables (shed, deadline, or
        // cancellation); destroying the VM now would strand live RIPs.
        // Re-register the instance and let a later round retry.
        if (hosts_.vmExists(doomed) && !apps_.isInstance(doomedApp, doomed)) {
          apps_.addInstance(doomedApp, doomed);
        }
        return;
      }
      if (!viprip_.ripsOf(doomed).empty()) {
        // A concurrent NewRip re-bound the VM between our DeleteRip's
        // commit and its switch acks (command storms make this real).
        // Destroying now would leave intent and actual agreeing on a
        // RIP to a dead VM — reconciler-blind.  Hand the VM back; a
        // later round re-decides whether it still wants it gone.
        if (hosts_.vmExists(doomed) && !apps_.isInstance(doomedApp, doomed)) {
          apps_.addInstance(doomedApp, doomed);
        }
        return;
      }
      if (hosts_.vmExists(doomed) &&
          hosts_.vm(doomed).state != VmState::Migrating) {
        hosts_.destroyVm(doomed);
      }
    };
    viprip_.submit(std::move(req));
    ++scaleInActions_;
  }
}

void InterPodBalancer::relieveByServerTransfer(PodManager& hot) {
  PodManager* donor = coldestPod(hot.id());
  if (donor == nullptr) return;
  if (donor->stats().meanUtilization > options_.underloadUtilization) return;
  if (donor->servers().size() <= options_.serversPerTransfer) return;

  PodManager* recipient = &hot;
  const auto donors = donor->pickDonorServers(options_.serversPerTransfer);
  for (ServerId s : donors) {
    const bool started = donor->vacateServer(
        s, [recipient](ServerId freed) { recipient->adoptServer(freed); });
    if (started) ++serverTransfers_;
  }
}

void InterPodBalancer::avoidElephant(PodManager& pod) {
  // Move servers *with* their VMs to the smallest pod (by VM count).
  PodManager* smallest = nullptr;
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (PodManager* p : pods_) {
    if (p->id() == pod.id() || frozen(p->id())) continue;
    if (p->stats().vms < best) {
      best = p->stats().vms;
      smallest = p;
    }
  }
  if (smallest == nullptr) return;
  if (best >= pod.stats().vms) return;  // nowhere meaningfully smaller

  // Shed the busiest servers: they carry the most decision-space weight.
  std::vector<ServerId> servers(pod.servers().begin(), pod.servers().end());
  std::stable_sort(servers.begin(), servers.end(),
                   [&](ServerId a, ServerId b) {
                     return hosts_.vmsOn(a).size() > hosts_.vmsOn(b).size();
                   });
  const std::size_t n =
      std::min<std::size_t>(options_.elephantSheddingBatch, servers.size());
  for (std::size_t i = 0; i < n; ++i) {
    smallest->adoptServer(servers[i]);
    ++elephantSheds_;
  }
}

}  // namespace mdc
