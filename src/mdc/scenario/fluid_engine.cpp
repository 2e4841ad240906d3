#include "mdc/scenario/fluid_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>

#include "mdc/util/expect.hpp"
#include "mdc/util/stats.hpp"

namespace mdc {

namespace {
constexpr double kEpsRps = 1e-9;
constexpr int kMaxVipDepth = 3;  // external VIP -> m-VIP -> VM at most

// Unrouted-demand causes, stored as indices in the per-app cache and
// materialised as report keys only at emission time.
constexpr std::uint8_t kNoDns = 0;
constexpr std::uint8_t kNoShares = 1;
constexpr std::uint8_t kNoRoute = 2;
constexpr std::uint8_t kDepth = 3;
constexpr std::uint8_t kNoOwner = 4;
constexpr std::uint8_t kNoRips = 5;
constexpr std::uint8_t kDeadVm = 6;
const std::array<std::string, 7> kCauseNames = {
    "no_dns", "no_shares", "no_route", "depth",
    "no_owner", "no_rips", "dead_vm"};
}  // namespace

// The links one flow crosses, stored inline: the access link, the trunk of
// each LB switch that owns a VIP on the way down (at most kMaxVipDepth),
// the silo uplink on the traditional tree, and the server NIC.  descend()
// copies it by value as it recurses, so sibling flows never share storage.
struct FluidEngine::Path {
  static constexpr std::size_t kMaxLinks = kMaxVipDepth + 3;

  std::array<LinkId, kMaxLinks> links;
  std::uint8_t size = 0;

  void push(LinkId link) {
    MDC_ENSURE(size < kMaxLinks, "flow path exceeds its link bound");
    links[size++] = link;
  }
  [[nodiscard]] std::span<const LinkId> view() const {
    return {links.data(), size};
  }
};

// One application's resolved flow tree plus the config versions it was
// derived from.  The outcome vectors keep the exact order the sequential
// descent would emit in, so replaying a cached tree is bit-identical to
// recomputing it.
struct FluidEngine::AppCache {
  // How far the app's evaluation got; what must hold for the cache to
  // stay valid depends on it (see FluidEngine::cacheValid).
  enum class Stage : std::uint8_t {
    DemandOnly,  // demand <= eps: nothing else was consulted
    NoDns,       // app missing from DNS: valid until DNS topology grows
    Routed       // full descent: valid while every recorded version holds
  };

  bool valid = false;
  Stage stage = Stage::DemandOnly;
  bool hadDns = false;
  double demandRps = 0.0;
  std::uint64_t dnsTopoDep = 0;
  std::uint64_t sharesDep = 0;

  struct Flow {
    VmRecord* vm;  // stable: HostFleet never erases VM records
    double rps;
    Path path;
  };

  // Outcome, in descent-visit order.
  std::vector<std::pair<std::uint8_t, double>> unrouted;  // cause, rps
  std::vector<std::pair<VipId, double>> vipDemandRps;
  std::vector<double> degradedRps;  // fallback-routed shares
  std::vector<Flow> flows;

  // Version dependencies recorded during the descent.
  std::vector<std::pair<VipId, std::uint64_t>> fleetDeps;
  std::vector<std::pair<VipId, std::uint64_t>> routeDeps;
  std::vector<std::pair<VmId, std::uint64_t>> vmDeps;

  void clearOutcome() {
    unrouted.clear();
    vipDemandRps.clear();
    degradedRps.clear();
    flows.clear();
    fleetDeps.clear();
    routeDeps.clear();
    vmDeps.clear();
  }
};

FluidEngine::FluidEngine(Simulation& sim, const Topology& topo,
                         AppRegistry& apps, AuthoritativeDns& dns,
                         ResolverPopulation& resolvers, RouteRegistry& routes,
                         SwitchFleet& fleet, HostFleet& hosts,
                         const DemandModel& demand, Options options)
    : sim_(sim),
      topo_(topo),
      apps_(apps),
      dns_(dns),
      resolvers_(resolvers),
      routes_(routes),
      fleet_(fleet),
      hosts_(hosts),
      demand_(demand),
      options_(options),
      demandInvariant_(demand.timeInvariant()),
      // resolveWorkers clamps to physical cores (unless the caller set
      // MDC_ALLOW_OVERSUBSCRIBE), so workers() > 1 implies the parallel
      // phases genuinely run concurrently — no further gating needed.
      pool_(ThreadPool::resolveWorkers(options.workers)) {
  MDC_EXPECT(options.epoch > 0.0, "epoch must be positive");
}

FluidEngine::~FluidEngine() = default;

bool FluidEngine::cacheValid(AppId app, const AppCache& c) const {
  using Stage = AppCache::Stage;
  if (c.stage == Stage::DemandOnly) return true;
  if (c.stage == Stage::NoDns) {
    // Apps are never unregistered, so "not in DNS" can only flip when
    // the registered set grows.
    return dns_.topologyVersion() == c.dnsTopoDep;
  }
  if (resolvers_.sharesVersion(app) != c.sharesDep) return false;
  for (const auto& [vip, v] : c.routeDeps) {
    if (routes_.routeVersion(vip) != v) return false;
  }
  for (const auto& [vip, v] : c.fleetDeps) {
    if (fleet_.vipConfigVersion(vip) != v) return false;
  }
  for (const auto& [vm, v] : c.vmDeps) {
    if (hosts_.vmConfigVersion(vm) != v) return false;
  }
  return true;
}

// Recursive descent from a VIP to VMs, following m-VIP indirection for
// the two-LB-layer architecture (§V-B).  `path` holds the links already
// crossed (access link + upstream switch trunks).  Runs on pool workers
// for disjoint apps: every store access is a const read and every write
// lands in the app's own cache entry, so the descent needs no
// synchronisation at all.  The depth check keeps every path within
// Path::kMaxLinks.
void FluidEngine::descend(AppId app, VipId vip, double rps, Path path,
                          int depth, AppCache& c) {
  if (rps <= kEpsRps) return;
  if (depth >= kMaxVipDepth) {
    c.unrouted.emplace_back(kDepth, rps);
    return;
  }
  const SwitchFleet& fleet = fleet_;
  c.fleetDeps.emplace_back(vip, fleet.vipConfigVersion(vip));
  const auto owner = fleet.ownerOf(vip);
  if (!owner.has_value()) {
    c.unrouted.emplace_back(kNoOwner, rps);
    return;
  }
  const VipEntry* entry = fleet.at(*owner).findVip(vip);
  MDC_ENSURE(entry != nullptr, "fleet ownership index out of sync");
  const double totalWeight = entry->totalWeight();
  if (entry->rips.empty() || totalWeight <= 0.0) {
    c.unrouted.emplace_back(kNoRips, rps);
    return;
  }
  c.vipDemandRps.emplace_back(vip, rps);
  path.push(topo_.switchTrunk(*owner));
  const bool traditional =
      topo_.config().fabric == FabricKind::TraditionalTree;
  for (const RipEntry& rip : entry->rips) {
    const double ripRps = rps * rip.weight / totalWeight;
    if (ripRps <= kEpsRps) continue;
    if (rip.targetsVm()) {
      c.vmDeps.emplace_back(rip.vm, hosts_.vmConfigVersion(rip.vm));
      if (!hosts_.vmExists(rip.vm)) {
        c.unrouted.emplace_back(kDeadVm, ripRps);
        continue;
      }
      VmRecord& rec = hosts_.vmMutable(rip.vm);
      // The serving phase partitions VM writes by application: every VM
      // must be reached through its own app's VIPs only.
      MDC_ENSURE(rec.app == app,
                 "RIP routes one app's demand to another app's VM");
      const ServerInfo& srv = topo_.server(rec.server);
      Path leaf = path;
      if (traditional) leaf.push(topo_.siloUplink(srv.silo));
      leaf.push(srv.nic);
      c.flows.push_back(AppCache::Flow{&rec, ripRps, leaf});
    } else {
      descend(app, rip.mvip, ripRps, path, depth + 1, c);
    }
  }
}

void FluidEngine::computeApp(AppId app, AppCache& c,
                             std::span<const VipWeight> shares) {
  using Stage = AppCache::Stage;
  c.clearOutcome();
  c.valid = true;
  const double demandRps = c.demandRps;
  if (demandRps <= kEpsRps) {
    c.stage = Stage::DemandOnly;
    return;
  }
  if (!c.hadDns) {
    c.stage = Stage::NoDns;
    c.unrouted.emplace_back(kNoDns, demandRps);
    return;
  }
  c.stage = Stage::Routed;
  double shareSum = 0.0;
  for (const VipWeight& sh : shares) shareSum += sh.weight;
  if (shares.empty() || shareSum <= kEpsRps) {
    // No VIP of the app is exposed (all weights zero, e.g. every RIP
    // lost); clients cannot reach it at all.
    c.unrouted.emplace_back(kNoShares, demandRps);
    return;
  }
  for (const VipWeight& sh : shares) {
    const double vipRps = demandRps * sh.weight;
    if (vipRps <= kEpsRps) continue;

    c.routeDeps.emplace_back(sh.vip, routes_.routeVersion(sh.vip));
    auto routers = routes_.activeRouters(sh.vip);
    bool degraded = false;
    if (routers.empty()) {
      // No converged route attracts new traffic; fall back to padded /
      // draining routes so existing clients keep a path.
      routers = routes_.reachableRouters(sh.vip);
      degraded = !routers.empty();
    }
    if (routers.empty()) {
      c.unrouted.emplace_back(kNoRoute, vipRps);
      continue;
    }
    if (degraded) c.degradedRps.push_back(vipRps);
    const double perRouter = vipRps / static_cast<double>(routers.size());
    for (AccessRouterId ar : routers) {
      Path access;
      access.push(topo_.accessLinkFor(ar).link);
      descend(app, sh.vip, perRouter, access, 0, c);
    }
  }
}

EpochReport FluidEngine::step() {
  const SimTime now = sim_.now();
  resolvers_.advance(now);
  routes_.settle(now);

  EpochReport report;
  report.time = now;

  const std::vector<Application>& appList = apps_.all();
  const std::size_t n = appList.size();
  if (cache_.size() < n) cache_.resize(n);

  // --- Phase A0: validate caches, snapshot the inputs of dirty apps ----
  // Sequential by design: shares() may lazily materialise resolver pools,
  // and validation is nothing but dense version-array loads.
  const bool incremental = options_.incremental;
  dirty_.clear();
  {
    const auto prof = profiler_.time(PhaseProfiler::Phase::Validate);
    for (std::size_t i = 0; i < n; ++i) {
      const Application& app = appList[i];
      AppCache& c = cache_[app.id.index()];
      const double d = (incremental && c.valid && demandInvariant_)
                           ? c.demandRps
                           : demand_.rps(app.id, now);
      if (incremental && c.valid && d == c.demandRps &&
          cacheValid(app.id, c)) {
        continue;
      }
      c.demandRps = d;
      c.hadDns = false;
      std::vector<VipWeight> shares;
      if (d > kEpsRps) {
        c.hadDns = dns_.hasApp(app.id);
        if (c.hadDns) {
          shares = resolvers_.shares(app.id);
          // Read the version after shares(): a first call materialises the
          // pool and moves the version.
          c.sharesDep = resolvers_.sharesVersion(app.id);
        } else {
          c.dnsTopoDep = dns_.topologyVersion();
        }
      }
      const std::size_t k = dirty_.size();
      dirty_.push_back(app.id.index());
      if (k < dirtyShares_.size()) {
        dirtyShares_[k] = std::move(shares);
      } else {
        dirtyShares_.push_back(std::move(shares));
      }
    }
  }
  if (incremental) {
    report.engineAppsRecomputed = static_cast<std::uint32_t>(dirty_.size());
    report.engineAppsCached = static_cast<std::uint32_t>(n - dirty_.size());
    totalRecomputed_ += dirty_.size();
    totalCached_ += n - dirty_.size();
  }

  // --- Phase A1: re-descend dirty apps on the pool ---------------------
  // Static contiguous ranges over the dirty list; each worker writes only
  // its own apps' cache slots, so the fan-out runs with zero
  // synchronisation.  The join is the barrier phases B and C rely on to
  // read the caches.
  {
    const auto prof = profiler_.time(PhaseProfiler::Phase::Descent);
    pool_.parallelRanges(
        dirty_.size(), [&](unsigned, std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) {
            const AppId app{static_cast<AppId::value_type>(dirty_[k])};
            computeApp(app, cache_[dirty_[k]], dirtyShares_[k]);
          }
        });
  }

  ++epochStamp_;
  if (appServed_.size() < n) {
    appServed_.resize(n, 0.0);
    appServedStamp_.resize(n, 0);
  }
  linkOffered_.assign(topo_.network().linkCount(), 0.0);

  // --- Phase B: emit every app's tree into the report ------------------
  // Serial, always in application order, so per-accumulator addition
  // sequences — and therefore the floating-point results — are
  // independent of which apps happened to be cached and of the worker
  // count.  Link loads get one addition per flow and link; per-VIP demand
  // accumulates into a dense epoch-stamped array (apps may share a VIP)
  // and is scanned into the sorted report map afterwards.
  report.appDemandRps.reserve(n);
  report.appServedRps.reserve(n);
  {
    const auto prof = profiler_.time(PhaseProfiler::Phase::Emit);
    for (std::size_t i = 0; i < n; ++i) {
      const Application& app = appList[i];
      const AppCache& c = cache_[app.id.index()];
      const double gbpsPerKrps = app.sla.gbpsPerKrps;  // hoisted per app
      report.appDemandRps[app.id] = c.demandRps;
      for (const auto& [cause, rps] : c.unrouted) {
        report.unroutedRps += rps;
        report.unroutedByCause[kCauseNames[cause]] += rps;
      }
      for (const auto& [vip, rps] : c.vipDemandRps) {
        const std::size_t vi = vip.index();
        if (vi >= vipGbps_.size()) {
          vipGbps_.resize(vi + 1, 0.0);
          vipStamp_.resize(vi + 1, 0);
        }
        if (vipStamp_[vi] != epochStamp_) {
          vipStamp_[vi] = epochStamp_;
          vipGbps_[vi] = 0.0;
        }
        vipGbps_[vi] += rps * gbpsPerKrps / 1000.0;
      }
      for (const double rps : c.degradedRps) {
        report.degradedRoutedRps += rps;
      }
      for (const AppCache::Flow& f : c.flows) {
        const double gbps = f.rps * gbpsPerKrps / 1000.0;
        for (const LinkId l : f.path.view()) linkOffered_[l.index()] += gbps;
      }
    }
    report.vipDemandGbps.reserve(fleet_.totalVips());
    for (std::size_t vi = 0; vi < vipGbps_.size(); ++vi) {
      if (vipStamp_[vi] == epochStamp_) {
        report.vipDemandGbps[VipId{
            static_cast<VipId::value_type>(vi)}] = vipGbps_[vi];
      }
    }
  }

  // --- Phase C: serving — network fraction first, then VM capacity -----
  // Parallel over static app ranges.  Safe because descend() enforces
  // that a VM is only ever reached through its own application's VIPs:
  // the VmId-indexed accumulators, the VmRecord gauges, and the per-app
  // served totals are all partitioned by application, which is exactly
  // how the ranges partition the work.  Per-flow served fractions read
  // the (now frozen) linkOffered_ array; per-app served sums accumulate
  // in flow order, so results stay bit-identical for any worker count.
  // The scope runs to the end of step(), so "c_serve" covers serving,
  // utilization, the snapshot sections, and publishing the report.
  const auto serveProf = profiler_.time(PhaseProfiler::Phase::Serve);
  const std::size_t vmBound = hosts_.vmIndexBound();
  if (vmOffered_.size() < vmBound) {
    vmOffered_.resize(vmBound, 0.0);
    vmNetRps_.resize(vmBound, 0.0);
    vmStamp_.resize(vmBound, 0);
  }
  if (touched_.size() < pool_.workers()) touched_.resize(pool_.workers());
  for (WorkerTouched& wt : touched_) {  // gauges of last epoch's targets
    for (VmRecord* vm : wt.vms) {
      vm->offeredRps = 0.0;
      vm->servedRps = 0.0;
    }
    wt.vms.clear();
  }
  const Network& net = topo_.network();
  pool_.parallelRanges(n, [&](unsigned slot, std::size_t lo,
                              std::size_t hi) {
    std::vector<VmRecord*>& myTouched = touched_[slot].vms;
    for (std::size_t i = lo; i < hi; ++i) {
      const Application& app = appList[i];
      const AppCache& c = cache_[app.id.index()];
      const std::size_t firstTouched = myTouched.size();
      for (const AppCache::Flow& f : c.flows) {
        double fraction = 1.0;
        for (const LinkId l : f.path.view()) {
          const double cap = net.link(l).capacityGbps;
          const double off = linkOffered_[l.index()];
          if (off > cap) {
            fraction = std::min(fraction, cap > 0.0 ? cap / off : 0.0);
          }
        }
        const std::size_t vi = f.vm->id.index();
        if (vmStamp_[vi] != epochStamp_) {
          vmStamp_[vi] = epochStamp_;
          vmOffered_[vi] = 0.0;
          vmNetRps_[vi] = 0.0;
          myTouched.push_back(f.vm);
        }
        vmOffered_[vi] += f.rps;
        vmNetRps_[vi] += f.rps * fraction;
      }
      if (firstTouched == myTouched.size()) continue;
      // All of this app's flows are in, so its VMs' accumulators are
      // final: apply the VM serving limit and total the app right here.
      double served = 0.0;
      for (std::size_t t = firstTouched; t < myTouched.size(); ++t) {
        VmRecord* vm = myTouched[t];
        const std::size_t vi = vm->id.index();
        vm->offeredRps = vmOffered_[vi];
        const double capRps = app.sla.servableRps(vm->effectiveSlice);
        vm->servedRps = std::min(vmNetRps_[vi], capRps);
        served += vm->servedRps;
      }
      appServed_[app.id.index()] = served;
      appServedStamp_[app.id.index()] = epochStamp_;
    }
  });
  // Apps are id-dense, so the ascending scan appends the sorted map.
  for (std::size_t ai = 0; ai < n; ++ai) {
    if (appServedStamp_[ai] == epochStamp_) {
      report.appServedRps[AppId{static_cast<AppId::value_type>(ai)}] =
          appServed_[ai];
    }
  }

  // Link and switch utilization.
  report.accessLinkUtil.resize(topo_.accessLinkCount());
  for (std::size_t i = 0; i < topo_.accessLinkCount(); ++i) {
    const Link& l = net.link(topo_.accessLink(i).link);
    const double off = linkOffered_[l.id.index()];
    report.accessLinkUtil[i] = l.capacityGbps > 0.0
                                   ? off / l.capacityGbps
                                   : (off > 0.0 ? 1e9 : 0.0);
    report.externalOfferedGbps += off;
    report.externalServedGbps += std::min(off, l.capacityGbps);
  }
  report.switchUtil.resize(topo_.switchCount());
  for (std::size_t i = 0; i < topo_.switchCount(); ++i) {
    const SwitchId sw{static_cast<SwitchId::value_type>(i)};
    const Link& trunk = net.link(topo_.switchTrunk(sw));
    const double off = linkOffered_[trunk.id.index()];
    report.switchUtil[i] =
        trunk.capacityGbps > 0.0 ? off / trunk.capacityGbps : 0.0;
    if (i < fleet_.size()) fleet_.at(sw).setOfferedGbps(off);
  }

  if (decorate_) decorate_(report);

  // Recorded series.
  const bool room =
      options_.maxSamples == 0 || satisfaction_.size() < options_.maxSamples;
  if (room) {
    linkImbalance_.record(now, maxOverMean(report.accessLinkUtil));
    switchImbalance_.record(now, maxOverMean(report.switchUtil));
    maxLinkUtil_.record(
        now, report.accessLinkUtil.empty()
                 ? 0.0
                 : *std::max_element(report.accessLinkUtil.begin(),
                                     report.accessLinkUtil.end()));
    maxSwitchUtil_.record(
        now, report.switchUtil.empty()
                 ? 0.0
                 : *std::max_element(report.switchUtil.begin(),
                                     report.switchUtil.end()));
    const double demandTotal = report.totalDemandRps();
    satisfaction_.record(
        now, demandTotal > 0.0 ? report.totalServedRps() / demandTotal : 1.0);
    unrouted_.record(now, report.unroutedRps);
  }

  latest_ = report;
  return report;
}

void FluidEngine::start(std::function<void(const EpochReport&)> sink) {
  MDC_EXPECT(static_cast<bool>(sink), "engine needs a sink");
  sim_.every(options_.epoch, [this, sink = std::move(sink)] {
    sink(step());
  });
}

}  // namespace mdc
