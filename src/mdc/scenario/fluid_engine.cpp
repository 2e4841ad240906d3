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
constexpr std::uint8_t kRouted = 7;  // a VIP visit that reached its RIPs
const std::array<std::string, 7> kCauseNames = {
    "no_dns", "no_shares", "no_route", "depth",
    "no_owner", "no_rips", "dead_vm"};

void addUnrouted(EpochReport& report, std::uint8_t cause, double rps) {
  report.unroutedRps += rps;
  report.unroutedByCause[kCauseNames[cause]] += rps;
}
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

// One application's flow tree as resolved through routes, fleet and
// hosts, plus the config versions it was built from.  The tree holds no
// demand and no shares: it covers every tracked VIP and every RIP, and
// emit replays it each epoch with that epoch's demand and shares,
// repeating the direct descent's floating-point operations and kEpsRps
// cut-offs in the same order.  A cached tree therefore yields exactly
// the values a descent with inline demand would, whatever the demand and
// shares did since it was built.  The one exception is a tracked VIP
// whose share is exactly 0 (a standby VIP DNS does not expose): it
// carries nothing, so it stays unresolved — an empty Tracked node — and
// the tree is rebuilt once its share leaves 0.
struct FluidEngine::AppCache {
  enum class Kind : std::uint8_t {
    Tracked,     // a tracked VIP: `arg` router subtrees follow (0 = none)
    Vip,         // a VIP visit: `cause` is kRouted or why it is unrouted
    VmRip,       // RIP to one of the app's live VMs: flows[arg]
    ForeignRip,  // RIP to another app's VM: a checked failure if loaded
    DeadRip,     // RIP to a destroyed VM
    MvipRip,     // RIP to an m-VIP: its Vip subtree follows
  };

  // Preorder; `end` lets a pruned subtree be skipped in one step.
  struct Node {
    double weight = 0.0;    // RIP: its weight; Vip: the VIP's total weight
    std::uint32_t end = 0;  // one past this node's subtree
    std::uint32_t arg = 0;  // Tracked: routers; Vip: VipId; VmRip: flow
    Kind kind = Kind::Vip;
    std::uint8_t cause = kRouted;  // Vip only
    bool degraded = false;  // Tracked: routed over the padded fallback
  };

  struct Flow {
    VmRecord* vm;  // stable: HostFleet never erases VM records
    double rps;    // this epoch's load; <= kEpsRps when the replay pruned it
    Path path;
  };

  bool built = false;   // holds a resolved tree (or the no-DNS outcome)
  bool hadDns = false;  // apps never leave DNS, so true stays true
  double demandRps = 0.0;  // this epoch's demand: the replay's input
  std::uint64_t dnsTopoDep = 0;  // while !hadDns
  std::size_t tracked = 0;       // resolver tracked-VIP count built for

  std::vector<Node> nodes;  // one Tracked subtree per tracked VIP, in order
  std::vector<Flow> flows;  // VmRip leaves in visit order
  std::vector<std::uint32_t> idle;  // tracked positions left at share 0

  // Version dependencies recorded during the descent.
  std::vector<std::pair<VipId, std::uint64_t>> routeDeps;
  std::vector<std::pair<VipId, std::uint64_t>> fleetDeps;
  std::vector<std::pair<VmId, std::uint64_t>> vmDeps;

  void clear() {
    tracked = 0;
    nodes.clear();
    flows.clear();
    idle.clear();
    routeDeps.clear();
    fleetDeps.clear();
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
      // resolveWorkers clamps to physical cores (unless the caller set
      // MDC_ALLOW_OVERSUBSCRIBE), so workers() > 1 implies the parallel
      // phases genuinely run concurrently — no further gating needed.
      pool_(ThreadPool::resolveWorkers(options.workers)) {
  MDC_EXPECT(options.epoch > 0.0, "epoch must be positive");
}

FluidEngine::~FluidEngine() = default;

bool FluidEngine::cacheValid(AppId app, const AppCache& c) const {
  // Tracked VIPs are only ever appended, so an unchanged count means an
  // unchanged list.
  const std::span<const VipWeight> shares = resolvers_.view(app);
  if (shares.size() != c.tracked) return false;
  for (const std::uint32_t k : c.idle) {
    if (shares[k].weight != 0.0) return false;
  }
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

// Builds the subtree of one VIP visit — its Vip node, then its RIPs in
// table order — following m-VIP indirection for the two-LB-layer
// architecture (§V-B).  `path` holds the links already crossed (access
// link + upstream switch trunks).  `deps` is false for the second and
// later router copies of a tracked VIP's subtree, which read exactly what
// the first copy read.  Runs on pool workers for disjoint apps: every
// store access is a const read and every write lands in the app's own
// cache entry, so the descent needs no synchronisation at all.  The depth
// check keeps every path within Path::kMaxLinks.
void FluidEngine::descend(AppId app, VipId vip, Path path, int depth,
                          bool deps, AppCache& c) {
  using Kind = AppCache::Kind;
  const std::size_t at = c.nodes.size();
  c.nodes.push_back({.arg = vip.value(), .kind = Kind::Vip});
  const auto close = [&c, at](std::uint8_t cause) {
    c.nodes[at].cause = cause;
    c.nodes[at].end = static_cast<std::uint32_t>(c.nodes.size());
  };
  if (depth >= kMaxVipDepth) return close(kDepth);
  const SwitchFleet& fleet = fleet_;
  if (deps) c.fleetDeps.emplace_back(vip, fleet.vipConfigVersion(vip));
  const auto owner = fleet.ownerOf(vip);
  if (!owner.has_value()) return close(kNoOwner);
  const VipEntry* entry = fleet.at(*owner).findVip(vip);
  MDC_ENSURE(entry != nullptr, "fleet ownership index out of sync");
  const double totalWeight = entry->totalWeight();
  if (entry->rips.empty() || totalWeight <= 0.0) return close(kNoRips);
  c.nodes[at].weight = totalWeight;
  path.push(topo_.switchTrunk(*owner));
  const bool traditional =
      topo_.config().fabric == FabricKind::TraditionalTree;
  for (const RipEntry& rip : entry->rips) {
    const std::size_t r = c.nodes.size();
    c.nodes.push_back({.weight = rip.weight, .kind = Kind::MvipRip});
    if (rip.targetsVm()) {
      if (deps) {
        c.vmDeps.emplace_back(rip.vm, hosts_.vmConfigVersion(rip.vm));
      }
      if (!hosts_.vmExists(rip.vm)) {
        c.nodes[r].kind = Kind::DeadRip;
      } else if (VmRecord& rec = hosts_.vmMutable(rip.vm); rec.app != app) {
        // The serving phase partitions VM writes by application: a VM
        // may only be reached through its own app's VIPs.
        c.nodes[r].kind = Kind::ForeignRip;
      } else {
        const ServerInfo& srv = topo_.server(rec.server);
        Path leaf = path;
        if (traditional) leaf.push(topo_.siloUplink(srv.silo));
        leaf.push(srv.nic);
        c.nodes[r].kind = Kind::VmRip;
        c.nodes[r].arg = static_cast<std::uint32_t>(c.flows.size());
        c.flows.push_back(AppCache::Flow{&rec, 0.0, leaf});
      }
    } else {
      descend(app, rip.mvip, path, depth + 1, deps, c);
    }
    c.nodes[r].end = static_cast<std::uint32_t>(c.nodes.size());
  }
  close(kRouted);
}

// Resolves the tree of every tracked VIP: its routers (or the degraded
// fallback, or none), then one copy of its subtree per router.  A VIP at
// share 0 gets an empty Tracked node: the replay's first cut-off
// (demand * 0 <= kEpsRps) skips it, and cacheValid() watches its share.
void FluidEngine::computeApp(AppId app, AppCache& c) {
  c.clear();
  c.built = true;
  const std::span<const VipWeight> tracked = resolvers_.view(app);
  c.tracked = tracked.size();
  for (std::size_t k = 0; k < tracked.size(); ++k) {
    const VipWeight& sh = tracked[k];
    if (sh.weight == 0.0) {
      c.idle.push_back(static_cast<std::uint32_t>(k));
      c.nodes.push_back({.end = static_cast<std::uint32_t>(c.nodes.size() + 1),
                         .kind = AppCache::Kind::Tracked});
      continue;
    }
    c.routeDeps.emplace_back(sh.vip, routes_.routeVersion(sh.vip));
    auto routers = routes_.activeRouters(sh.vip);
    bool degraded = false;
    if (routers.empty()) {
      // No converged route attracts new traffic; fall back to padded /
      // draining routes so existing clients keep a path.
      routers = routes_.reachableRouters(sh.vip);
      degraded = !routers.empty();
    }
    const std::size_t t = c.nodes.size();
    c.nodes.push_back({.arg = static_cast<std::uint32_t>(routers.size()),
                       .kind = AppCache::Kind::Tracked,
                       .degraded = degraded});
    for (std::size_t r = 0; r < routers.size(); ++r) {
      Path access;
      access.push(topo_.accessLinkFor(routers[r]).link);
      descend(app, sh.vip, access, 0, r == 0, c);
    }
    c.nodes[t].end = static_cast<std::uint32_t>(c.nodes.size());
  }
}

// Replays one app's tree with this epoch's demand and shares into the
// report and the shared accumulators, and leaves each flow's load in the
// cache for the serving phase.  Every value is computed by the direct
// descent's operations in its order — demand * share, / routers, then
// * weight / total per hop — under the same kEpsRps cut-offs.
void FluidEngine::emitApp(const Application& app, AppCache& c,
                          EpochReport& report) {
  for (AppCache::Flow& f : c.flows) f.rps = 0.0;
  const double demandRps = c.demandRps;
  if (demandRps <= kEpsRps) return;
  if (!c.hadDns) return addUnrouted(report, kNoDns, demandRps);
  const std::span<const VipWeight> shares = resolvers_.view(app.id);
  double shareSum = 0.0;
  for (const VipWeight& sh : shares) shareSum += sh.weight;
  if (shares.empty() || shareSum <= kEpsRps) {
    // No VIP of the app is exposed (all weights zero, e.g. every RIP
    // lost); clients cannot reach it at all.
    return addUnrouted(report, kNoShares, demandRps);
  }
  const double gbpsPerKrps = app.sla.gbpsPerKrps;
  std::size_t i = 0;
  for (std::size_t k = 0; k < c.tracked; ++k) {
    const AppCache::Node& t = c.nodes[i];
    const double vipRps = demandRps * shares[k].weight;
    if (vipRps <= kEpsRps) {
      i = t.end;
      continue;
    }
    if (t.arg == 0) {
      addUnrouted(report, kNoRoute, vipRps);
      i = t.end;
      continue;
    }
    if (t.degraded) report.degradedRoutedRps += vipRps;
    const double perRouter = vipRps / static_cast<double>(t.arg);
    ++i;
    for (std::uint32_t r = 0; r < t.arg; ++r) {
      i = emitVip(c, i, perRouter, gbpsPerKrps, report);
    }
  }
}

std::size_t FluidEngine::emitVip(AppCache& c, std::size_t i, double rps,
                                 double gbpsPerKrps, EpochReport& report) {
  using Kind = AppCache::Kind;
  const AppCache::Node& v = c.nodes[i];
  if (rps <= kEpsRps) return v.end;
  if (v.cause != kRouted) {
    addUnrouted(report, v.cause, rps);
    return v.end;
  }
  const std::size_t vi = v.arg;
  if (vi >= vipGbps_.size()) {
    vipGbps_.resize(vi + 1, 0.0);
    vipStamp_.resize(vi + 1, 0);
  }
  if (vipStamp_[vi] != epochStamp_) {
    vipStamp_[vi] = epochStamp_;
    vipGbps_[vi] = 0.0;
  }
  vipGbps_[vi] += rps * gbpsPerKrps / 1000.0;
  for (std::size_t j = i + 1; j < v.end;) {
    const AppCache::Node& rip = c.nodes[j];
    const double ripRps = rps * rip.weight / v.weight;
    if (ripRps > kEpsRps) {
      switch (rip.kind) {
        case Kind::VmRip: {
          AppCache::Flow& f = c.flows[rip.arg];
          f.rps = ripRps;
          const double gbps = ripRps * gbpsPerKrps / 1000.0;
          for (const LinkId l : f.path.view()) {
            linkOffered_[l.index()] += gbps;
          }
          break;
        }
        case Kind::DeadRip:
          addUnrouted(report, kDeadVm, ripRps);
          break;
        case Kind::MvipRip:
          (void)emitVip(c, j + 1, ripRps, gbpsPerKrps, report);
          break;
        default:  // ForeignRip: no other kind sits in a RIP slot
          MDC_ENSURE(false, "RIP routes one app's demand to another app's VM");
          break;
      }
    }
    j = rip.end;
  }
  return v.end;
}

EpochReport FluidEngine::step() {
  const SimTime now = sim_.now();
  {
    const auto prof = profiler_.time(PhaseProfiler::Phase::Prepare);
    resolvers_.advance(now);
    routes_.settle(now);
  }

  EpochReport report;
  report.time = now;

  const std::vector<Application>& appList = apps_.all();
  const std::size_t n = appList.size();
  if (cache_.size() < n) cache_.resize(n);

  // --- Phase A0: read demand, validate trees, list the dirty apps -------
  // An app without demand consults nothing more.  Resolver pools were
  // brought up to date (and new ones created) by the advance above, so
  // this phase only reads them.  Neither demand nor shares can dirty a
  // tree: the replay applies them.  Static contiguous ranges on the pool:
  // each worker writes only its own apps' cache slots and its slot's
  // dirty list, and the slot-order concatenation lists the dirty apps in
  // application order, as a serial walk would.
  const bool incremental = options_.incremental;
  const std::uint64_t dnsTopology = dns_.topologyVersion();
  if (validated_.size() < pool_.workers()) validated_.resize(pool_.workers());
  for (WorkerDirty& wd : validated_) {
    wd.apps.clear();
    wd.resolvedNoDns = 0;
  }
  dirty_.clear();
  std::size_t recomputed = 0;
  {
    const auto prof = profiler_.time(PhaseProfiler::Phase::Validate);
    pool_.parallelRanges(n, [&](unsigned slot, std::size_t lo,
                                std::size_t hi) {
      WorkerDirty& mine = validated_[slot];
      for (std::size_t i = lo; i < hi; ++i) {
        const AppId app = appList[i].id;
        AppCache& c = cache_[app.index()];
        c.demandRps = demand_.rps(app, now);
        if (c.demandRps <= kEpsRps) continue;
        if (!incremental) c.built = false;
        if (!c.hadDns) {
          // Apps are never unregistered, so "not in DNS" can only flip
          // when the registered set grows.
          if (c.built && dnsTopology == c.dnsTopoDep) continue;
          c.hadDns = dns_.hasApp(app);
          if (!c.hadDns) {
            c.clear();
            c.built = true;
            c.dnsTopoDep = dnsTopology;
            ++mine.resolvedNoDns;
            continue;
          }
          c.built = false;  // the no-DNS outcome is stale
        }
        if (c.built && cacheValid(app, c)) continue;
        mine.apps.push_back(app.index());
      }
    });
    for (const WorkerDirty& wd : validated_) {
      dirty_.insert(dirty_.end(), wd.apps.begin(), wd.apps.end());
      recomputed += wd.resolvedNoDns;
    }
  }
  recomputed += dirty_.size();
  if (incremental) {
    report.engineAppsRecomputed = static_cast<std::uint32_t>(recomputed);
    report.engineAppsCached = static_cast<std::uint32_t>(n - recomputed);
    totalRecomputed_ += recomputed;
    totalCached_ += n - recomputed;
  }

  // --- Phase A1: re-descend dirty apps on the pool ---------------------
  // Static contiguous ranges over the dirty list; each worker writes only
  // its own apps' cache slots and reads the resolver view in place, so
  // the fan-out runs with zero synchronisation.  The join is the barrier
  // phases B and C rely on to read the caches.
  {
    const auto prof = profiler_.time(PhaseProfiler::Phase::Descent);
    pool_.parallelRanges(
        dirty_.size(), [&](unsigned, std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) {
            const AppId app{static_cast<AppId::value_type>(dirty_[k])};
            computeApp(app, cache_[dirty_[k]]);
          }
        });
  }

  ++epochStamp_;
  if (appServed_.size() < n) {
    appServed_.resize(n, 0.0);
    appServedStamp_.resize(n, 0);
  }
  linkOffered_.assign(topo_.network().linkCount(), 0.0);

  // --- Phase B: replay every app's tree into the report ----------------
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
      AppCache& c = cache_[app.id.index()];
      report.appDemandRps[app.id] = c.demandRps;
      emitApp(app, c, report);
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
        if (f.rps <= kEpsRps) continue;  // pruned by this epoch's replay
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
