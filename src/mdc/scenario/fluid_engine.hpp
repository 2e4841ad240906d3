// The fluid traffic engine.
//
// Every epoch it routes each application's demand along the paper's data
// path — DNS shares -> VIP -> advertised access link -> owning LB switch
// (-> m-VIP -> second-layer switch, in two-LB-layer mode) -> weighted RIPs
// -> VMs — converts request rates to bandwidth, accounts link and switch
// load, applies serving limits, and publishes an EpochReport to the global
// manager.  The engine reports only the data plane it computes and knows
// nothing of the control plane: MegaDc's report decorator adds the
// registry's gauges (manager tier, command channel, faults, durable
// state, sessions) to each report.
//
// Bandwidth contention is approximated per flow as
//   served = demand * min over links on the path of min(1, cap/offered),
// which is monotone, cheap (O(flows)) at the 300k-server scale, and exact
// whenever a flow crosses at most one saturated link (the dominant case
// here: the access link or the switch trunk).  The exact max-min allocator
// in mdc/net remains available for finer analyses.
//
// The engine is incremental and parallel (see DESIGN.md, "Epoch engine
// performance model").  Each application's flow tree is cached as
// structure only — routers, VIP/RIP subtrees with their weights, leaf
// paths, structural unrouted causes — together with the config versions
// it was resolved from (route table, VIP/RIP tables, VM liveness) and the
// resolver's tracked-VIP count.  Neither demand nor DNS shares are in
// it: every epoch replays each tree with the current demand and shares,
// repeating the direct descent's floating-point operations in order, and
// re-descends only the apps whose structure moved (or whose standby VIP,
// left unresolved while its share was exactly 0, got a share).  The dirty-app
// fan-out and the serving pass run on a small worker pool over static
// contiguous app ranges, and each writes only its own apps' state; the
// replay and every shared accumulator (link and VIP loads) run in one
// serial walk in application order, so every mode — incremental or full,
// 1 worker or N — produces bit-identical EpochReports.  The virtual-time
// Simulation loop itself stays single-threaded; only the pure
// computation inside one step() parallelizes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mdc/app/app_registry.hpp"
#include "mdc/core/epoch_report.hpp"
#include "mdc/dns/dns.hpp"
#include "mdc/host/host_fleet.hpp"
#include "mdc/lb/switch_fleet.hpp"
#include "mdc/metrics/timeseries.hpp"
#include "mdc/obs/phase_profiler.hpp"
#include "mdc/route/route_registry.hpp"
#include "mdc/sim/simulation.hpp"
#include "mdc/topo/topology.hpp"
#include "mdc/util/thread_pool.hpp"
#include "mdc/workload/demand.hpp"

namespace mdc {

class FluidEngine {
 public:
  struct Options {
    SimTime epoch = 5.0;
    /// Serve unchanged apps from the flow-tree cache.  false = recompute
    /// every app every epoch (the always-correct fallback; also what the
    /// equivalence tests compare the cache against).
    bool incremental = true;
    /// Worker threads for the per-app fan-out inside one step().
    /// 0 = take the MDC_THREADS environment variable, defaulting to 1.
    /// Resolved through ThreadPool::resolveWorkers: clamped to
    /// hardware_concurrency (oversubscription is pure fork/join overhead)
    /// unless MDC_ALLOW_OVERSUBSCRIBE is set, and to
    /// ThreadPool::kMaxWorkers always.
    unsigned workers = 0;
  };

  FluidEngine(Simulation& sim, const Topology& topo, AppRegistry& apps,
              AuthoritativeDns& dns, ResolverPopulation& resolvers,
              RouteRegistry& routes, SwitchFleet& fleet, HostFleet& hosts,
              const DemandModel& demand, Options options);
  ~FluidEngine();

  FluidEngine(const FluidEngine&) = delete;
  FluidEngine& operator=(const FluidEngine&) = delete;

  /// Evaluate one epoch at the current simulation time.
  EpochReport step();

  /// Register the periodic epoch loop; each report is forwarded to `sink`.
  void start(std::function<void(const EpochReport&)> sink);

  /// Installs a hook that annotates every report with state the engine
  /// has no reference to (MegaDc adds the registry's gauges and the fault
  /// plan seed).  Runs inside step(), after the engine's own fields are
  /// filled and before the report is published.
  void setReportDecorator(std::function<void(EpochReport&)> decorate) {
    decorate_ = std::move(decorate);
  }

  [[nodiscard]] const EpochReport& latest() const noexcept { return latest_; }

  // --- cache observability (bench E15) -----------------------------------

  /// Cumulative apps re-descended / served from cache across all steps.
  [[nodiscard]] std::uint64_t appsRecomputed() const noexcept {
    return totalRecomputed_;
  }
  [[nodiscard]] std::uint64_t appsFromCache() const noexcept {
    return totalCached_;
  }
  [[nodiscard]] unsigned workerCount() const noexcept {
    return pool_.workers();
  }

  /// Per-phase wall-clock profile of the step() hot path (disabled by
  /// default; enable via profiler().setEnabled(true)).  Pure
  /// observability: never feeds back into simulation state.
  [[nodiscard]] PhaseProfiler& profiler() noexcept { return profiler_; }
  [[nodiscard]] const PhaseProfiler& profiler() const noexcept {
    return profiler_;
  }

  // --- recorded series (inputs to the benches) ---------------------------

  [[nodiscard]] const TimeSeries& linkImbalance() const noexcept {
    return linkImbalance_;
  }
  [[nodiscard]] const TimeSeries& switchImbalance() const noexcept {
    return switchImbalance_;
  }
  [[nodiscard]] const TimeSeries& maxLinkUtil() const noexcept {
    return maxLinkUtil_;
  }
  [[nodiscard]] const TimeSeries& maxSwitchUtil() const noexcept {
    return maxSwitchUtil_;
  }
  [[nodiscard]] const TimeSeries& satisfaction() const noexcept {
    return satisfaction_;
  }
  [[nodiscard]] const TimeSeries& unroutedRps() const noexcept {
    return unrouted_;
  }

 private:
  struct AppCache;
  struct Path;

  struct alignas(64) WorkerTouched {
    std::vector<VmRecord*> vms;
  };
  /// One validate-phase worker's output: its range's dirty apps, in
  /// application order, and how many of its apps it resolved to "not in
  /// DNS".
  struct alignas(64) WorkerDirty {
    std::vector<std::size_t> apps;
    std::size_t resolvedNoDns = 0;
  };

  [[nodiscard]] bool cacheValid(AppId app, const AppCache& c) const;
  void computeApp(AppId app, AppCache& c);
  void descend(AppId app, VipId vip, Path path, int depth, bool deps,
               AppCache& c);
  void emitApp(const Application& app, AppCache& c, EpochReport& report);
  std::size_t emitVip(AppCache& c, std::size_t i, double rps,
                      double gbpsPerKrps, EpochReport& report);

  Simulation& sim_;
  const Topology& topo_;
  AppRegistry& apps_;
  AuthoritativeDns& dns_;
  ResolverPopulation& resolvers_;
  RouteRegistry& routes_;
  SwitchFleet& fleet_;
  HostFleet& hosts_;
  const DemandModel& demand_;
  Options options_;

  ThreadPool pool_;
  std::vector<AppCache> cache_;           // indexed by AppId
  std::vector<std::size_t> dirty_;        // app indices to re-descend
  std::vector<WorkerDirty> validated_;    // by validate-phase slot

  // Flat per-epoch accumulators (reused across steps).  The vm/vip/app
  // arrays are epoch-stamped so only the entries a flow actually touched
  // are ever reset; stamps also mark which entries belong to this epoch
  // when the dense arrays are scanned into the report's FlatMaps.
  std::vector<double> linkOffered_;
  std::vector<double> vmOffered_;   // by VmId index, epoch-stamped
  std::vector<double> vmNetRps_;
  std::vector<std::uint64_t> vmStamp_;
  std::vector<double> vipGbps_;     // by VipId index, epoch-stamped
  std::vector<std::uint64_t> vipStamp_;
  std::vector<double> appServed_;   // by AppId index, epoch-stamped
  std::vector<std::uint64_t> appServedStamp_;
  std::uint64_t epochStamp_ = 0;
  // Per-worker touched-VM lists (next epoch's gauge-reset targets),
  // indexed by the parallelRanges slot of the serving pass.
  std::vector<WorkerTouched> touched_;

  std::uint64_t totalRecomputed_ = 0;
  std::uint64_t totalCached_ = 0;
  PhaseProfiler profiler_;
  std::function<void(EpochReport&)> decorate_;

  EpochReport latest_;
  TimeSeries linkImbalance_{"link-imbalance(max/mean)"};
  TimeSeries switchImbalance_{"switch-imbalance(max/mean)"};
  TimeSeries maxLinkUtil_{"max-link-util"};
  TimeSeries maxSwitchUtil_{"max-switch-util"};
  TimeSeries satisfaction_{"served/demand"};
  TimeSeries unrouted_{"unrouted-rps"};
};

}  // namespace mdc
