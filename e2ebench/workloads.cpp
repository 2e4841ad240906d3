// The benchmark's two workloads.  Each one stresses layers the other
// bypasses, so a change to one layer has a workload that should move and
// one that should not:
//
//  * paper: paperScaleConfig() at 5% with every manager loop on and
//    sessions off.  Pod control loops (placement plus each loop's
//    SetWeight burst into admission) dominate host time, and the
//    admission backlog grows through the window: the central VIP/RIP
//    manager bottleneck.
//  * dataplane: the same world with pod loops off (placement frozen after
//    deploy), diurnal demand and about half a million live sessions on
//    two workers.  The fluid engine and session ticks dominate and the
//    admission queue stays empty, so control-plane changes should not
//    move it.
//
// failover and storm are not benchmark workloads: each reproduces an open
// defect (see README.md).  Both use the E16 storm world on a lossy
// control channel.
//
//  * failover: pod loops off and diurnal demand, through four leader
//    crashes (a plain one, one tearing the journal's tail, one after the
//    newest snapshot is corrupted, one corrupting a journal record).
//    Crashes wait for an idle command plane, so no operation should fail.
//  * storm: pod loops on, through an eight-wave storm of every fault
//    kind; requests and sessions fail in it by design.
//
// Worker counts are always set here, never left at 0, so MDC_THREADS
// cannot change them.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "harness.hpp"

namespace e2e {
namespace {

using namespace mdc;

MegaDcConfig paperFivePercent(std::uint64_t seed) {
  constexpr double kScale = 0.05;
  MegaDcConfig cfg = paperScaleConfig();
  cfg.seed = seed;
  cfg.topology.numServers =
      static_cast<std::uint32_t>(kScale * cfg.topology.numServers);
  cfg.numApps = static_cast<std::uint32_t>(kScale * cfg.numApps);
  cfg.totalDemandRps *= kScale;
  cfg.topology.numSwitches =
      static_cast<std::uint32_t>(kScale * cfg.topology.numSwitches);
  cfg.numPods = static_cast<std::uint32_t>(kScale * cfg.numPods);
  cfg.engine.workers = 1;
  cfg.session.workers = 1;
  return cfg;
}

Workload paper(std::uint64_t seed) {
  Workload w;
  w.name = "paper";
  w.config = paperFivePercent(seed);
  w.windowEpochs = 8;
  return w;
}

Workload dataplane(std::uint64_t seed) {
  Workload w;
  w.name = "dataplane";
  w.config = paperFivePercent(seed);
  w.config.manager.enablePodLoops = false;
  w.config.enableSessionEngine = true;
  // ~3M rps of demand at 7.5 sessions/s per krps and 30 s mean lifetime
  // settles near half a million live sessions.
  w.config.session.sessionsPerSecondPerKrps = 7.5;
  w.config.engine.workers = 2;
  w.config.session.workers = 2;
  w.diurnal = true;
  w.windowEpochs = 36;
  return w;
}

/// bench_e16_chaos's storm world: big servers and generous switch tables
/// so faults stress failure handling, not placement.
MegaDcConfig stormWorld(std::uint64_t seed) {
  constexpr std::uint32_t kApps = 10'000;
  MegaDcConfig cfg = testScaleConfig();
  cfg.seed = seed;
  cfg.numApps = kApps;
  cfg.totalDemandRps = 5.0 * kApps;
  cfg.topology.numServers = 256;
  cfg.topology.serverCapacity = CapacityVec{1024.0, 4096.0, 100.0};
  cfg.topology.numIsps = 4;
  cfg.topology.accessLinksPerIsp = 2;
  cfg.topology.accessLinkGbps = 400.0;
  cfg.topology.numSwitches = 32;
  cfg.topology.switchTrunkGbps = 100.0;
  cfg.numPods = 8;
  cfg.switchLimits.maxVips = 2 * kApps;
  cfg.switchLimits.maxRips = 8 * kApps;
  cfg.manager.viprip.processSeconds = 0.001;
  cfg.fault.seed = seed * 0x9e3779b97f4a7c15ull + 0xe16u;
  cfg.ctrlFaults.dropRate = 0.05;
  cfg.ctrlFaults.delaySeconds = 0.02;
  cfg.ctrlFaults.delayJitterSeconds = 0.05;
  // 50k rps at 20 sessions/s per krps and 20 s lifetimes: ~20k live.
  cfg.enableSessionEngine = true;
  cfg.session.sessionsPerSecondPerKrps = 20.0;
  cfg.session.meanSessionSeconds = 20.0;
  cfg.engine.workers = 1;
  cfg.session.workers = 1;
  return cfg;
}

Workload failover(std::uint64_t seed) {
  Workload w;
  w.name = "failover";
  w.config = stormWorld(seed);
  // Placement stays as deployed: pod loops submit every control period,
  // and would be refused while no leader is up.
  w.config.manager.enablePodLoops = false;
  w.diurnal = true;
  w.faults = Faults::Failover;
  w.calmBefore = 10.0;
  w.faultSeconds = 120.0;
  w.leaderCrashes = 4;
  w.timedAfter = 10.0;
  w.recoveryCap = 300.0;
  return w;
}

Workload storm(std::uint64_t seed) {
  Workload w;
  w.name = "storm";
  w.config = stormWorld(seed);
  w.faults = Faults::Storm;
  w.calmBefore = 10.0;
  w.faultSeconds = 90.0;
  w.timedAfter = 10.0;
  w.recoveryCap = 300.0;
  return w;
}

}  // namespace

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "paper") {
    w = paper(seed);
  } else if (name == "dataplane") {
    w = dataplane(seed);
  } else if (name == "failover") {
    w = failover(seed);
  } else if (name == "storm") {
    w = storm(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.seed = seed;
  return w;
}

SimTime Workload::horizon() const {
  if (faults != Faults::None) {
    return kDrainCapSeconds + calmBefore + faultSeconds + recoveryCap;
  }
  return (windowEpochs + 1) * config.engine.epoch;
}

unsigned repetitionsFor(double budgetSeconds) {
  const double k = std::round(budgetSeconds / 5.5);
  return static_cast<unsigned>(std::clamp(k, 2.0, 6.0));
}

}  // namespace e2e
