// LB switch load balancing (§IV-B).
//
// When a switch approaches its 4 Gbps throughput limit the global manager
// (1) uses selective VIP exposure to steer new clients away from the hot
// VIP, then (2) once usage subsides (lingering clients per [18], [4] make
// "zero" unlikely — a quiesce threshold is used) performs a *dynamic VIP
// transfer*: an internal move to an underloaded switch that needs no
// external route updates.  If a VIP never quiesces within the timeout the
// balancer either gives up or force-transfers (dropping tracked
// connections), depending on configuration.
#pragma once

#include <cstdint>
#include <map>

#include "mdc/app/app_registry.hpp"
#include "mdc/core/epoch_report.hpp"
#include "mdc/core/viprip_manager.hpp"
#include "mdc/dns/dns.hpp"
#include "mdc/lb/switch_fleet.hpp"
#include "mdc/sim/simulation.hpp"

namespace mdc {

class SwitchBalancer {
 public:
  struct Options {
    SimTime period = 30.0;
    /// Switch utilization that triggers rebalancing.
    double highWatermark = 0.85;
    /// A VIP is quiesced once its demand falls below this fraction of its
    /// demand when the drain started.
    double quiesceFraction = 0.05;
    /// Give up (or force) after this long in draining state.
    SimTime drainTimeout = 600.0;
    bool forceOnTimeout = false;
  };

  SwitchBalancer(Simulation& sim, SwitchFleet& fleet, AuthoritativeDns& dns,
                 AppRegistry& apps, VipRipManager& viprip, Options options);

  /// One decision round against `report`, the global manager's latest
  /// epoch observation: pump the drains in progress, then maybe start one.
  void runOnce(const EpochReport& report);

  [[nodiscard]] std::uint64_t transfersCompleted() const noexcept {
    return completed_;
  }
  [[nodiscard]] std::uint64_t transfersAbandoned() const noexcept {
    return abandoned_;
  }
  [[nodiscard]] std::uint64_t transfersForced() const noexcept {
    return forced_;
  }
  [[nodiscard]] std::size_t drainsInProgress() const noexcept {
    return drains_.size();
  }
  /// Mean seconds from drain start to completed transfer.
  [[nodiscard]] double meanDrainSeconds() const noexcept {
    return completed_ == 0 ? 0.0
                           : drainSecondsTotal_ /
                                 static_cast<double>(completed_);
  }

 private:
  struct Drain {
    SwitchId target;
    double startGbps = 0.0;
    double savedFactor = 1.0;
    AppId app;
    SimTime startedAt = 0.0;
  };

  void beginDrain(VipId vip, SwitchId target, double startGbps);
  void finishDrain(VipId vip, Drain& d, bool force);
  void pumpDrains(const EpochReport& report);

  Simulation& sim_;
  SwitchFleet& fleet_;
  AuthoritativeDns& dns_;
  AppRegistry& apps_;
  VipRipManager& viprip_;
  Options options_;

  std::map<VipId, Drain> drains_;  // pumped in ascending VIP id
  std::uint64_t completed_ = 0;
  double drainSecondsTotal_ = 0.0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t forced_ = 0;
};

}  // namespace mdc
