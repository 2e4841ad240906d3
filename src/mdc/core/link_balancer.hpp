// Access-link load balancing (§IV-A).
//
// Two interchangeable policies:
//
//  * SelectiveExposure — the paper's knob: each VIP stays advertised where
//    it is; the authoritative DNS answers queries with VIPs on lightly
//    loaded links more often.  Fast (bounded by DNS TTL), no route churn.
//  * Readvertisement — the strawman: withdraw VIP routes from overloaded
//    links and re-advertise them elsewhere, with padded-AS-path draining.
//    Slow (BGP propagation + drain) and every move costs route updates.
//
// E4 runs both against the same hotspot and compares convergence time and
// route-update counts.
#pragma once

#include <cstdint>

#include "mdc/app/app_registry.hpp"
#include "mdc/core/epoch_report.hpp"
#include "mdc/core/viprip_manager.hpp"
#include "mdc/dns/dns.hpp"
#include "mdc/topo/topology.hpp"

namespace mdc {

enum class LinkBalancePolicy { SelectiveExposure, Readvertisement };

class AccessLinkBalancer {
 public:
  struct Options {
    LinkBalancePolicy policy = LinkBalancePolicy::SelectiveExposure;
    SimTime period = 30.0;
    /// Links above this utilization trigger the re-advertisement policy.
    double highWatermark = 0.8;
  };

  AccessLinkBalancer(AuthoritativeDns& dns, VipRipManager& viprip,
                     AppRegistry& apps, const SwitchFleet& fleet,
                     const Topology& topo, Options options);

  /// One decision round against `report`, the global manager's latest
  /// epoch observation.
  void runOnce(const EpochReport& report);

  [[nodiscard]] std::uint64_t weightUpdates() const noexcept {
    return weightUpdates_;
  }
  [[nodiscard]] std::uint64_t vipMoves() const noexcept { return vipMoves_; }

 private:
  void runSelectiveExposure(const EpochReport& report);
  void runReadvertisement(const EpochReport& report);

  AuthoritativeDns& dns_;
  VipRipManager& viprip_;
  AppRegistry& apps_;
  const SwitchFleet& fleet_;
  const Topology& topo_;
  Options options_;
  std::uint64_t weightUpdates_ = 0;
  std::uint64_t vipMoves_ = 0;
};

}  // namespace mdc
