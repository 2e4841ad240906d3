#include "mdc/core/link_balancer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "mdc/util/expect.hpp"

namespace mdc {

namespace {
/// Selective exposure: weight_v = max(spare(link_v), floor)^exponent.
constexpr double kExposureExponent = 2.0;
constexpr double kSpareFloor = 0.02;
/// Re-advertisement: at most this many VIP moves per control round.
constexpr std::uint32_t kMaxMovesPerRound = 4;

/// The access router `vip` is advertised at, or an invalid id when intent
/// names none: a VIP that RestoreVip adopted after a recovery that lost
/// the journal prefix has no advertised link to balance.
AccessRouterId advertisedRouter(const VipRipManager& viprip, VipId vip) {
  const VipIntent* in = viprip.intent().find(vip);
  return in != nullptr ? in->router : AccessRouterId{};
}
}  // namespace

AccessLinkBalancer::AccessLinkBalancer(AuthoritativeDns& dns,
                                       VipRipManager& viprip,
                                       AppRegistry& apps,
                                       const SwitchFleet& fleet,
                                       const Topology& topo, Options options)
    : dns_(dns),
      viprip_(viprip),
      apps_(apps),
      fleet_(fleet),
      topo_(topo),
      options_(options) {
  MDC_EXPECT(options.period > 0.0, "period must be positive");
}

void AccessLinkBalancer::runOnce(const EpochReport& report) {
  switch (options_.policy) {
    case LinkBalancePolicy::SelectiveExposure:
      runSelectiveExposure(report);
      break;
    case LinkBalancePolicy::Readvertisement:
      runReadvertisement(report);
      break;
  }
}

void AccessLinkBalancer::runSelectiveExposure(const EpochReport& report) {
  // For every multi-VIP app, expose VIPs proportionally to the spare
  // bandwidth of the access link each VIP is advertised on.  The factor
  // multiplies the VIP's capacity term inside the VIP/RIP manager, so it
  // composes with capacity tracking instead of overwriting it.
  for (const Application& app : apps_.all()) {
    if (app.vips.size() < 2) continue;
    for (VipId vip : app.vips) {
      const double current = viprip_.vipExposureFactor(vip);
      if (current == 0.0) continue;  // drain in progress elsewhere
      const AccessRouterId ar = advertisedRouter(viprip_, vip);
      if (!ar.valid()) continue;
      const double util = ar.index() < report.accessLinkUtil.size()
                              ? report.accessLinkUtil[ar.index()]
                              : 0.0;
      const double linkGbps =
          topo_.network().link(topo_.accessLinkFor(ar).link).capacityGbps;
      const double spare = std::max(kSpareFloor, 1.0 - util) * linkGbps;
      const double factor = std::pow(spare, kExposureExponent);
      if (std::abs(factor - current) > 0.02 * std::max(current, 1e-9)) {
        viprip_.setVipExposureFactor(vip, factor);
        ++weightUpdates_;
      }
    }
  }
}

void AccessLinkBalancer::runReadvertisement(const EpochReport& report) {
  // Find the most overloaded link; move its highest-demand VIPs to the
  // least loaded link until the projection balances.
  const auto& util = report.accessLinkUtil;
  if (util.empty()) return;
  std::size_t hot = 0, cold = 0;
  for (std::size_t i = 1; i < util.size(); ++i) {
    if (util[i] > util[hot]) hot = i;
    if (util[i] < util[cold]) cold = i;
  }
  if (util[hot] <= options_.highWatermark || hot == cold) return;

  // VIPs currently advertised on the hot link, by descending demand.
  struct Candidate {
    VipId vip;
    double gbps;
  };
  std::vector<Candidate> candidates;
  for (const auto& [vip, gbps] : report.vipDemandGbps) {
    const AccessRouterId ar = advertisedRouter(viprip_, vip);
    if (ar.valid() && ar.index() == hot) {
      candidates.push_back(Candidate{vip, gbps});
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.gbps > b.gbps;
                   });

  const double hotCap =
      topo_.network().link(topo_.accessLink(hot).link).capacityGbps;
  const double coldCap =
      topo_.network().link(topo_.accessLink(cold).link).capacityGbps;
  double hotLoad = util[hot] * hotCap;
  double coldLoad = util[cold] * coldCap;
  std::uint32_t moves = 0;
  for (const Candidate& c : candidates) {
    if (moves >= kMaxMovesPerRound) break;
    if (hotLoad <= options_.highWatermark * hotCap) break;
    // Do not just swap the hotspot to the other link.
    if ((coldLoad + c.gbps) / coldCap >= (hotLoad - c.gbps) / hotCap) {
      continue;
    }
    viprip_.moveVipRoute(c.vip, topo_.accessLink(cold).router);
    hotLoad -= c.gbps;
    coldLoad += c.gbps;
    ++moves;
    ++vipMoves_;
  }
}

}  // namespace mdc
