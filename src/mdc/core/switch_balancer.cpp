#include "mdc/core/switch_balancer.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "mdc/util/expect.hpp"

namespace mdc {

namespace {
/// A drain's destination must be below this after the projected move (or
/// clearly cooler than the hot switch, see runOnce).
constexpr double kTargetWatermark = 0.7;
constexpr std::size_t kMaxConcurrentDrains = 8;
}  // namespace

SwitchBalancer::SwitchBalancer(Simulation& sim, SwitchFleet& fleet,
                               AuthoritativeDns& dns, AppRegistry& apps,
                               VipRipManager& viprip, Options options)
    : sim_(sim),
      fleet_(fleet),
      dns_(dns),
      apps_(apps),
      viprip_(viprip),
      options_(options) {
  MDC_EXPECT(options.period > 0.0, "period must be positive");
  MDC_EXPECT(options.quiesceFraction > 0.0 && options.quiesceFraction < 1.0,
             "quiesceFraction out of (0,1)");
}

void SwitchBalancer::runOnce(const EpochReport& report) {
  pumpDrains(report);

  if (drains_.size() >= kMaxConcurrentDrains) return;
  // Find the hottest switch over the watermark.
  const auto& util = report.switchUtil;
  if (util.empty()) return;
  std::size_t hot = 0;
  for (std::size_t i = 1; i < util.size(); ++i) {
    if (util[i] > util[hot]) hot = i;
  }
  if (util[hot] <= options_.highWatermark) return;
  const SwitchId hotSw{static_cast<SwitchId::value_type>(hot)};
  if (!fleet_.isUp(hotSw)) return;  // crashed since the report; nothing to drain

  // Candidate VIPs on the hot switch, largest demand first; drain the
  // biggest one for which an acceptable destination exists (the very
  // hottest VIP may simply not fit anywhere).
  struct Candidate {
    VipId vip;
    double gbps;
  };
  std::vector<Candidate> candidates;
  for (const auto& [vip, gbps] : report.vipDemandGbps) {
    if (drains_.contains(vip)) continue;
    const auto owner = fleet_.ownerOf(vip);
    if (!owner.has_value() || *owner != hotSw) continue;
    candidates.push_back(Candidate{vip, gbps});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.gbps > b.gbps;
                   });

  for (const Candidate& c : candidates) {
    SwitchId target;
    double bestUtil = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < fleet_.size(); ++i) {
      if (i == hot) continue;
      const LbSwitch& sw = fleet_.at(SwitchId{i});
      if (!sw.up() || sw.spareVips() == 0) continue;
      const VipEntry* entry = fleet_.at(hotSw).findVip(c.vip);
      if (entry != nullptr && sw.spareRips() < entry->rips.size()) continue;
      const double projected = util[i] + c.gbps / sw.limits().capacityGbps;
      // Accept a destination below the target watermark, or — in a
      // globally hot fleet where no switch is that cold — one where the
      // move still clearly improves on the hot switch.
      const bool acceptable = projected < kTargetWatermark ||
                              projected + 0.1 < util[hot];
      if (projected < bestUtil && acceptable) {
        bestUtil = projected;
        target = SwitchId{i};
      }
    }
    if (target.valid()) {
      beginDrain(c.vip, target, c.gbps);
      return;
    }
  }
}

void SwitchBalancer::beginDrain(VipId vip, SwitchId target,
                                double startGbps) {
  const VipEntry* entry = fleet_.findVip(vip);
  MDC_ENSURE(entry != nullptr, "draining unknown vip");
  Drain d;
  d.target = target;
  d.startGbps = startGbps;
  d.app = entry->app;
  d.startedAt = sim_.now();

  // Selective exposure away from this VIP: if the app has another VIP,
  // stop answering queries with this one.
  bool canSteer = false;
  for (const VipWeight& vw : dns_.vips(d.app)) {
    if (vw.vip != vip && vw.weight > 0.0) canSteer = true;
  }
  d.savedFactor = viprip_.vipExposureFactor(vip);
  if (canSteer) {
    viprip_.setVipExposureFactor(vip, 0.0);
  }
  drains_.emplace(vip, d);
}

void SwitchBalancer::finishDrain(VipId vip, Drain& d, bool force) {
  const Status s = fleet_.transferVip(vip, d.target, force);
  if (s.ok()) {
    ++completed_;
    drainSecondsTotal_ += sim_.now() - d.startedAt;
    if (force) ++forced_;
  } else {
    ++abandoned_;
  }
  // Re-expose the VIP (now on a cooler switch when the move succeeded).
  viprip_.setVipExposureFactor(vip, d.savedFactor);
}

void SwitchBalancer::pumpDrains(const EpochReport& report) {
  std::vector<VipId> done;
  for (auto& [vip, d] : drains_) {
    const auto it = report.vipDemandGbps.find(vip);
    const double now = it == report.vipDemandGbps.end() ? 0.0 : it->second;
    // Quiesced = fluid demand subsided AND no tracked TCP connection still
    // pinned to the old switch (§IV-B: only it knows their RIPs).
    const auto owner = fleet_.ownerOf(vip);
    const std::uint64_t conns =
        owner.has_value() ? fleet_.at(*owner).activeConnections(vip) : 0;
    const bool quiesced =
        now <= options_.quiesceFraction * std::max(d.startGbps, 1e-9) &&
        conns == 0;
    const bool timedOut = sim_.now() - d.startedAt > options_.drainTimeout;
    if (quiesced) {
      finishDrain(vip, d, /*force=*/false);
      done.push_back(vip);
    } else if (timedOut) {
      if (options_.forceOnTimeout) {
        finishDrain(vip, d, /*force=*/true);
      } else {
        ++abandoned_;
        viprip_.setVipExposureFactor(vip, d.savedFactor);
      }
      done.push_back(vip);
    }
  }
  for (VipId vip : done) drains_.erase(vip);
}

}  // namespace mdc
