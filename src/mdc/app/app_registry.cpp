#include "mdc/app/app_registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mdc {

CapacityVec AppSla::demandFor(double rps) const {
  MDC_EXPECT(rps >= 0.0, "negative rps");
  return CapacityVec{cpuPerKrps * rps / 1000.0, memPerInstanceGb,
                     gbpsPerKrps * rps / 1000.0};
}

double AppSla::servableRps(const CapacityVec& slice) const {
  double best = std::numeric_limits<double>::infinity();
  if (cpuPerKrps > 0.0) best = std::min(best, slice.cpu() / cpuPerKrps * 1000.0);
  if (gbpsPerKrps > 0.0) {
    best = std::min(best, slice.network() / gbpsPerKrps * 1000.0);
  }
  if (slice.memory() < memPerInstanceGb) return 0.0;
  return std::isfinite(best) ? best : 0.0;
}

CapacityVec AppSla::sliceFor(double rps, double headroom) const {
  MDC_EXPECT(headroom >= 1.0, "headroom < 1");
  CapacityVec d = demandFor(rps * headroom);
  d[Resource::Memory] = memPerInstanceGb;
  return d;
}

AppId AppRegistry::create(std::string name, AppSla sla, double baseRps) {
  MDC_EXPECT(baseRps >= 0.0, "negative base rps");
  const AppId id{static_cast<AppId::value_type>(apps_.size())};
  apps_.push_back(Application{id, std::move(name), sla, baseRps, {}, {}});
  return id;
}

const Application& AppRegistry::app(AppId id) const {
  MDC_EXPECT(id.valid() && id.index() < apps_.size(), "unknown app");
  return apps_[id.index()];
}

Application& AppRegistry::appMutable(AppId id) {
  MDC_EXPECT(id.valid() && id.index() < apps_.size(), "unknown app");
  return apps_[id.index()];
}

void AppRegistry::addVip(AppId app, VipId vip) {
  auto& vips = appMutable(app).vips;
  MDC_EXPECT(std::find(vips.begin(), vips.end(), vip) == vips.end(),
             "vip already attached to app");
  vips.push_back(vip);
}

void AppRegistry::removeVip(AppId app, VipId vip) {
  auto& vips = appMutable(app).vips;
  const auto it = std::find(vips.begin(), vips.end(), vip);
  MDC_EXPECT(it != vips.end(), "vip not attached to app");
  vips.erase(it);
}

void AppRegistry::addInstance(AppId app, VmId vm) {
  auto& inst = appMutable(app).instances;
  MDC_EXPECT(vm.valid(), "invalid vm");
  if (vm.index() >= owner_.size()) owner_.resize(vm.index() + 1);
  MDC_EXPECT(!owner_[vm.index()].valid(), "vm already an app's instance");
  inst.push_back(vm);
  owner_[vm.index()] = app;
}

void AppRegistry::removeInstance(AppId app, VmId vm) {
  MDC_EXPECT(isInstance(app, vm), "instance not attached to app");
  auto& inst = appMutable(app).instances;
  const auto it = std::find(inst.begin(), inst.end(), vm);
  MDC_ENSURE(it != inst.end(), "instance owner table out of sync");
  inst.erase(it);
  owner_[vm.index()] = AppId{};
}

}  // namespace mdc
