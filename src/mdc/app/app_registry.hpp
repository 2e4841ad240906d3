// Elastic Internet applications ("roughly websites", §II).
//
// Each application is client-facing, runs in its own VMs (instances), and
// is reachable through a set of external VIPs.  The SLA maps request rate
// to resource demand, which is how the fluid engine converts workload into
// server load and how placement algorithms size instances.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mdc/util/expect.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

/// Slack of a managed VM's slice over the request rate it is sized for:
/// the pod managers, the inter-pod balancer's clones and the bootstrap
/// deployment all size slices (and count instances) with it.
inline constexpr double kSliceHeadroom = 1.2;

/// Resource cost of serving load: demand scales linearly with request
/// rate except memory, which is a fixed per-instance footprint.
struct AppSla {
  double cpuPerKrps = 1.0;     // cores per 1000 req/s
  double memPerInstanceGb = 2.0;
  double gbpsPerKrps = 0.04;   // network per 1000 req/s

  /// Resource demand of `rps` on one instance (memory is the footprint).
  [[nodiscard]] CapacityVec demandFor(double rps) const;

  /// Max request rate a slice can serve (CPU or network bound).
  [[nodiscard]] double servableRps(const CapacityVec& slice) const;

  /// A slice sized to serve `rps` with `headroom` multiplicative slack.
  [[nodiscard]] CapacityVec sliceFor(double rps, double headroom) const;
};

struct Application {
  AppId id;
  std::string name;
  AppSla sla;
  double baseRps = 0.0;  // popularity-derived baseline demand
  std::vector<VipId> vips;
  std::vector<VmId> instances;
};

class AppRegistry {
 public:
  AppId create(std::string name, AppSla sla, double baseRps);

  [[nodiscard]] std::size_t size() const noexcept { return apps_.size(); }
  [[nodiscard]] const Application& app(AppId id) const;
  [[nodiscard]] Application& appMutable(AppId id);

  void addVip(AppId app, VipId vip);
  void removeVip(AppId app, VipId vip);
  /// Precondition of addInstance: `vm` is no app's instance.
  void addInstance(AppId app, VmId vm);
  void removeInstance(AppId app, VmId vm);
  /// Whether `vm` is listed in `app`'s instances: one read of the owner
  /// table instead of a walk over the list.
  [[nodiscard]] bool isInstance(AppId app, VmId vm) const noexcept {
    return app.valid() && vm.index() < owner_.size() &&
           owner_[vm.index()] == app;
  }

  [[nodiscard]] const std::vector<Application>& all() const noexcept {
    return apps_;
  }

 private:
  std::vector<Application> apps_;
  /// Owning app per VmId (invalid: no app's instance), grown on demand.
  /// addInstance and removeInstance are its only writers, beside each
  /// app's `instances` list.
  std::vector<AppId> owner_;
};

}  // namespace mdc
