// The per-epoch observation snapshot produced by the fluid engine and
// consumed by every balancer: utilization of access links, LB switches,
// and servers, plus per-app and per-VIP demand, and the metrics
// registry's simulated-state gauges.  This is the monitoring plane of
// Figure 1 (the dashed arrows).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mdc/util/flat_map.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

struct EpochReport {
  SimTime time = 0.0;

  /// Offered utilization per access link (index as in Topology).
  std::vector<double> accessLinkUtil;
  /// Offered utilization per LB switch.
  std::vector<double> switchUtil;

  /// Demand and service, aggregated per application.  FlatMaps (sorted
  /// vectors): the engine fills them in ascending app order, so building
  /// them is an append loop and the canonical encoder needs no sorting.
  FlatMap<AppId, double> appDemandRps;
  FlatMap<AppId, double> appServedRps;

  /// Offered demand per VIP (Gbps) — what the switch balancer reasons on.
  FlatMap<VipId, double> vipDemandGbps;

  double externalOfferedGbps = 0.0;
  double externalServedGbps = 0.0;
  /// Demand dropped because no active VIP/RIP path existed for it.
  double unroutedRps = 0.0;
  /// Why it was dropped: "no_dns", "no_shares", "no_route", "no_owner",
  /// "no_rips", "depth", "dead_vm".
  FlatMap<std::string, double> unroutedByCause;
  /// Demand routed only via reachable (padded/draining) routes because
  /// the VIP had no Active route — E4 separates this fallback share from
  /// healthy routing.
  double degradedRoutedRps = 0.0;

  /// Incremental-engine observability: apps re-descended this epoch vs
  /// apps served from the flow-tree cache.  Both 0 when the engine runs
  /// in full-recompute mode.  Excluded from engine-equivalence checks —
  /// they describe the computation, not the modelled system.
  std::uint32_t engineAppsRecomputed = 0;
  std::uint32_t engineAppsCached = 0;

  /// The fault injector's plan seed: with the storm options, enough to
  /// reproduce a chaos run from the report alone.  A field, not a gauge:
  /// plan seeds use all 64 bits, which a double does not hold.
  std::uint64_t faultPlanSeed = 0;

  /// Every simulated-state gauge of MegaDc's MetricsRegistry at this
  /// epoch — failure state, command channel, manager tier, faults,
  /// durable state, sessions, ... — keyed `name{label=value,...}` as
  /// MetricsRegistry::keyOf builds it.  Registering a gauge is its only
  /// declaration; host-state gauges (GaugeScope::Host) stay out, so
  /// observing a run never changes its report.  Empty for an engine
  /// running outside a MegaDc.
  FlatMap<std::string, double> gauges;

  [[nodiscard]] double totalDemandRps() const {
    double d = 0.0;
    for (const auto& [app, rps] : appDemandRps) d += rps;
    return d;
  }
  [[nodiscard]] double totalServedRps() const {
    double d = 0.0;
    for (const auto& [app, rps] : appServedRps) d += rps;
    return d;
  }
};

namespace state {
class ByteWriter;
class ByteReader;
}  // namespace state

/// Canonical binary encoding of a report: fixed field order, maps
/// (the gauges included) emitted key-sorted — two equal reports encode to
/// identical bytes.
void encodeEpochReport(const EpochReport& rep, state::ByteWriter& w);
EpochReport decodeEpochReport(state::ByteReader& r);

/// fnv1a64 over the canonical encoding.  Two runs of the same seeded
/// scenario must produce reports with equal hashes — the end-to-end
/// deterministic-replay invariant.
[[nodiscard]] std::uint64_t hashEpochReport(const EpochReport& rep);

}  // namespace mdc
