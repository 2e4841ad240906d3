// LB-switch crash and self-healing recovery (E13).  A switch crash wipes
// its volatile VIP/RIP/connection tables; every VIP it hosted becomes a
// black hole until the health monitor detects the failure (missed
// heartbeats), zeroes the DNS weights, and re-hosts the orphans on the
// surviving switches via high-priority RestoreVip requests.
//
//   $ ./example_switch_failure
#include <iostream>

#include "mdc/metrics/table.hpp"
#include "mdc/scenario/megadc.hpp"

int main() {
  using namespace mdc;

  MegaDcConfig cfg = testScaleConfig();
  cfg.health.heartbeatInterval = 2.0;
  cfg.health.missedHeartbeats = 2;

  MegaDc dc{cfg};
  dc.bootstrap();
  dc.runUntil(100.0);

  const SwitchId victim{0};
  const std::size_t vipsHosted = dc.fleet.at(victim).vipCount();
  std::cout << "t=100s: crashing switch 0 (" << vipsHosted
            << " VIPs hosted); repair arrives at t=160s\n"
            << "detection delay bound: "
            << dc.health->detectionDelayBound() << " s\n\n";
  dc.faults->crashSwitch(victim, 100.0, 60.0);

  Table timeline{"Recovery timeline after the switch crash",
                 {"t (s)", "down switches", "orphaned vips", "unrouted rps",
                  "no_owner rps", "vips restored", "served/demand"}};
  for (const double t : {100.0, 102.0, 104.0, 106.0, 108.0, 110.0, 120.0,
                         140.0, 160.0, 180.0}) {
    dc.runUntil(t);
    const EpochReport& r = dc.engine->latest();
    const auto noOwner = r.unroutedByCause.find("no_owner");
    timeline.addRow(
        {t, static_cast<long long>(r.gauges.at("mdc.fleet.down_switches")),
         static_cast<long long>(r.gauges.at("mdc.fleet.orphaned_vips")),
         r.unroutedRps,
         noOwner == r.unroutedByCause.end() ? 0.0 : noOwner->second,
         static_cast<long long>(dc.health->vipsRestored()),
         dc.engine->satisfaction().last()});
  }
  timeline.print(std::cout);

  dc.runUntil(300.0);
  const Histogram& rec = dc.health->vipRecoverySeconds();
  std::cout << "\nswitch failures detected: "
            << dc.health->switchFailuresDetected()
            << "\nVIPs restored: " << dc.health->vipsRestored()
            << " (retries: " << dc.health->restoreRetries() << ")\n";
  if (rec.count() > 0) {
    std::cout << "VIP recovery latency: p50 " << rec.quantile(0.5)
              << " s, p99 " << rec.quantile(0.99) << " s (max "
              << rec.maxRecorded() << " s)\n";
  }
  std::cout << "unavailability integral: "
            << dc.health->unavailabilityRpsSeconds()
            << " rps-seconds\nserved/demand at end: "
            << dc.engine->satisfaction().last() << "\n";
  return 0;
}
