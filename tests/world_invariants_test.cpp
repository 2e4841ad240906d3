// Whole-world consistency checks after an eventful run: every RIP points
// at a live VM, every exposed VIP is backed, ownership indices agree, and
// capacity accounting balances.  (Grown out of a debugging harness; kept
// as a cross-cutting invariant suite.)
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "mdc/scenario/megadc.hpp"

namespace mdc {
namespace {

void checkWorldInvariants(MegaDc& dc) {
  // (1) Every RIP on every switch references a live VM or an m-VIP.
  dc.fleet.forEach([&](const LbSwitch& sw) {
    for (const VipEntry& e : sw.vips()) {
      for (const RipEntry& r : e.rips) {
        if (r.targetsVm()) {
          EXPECT_TRUE(dc.hosts.vmExists(r.vm))
              << "switch " << sw.id() << " vip " << e.vip
              << " references destroyed vm " << r.vm;
        }
      }
    }
  });

  // (2) Every DNS-exposed VIP (weight > 0) has at least one RIP.
  for (const Application& a : dc.apps.all()) {
    if (!dc.dns.hasApp(a.id)) continue;
    for (const VipWeight& vw : dc.dns.vips(a.id)) {
      if (vw.weight <= 0.0) continue;
      const auto owner = dc.fleet.ownerOf(vw.vip);
      ASSERT_TRUE(owner.has_value());
      const VipEntry* e = dc.fleet.at(*owner).findVip(vw.vip);
      ASSERT_NE(e, nullptr);
      EXPECT_FALSE(e->rips.empty())
          << "exposed vip " << vw.vip << " has no RIPs";
    }
  }

  // (3) Ownership index agrees with switch tables.
  dc.fleet.forEach([&](const LbSwitch& sw) {
    for (const VipEntry& e : sw.vips()) {
      const auto owner = dc.fleet.ownerOf(e.vip);
      ASSERT_TRUE(owner.has_value());
      EXPECT_EQ(*owner, sw.id());
    }
  });

  // (4) Per-server used capacity equals the sum of resident VM slices.
  for (const ServerInfo& s : dc.topo.servers()) {
    CapacityVec sum;
    for (VmId vm : dc.hosts.vmsOn(s.id)) {
      if (dc.hosts.vmExists(vm)) sum += dc.hosts.vm(vm).slice;
    }
    const CapacityVec used = dc.hosts.usedCapacity(s.id);
    EXPECT_NEAR(used.cpu(), sum.cpu(), 1e-6);
    EXPECT_NEAR(used.memory(), sum.memory(), 1e-6);
    EXPECT_NEAR(used.network(), sum.network(), 1e-6);
  }

  // (5) App instance lists reference live VMs of that app.
  for (const Application& a : dc.apps.all()) {
    for (VmId vm : a.instances) {
      if (!dc.hosts.vmExists(vm)) continue;  // retiring
      EXPECT_EQ(dc.hosts.vm(vm).app, a.id);
    }
  }
}

TEST(WorldInvariants, SteadyState) {
  MegaDc dc{testScaleConfig()};
  dc.bootstrap();
  dc.runUntil(dc.sim.now() + 200.0);
  checkWorldInvariants(dc);
  EXPECT_LT(dc.engine->latest().unroutedRps, 1.0);
}

TEST(WorldInvariants, AfterFlashCrowdChurn) {
  MegaDcConfig cfg = testScaleConfig();
  MegaDc dc{cfg};
  const auto rates =
      zipfBaseRates(cfg.numApps, cfg.zipfAlpha, cfg.totalDemandRps);
  FlashCrowdDemand::Spike spike;
  spike.app = AppId{3};
  spike.start = 60.0;
  spike.end = 360.0;
  spike.multiplier = 8.0;
  spike.rampSeconds = 20.0;
  dc.setDemandModel(std::make_unique<FlashCrowdDemand>(
      std::make_unique<StaticDemand>(rates),
      std::vector<FlashCrowdDemand::Spike>{spike}));
  dc.bootstrap();
  dc.runUntil(600.0);  // through the spike and the scale-in afterwards
  checkWorldInvariants(dc);
  // Unrouted demand must have cleared once churn settled.
  EXPECT_LT(dc.engine->latest().unroutedRps, 1.0);
}

TEST(WorldInvariants, AfterRandomWalkChurn) {
  MegaDcConfig cfg = testScaleConfig();
  MegaDc dc{cfg};
  const auto rates =
      zipfBaseRates(cfg.numApps, cfg.zipfAlpha, cfg.totalDemandRps);
  dc.setDemandModel(
      std::make_unique<RandomWalkDemand>(rates, 0.35, 45.0, cfg.seed));
  dc.bootstrap();
  dc.runUntil(500.0);
  checkWorldInvariants(dc);
}

}  // namespace
}  // namespace mdc
